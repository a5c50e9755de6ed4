//! Differential properties of the run-wise data path.
//!
//! `flexio-pfs` charges a data operation for its span and moves only the
//! runs the caller names; `flexio-io` hands each request its sub-runs. The
//! reference here is what the layers did before — one buffer per request —
//! composed from *public* calls only: `read(off, len)` into a buffer,
//! overlay the segments, `write(off, buf)`. The fault draws of the two
//! sides fall in the same order, so the equalities hold under any fault
//! plan: the same `Result` (kind, OST, `at`), the same [`StatsSnapshot`],
//! the same bytes delivered, the same image through a probe handle and the
//! same `flush_bytes` after `close`.
//!
//! (Root test crate: `flexio-pfs` and `flexio-io` have no dependencies, so
//! the `flexio_sim::prop` harness is only reachable from here.)

use flexio::io::{read_scattered_nb, resolve, write_gathered_nb, IoMethod, Resolved};
use flexio::pfs::{
    FaultPlan, FileHandle, IoCompletion, Pfs, PfsConfig, PfsCostModel, PfsError, StatsSnapshot,
    StragglerSpec,
};
use flexio::sim::prop::Runner;
use flexio::sim::XorShift64Star;
use std::sync::Arc;

const PATH: &str = "dp";
/// The client under test; 1 holds dirty pages beside it, 7 wrote the
/// pre-existing file, 9 probes the image.
const ME: usize = 0;

/// File-system geometry, fault plan and pre-existing state of one case.
#[derive(Debug, Clone)]
struct World {
    cfg: PfsConfig,
    fault: Option<FaultPlan>,
    /// A file of this many bytes exists (written and closed by client 7):
    /// shorter than, inside or beyond the span under test, or 0 for none.
    pre_len: u64,
    /// Client 1 holds dirty cached pages over this range (cached worlds).
    neighbour: Option<(u64, u64)>,
    /// The client under test has read this range already, so only part of
    /// a span's pages are missing from its cache.
    warm: Option<(u64, u64)>,
    data_seed: u64,
}

/// One span with segments in it and a cut of their bytes into runs.
#[derive(Debug, Clone)]
struct Case {
    world: World,
    off: u64,
    len: u64,
    /// Sorted, disjoint, non-empty, inside `[off, off+len)`.
    segs: Vec<(u64, u64)>,
    /// The segments tile the span, so a sieve commit may skip its pre-read.
    covered: bool,
    /// Cut points of the segments' byte stream (sorted; a repeated point
    /// is an empty run, any point may fall mid-segment).
    cuts: Vec<usize>,
    /// Cut points of the span-long stream the vectored ops move.
    span_cuts: Vec<usize>,
    /// For the `flexio-io` level: the method and selection metric.
    method: IoMethod,
    extent: u64,
}

fn below(rng: &mut XorShift64Star, bound: u64) -> u64 {
    rng.next_u64() % bound.max(1)
}

fn random_world(rng: &mut XorShift64Star, scale: u64) -> World {
    let page = if rng.next_u64().is_multiple_of(2) { 16 } else { 4096 };
    let (locking, client_cache) = match rng.next_u64() % 3 {
        0 => (false, false),
        1 => (true, false),
        _ => (true, true),
    };
    let cfg = PfsConfig {
        n_osts: 4,
        stripe_size: page * 4,
        page_size: page,
        locking,
        lock_expansion: rng.next_u64().is_multiple_of(2),
        client_cache,
        cost: PfsCostModel::default(),
    };
    let fault = (!rng.next_u64().is_multiple_of(3)).then(|| FaultPlan {
        seed: 1 + rng.next_u64() % 1000,
        transient_rate: [0.0, 0.15, 0.5, 1.0][(rng.next_u64() % 4) as usize],
        torn_rate: [0.0, 0.4, 1.0][(rng.next_u64() % 3) as usize],
        stragglers: if rng.next_u64().is_multiple_of(2) {
            vec![StragglerSpec { ost: 1, multiplier: 3.0 }]
        } else {
            Vec::new()
        },
    });
    let range = |rng: &mut XorShift64Star| (below(rng, 2 * scale), 1 + below(rng, scale));
    World {
        cfg,
        fault,
        pre_len: if rng.next_u64().is_multiple_of(4) { 0 } else { below(rng, 4 * scale) },
        neighbour: (client_cache && rng.next_u64().is_multiple_of(2)).then(|| range(rng)),
        warm: rng.next_u64().is_multiple_of(3).then(|| range(rng)),
        data_seed: rng.next_u64(),
    }
}

/// Sorted cut points of a `total`-byte stream.
fn random_cuts(rng: &mut XorShift64Star, total: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> =
        (0..below(rng, 7)).map(|_| below(rng, total as u64 + 1) as usize).collect();
    if rng.next_u64().is_multiple_of(3) {
        cuts.extend([0, total]); // a leading and a trailing empty run
    }
    cuts.sort_unstable();
    cuts
}

fn random_case(rng: &mut XorShift64Star) -> Case {
    // Spans of a few pages at either page size.
    let scale = if rng.next_u64().is_multiple_of(2) { 100 } else { 9000 };
    let world = random_world(rng, scale);
    let off = below(rng, 2 * scale);
    let len = 1 + below(rng, scale);
    let covered = rng.next_u64().is_multiple_of(4);
    // Walk the span laying down segments; a covered span gets no gaps.
    let mut segs = Vec::new();
    let mut pos = off;
    while pos < off + len {
        if !covered {
            pos += below(rng, scale / 4);
        }
        let room = (off + len).saturating_sub(pos);
        if room == 0 {
            break;
        }
        let l = 1 + below(rng, room.min(1 + scale / 3));
        segs.push((pos, l));
        pos += l;
    }
    if segs.is_empty() {
        segs.push((off + len - 1, 1));
    }
    let total: u64 = segs.iter().map(|s| s.1).sum();
    let buffer = [1, 3, 7, 16, 40, 100, 1000, 1 << 20][(rng.next_u64() % 8) as usize];
    Case {
        world,
        off,
        len,
        covered,
        cuts: random_cuts(rng, total as usize),
        span_cuts: random_cuts(rng, len as usize),
        method: match rng.next_u64() % 3 {
            0 => IoMethod::Naive,
            1 => IoMethod::DataSieve { buffer },
            _ => IoMethod::Conditional { extent_threshold: 64, sieve_buffer: buffer },
        },
        extent: below(rng, 128),
        segs,
    }
}

fn seeded(seed: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    XorShift64Star::new(seed).fill_bytes(&mut buf);
    // No zero bytes: a lost write must differ from a never-written gap.
    buf.iter_mut().for_each(|b| *b |= 1);
    buf
}

/// Cut `data` at `cuts` into a run list.
fn runs_of<'a>(data: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut out = Vec::new();
    let mut prev = 0;
    for &c in cuts.iter().chain([&data.len()]) {
        out.push(&data[prev..c]);
        prev = c;
    }
    out
}

/// Cut `buf` at `cuts` into a destination run list.
fn dests_of<'a>(mut buf: &'a mut [u8], cuts: &[usize]) -> Vec<&'a mut [u8]> {
    let mut out = Vec::new();
    let mut prev = 0;
    for &c in cuts {
        let (head, tail) = buf.split_at_mut(c - prev);
        out.push(head);
        buf = tail;
        prev = c;
    }
    out.push(buf);
    out
}

/// A fresh file system in the case's pre-existing state, and the handle
/// of the client under test.
fn build(w: &World) -> (Arc<Pfs>, FileHandle) {
    let pfs = match &w.fault {
        Some(plan) => Pfs::with_faults(w.cfg, plan.clone()),
        None => Pfs::new(w.cfg),
    };
    if w.pre_len > 0 {
        let h = pfs.open(PATH, 7);
        let _ = h.write(0, 0, &seeded(w.data_seed ^ 7, w.pre_len as usize));
        let _ = h.close(0);
    }
    if let Some((o, l)) = w.neighbour {
        let _ = pfs.open(PATH, 1).write(0, o, &seeded(w.data_seed ^ 1, l as usize));
    }
    let me = pfs.open(PATH, ME);
    if let Some((o, l)) = w.warm {
        let _ = me.read(0, o, &mut vec![0u8; l as usize]);
    }
    (pfs, me)
}

/// Everything observable after an operation: what the client reads back
/// over the span's neighbourhood (cache contents included), the counters
/// before and after its `close`, and the image through a probe handle.
#[derive(Debug, PartialEq)]
struct Observed {
    stats: StatsSnapshot,
    size: u64,
    reread: (Result<u64, PfsError>, Vec<u8>),
    closed: Result<u64, PfsError>,
    stats_closed: StatsSnapshot,
    image: Vec<u8>,
}

fn observe(pfs: &Arc<Pfs>, me: &FileHandle, c: &Case, t: u64) -> Observed {
    let stats = pfs.stats();
    let size = me.size();
    let page = c.world.cfg.page_size;
    let mut back = vec![0u8; (c.len + 2 * page) as usize];
    let reread = me.read(t, c.off.saturating_sub(page), &mut back);
    let closed = me.close(t);
    let stats_closed = pfs.stats();
    let probe = pfs.open(PATH, 9);
    let mut image = vec![0u8; probe.size() as usize];
    let _ = probe.read(0, 0, &mut image);
    Observed { stats, size, reread: (reread, back), closed, stats_closed, image }
}

const NOW: u64 = 1_000;

/// The parent commit's chunk commit, from public calls: read the chunk,
/// overlay the segments, write the chunk.
fn reference_commit(
    h: &FileHandle,
    now: u64,
    off: u64,
    len: u64,
    segs: &[(u64, u64)],
    packed: &[u8],
    covered: bool,
) -> Result<u64, PfsError> {
    let mut buf = vec![0u8; len as usize];
    let mut t = now;
    let mut err: Option<PfsError> = None;
    if !covered {
        t = match h.read(t, off, &mut buf) {
            Ok(t) => t,
            Err(e) => {
                err = Some(e);
                e.at
            }
        };
    }
    let mut pos = 0usize;
    for &(so, sl) in segs {
        buf[(so - off) as usize..(so - off + sl) as usize]
            .copy_from_slice(&packed[pos..pos + sl as usize]);
        pos += sl as usize;
    }
    match h.write(t, off, &buf) {
        Ok(t) => match err {
            Some(e) => Err(PfsError { at: t, ..e }),
            None => Ok(t),
        },
        Err(e) => Err(PfsError { at: e.at, ..err.unwrap_or(e) }),
    }
}

#[test]
fn pfs_moves_runs_and_charges_spans() {
    Runner::new("pfs_moves_runs_and_charges_spans").cases(96).run(random_case, |c| {
        let total: u64 = c.segs.iter().map(|s| s.1).sum();
        let packed = seeded(c.world.data_seed, total as usize);
        let span = seeded(c.world.data_seed ^ 2, c.len as usize);

        // write_span vs read + overlay + write.
        let (pa, a) = build(&c.world);
        let (pb, b) = build(&c.world);
        let want = reference_commit(&a, NOW, c.off, c.len, &c.segs, &packed, c.covered);
        let got = b.write_span(NOW, c.off, c.len, &c.segs, &runs_of(&packed, &c.cuts), c.covered);
        assert_eq!(got.issued_at(), NOW);
        assert_eq!(got.into_result(), want, "write_span result");
        let t = want.unwrap_or_else(|e| e.at);
        assert_eq!(observe(&pb, &b, c, t), observe(&pa, &a, c, t), "write_span");

        // pwritev_nb vs write of the join.
        let (pa, a) = build(&c.world);
        let (pb, b) = build(&c.world);
        let want = a.write(NOW, c.off, &span);
        let got = b.pwritev_nb(NOW, c.off, &runs_of(&span, &c.span_cuts));
        assert_eq!(got.issued_at(), NOW);
        assert_eq!(got.wait(NOW), want, "pwritev_nb result");
        let t = want.unwrap_or_else(|e| e.at);
        assert_eq!(observe(&pb, &b, c, t), observe(&pa, &a, c, t), "pwritev_nb");

        // preadv_nb vs read of the span.
        let (pa, a) = build(&c.world);
        let (pb, b) = build(&c.world);
        let mut want_bytes = vec![0xEEu8; c.len as usize];
        let want = a.read(NOW, c.off, &mut want_bytes);
        let mut got_bytes = vec![0xEEu8; c.len as usize];
        let got = b.preadv_nb(NOW, c.off, &mut dests_of(&mut got_bytes, &c.span_cuts));
        assert_eq!(got.wait(NOW), want, "preadv_nb result");
        assert_eq!(got_bytes, want_bytes, "preadv_nb bytes");
        let t = want.unwrap_or_else(|e| e.at);
        assert_eq!(observe(&pb, &b, c, t), observe(&pa, &a, c, t), "preadv_nb");

        // read_span vs read of the span + extraction.
        let (pa, a) = build(&c.world);
        let (pb, b) = build(&c.world);
        let mut chunk = vec![0u8; c.len as usize];
        let want = a.read(NOW, c.off, &mut chunk);
        let want_bytes: Vec<u8> = c
            .segs
            .iter()
            .flat_map(|&(so, sl)| chunk[(so - c.off) as usize..(so - c.off + sl) as usize].to_vec())
            .collect();
        let mut got_bytes = vec![0xEEu8; total as usize];
        let got = b.read_span(NOW, c.off, c.len, &c.segs, &mut dests_of(&mut got_bytes, &c.cuts));
        assert_eq!(got.into_result(), want, "read_span result");
        assert_eq!(got_bytes, want_bytes, "read_span bytes");
        let t = want.unwrap_or_else(|e| e.at);
        assert_eq!(observe(&pb, &b, c, t), observe(&pa, &a, c, t), "read_span");
    });
}

/// A torn write that keeps nothing stores nothing and raises nothing — the
/// one draw the random cases rarely make (`keep == 0` needs a short span).
#[test]
fn torn_commit_that_keeps_nothing_leaves_the_file_alone() {
    let mut c = random_case(&mut XorShift64Star::new(1));
    c.world = World {
        cfg: PfsConfig { locking: false, client_cache: false, ..c.world.cfg },
        fault: Some(FaultPlan { torn_rate: 1.0, ..FaultPlan::default() }),
        pre_len: 0,
        neighbour: None,
        warm: None,
        data_seed: 5,
    };
    (c.off, c.len, c.segs, c.covered) = (40, 1, vec![(40, 1)], false);
    let (pa, a) = build(&c.world);
    let (pb, b) = build(&c.world);
    let want = reference_commit(&a, NOW, c.off, c.len, &c.segs, &[9], c.covered);
    let got = b.write_span(NOW, c.off, c.len, &c.segs, &[&[9]], c.covered);
    assert_eq!(got.into_result(), want);
    assert_eq!(want.unwrap_err().kind, flexio::pfs::PfsErrorKind::TornWrite);
    assert_eq!((a.size(), b.size()), (0, 0));
    assert_eq!(observe(&pb, &b, &c, NOW), observe(&pa, &a, &c, NOW));
}

// ---- one level up: flexio-io ---------------------------------------------

/// The sieve chunks of `segs` as the parent commit walked them: each chunk
/// starts at a segment start (or where the last chunk cut a segment) and
/// spans at most `buffer` bytes; returns `(start, end)` pairs.
fn reference_chunks(segs: &[(u64, u64)], buffer: usize) -> Vec<(u64, u64)> {
    let buffer = buffer.max(1) as u64;
    let end = segs.last().map_or(0, |s| s.0 + s.1);
    let mut out = Vec::new();
    let mut start = segs[0].0;
    while start < end {
        let stop = (start + buffer).min(end);
        out.push((start, stop));
        // The next byte of data at or past `stop`.
        start = segs.iter().find(|&&(o, l)| o + l > stop).map_or(end, |&(o, _)| o.max(stop));
    }
    out
}

/// `(file offset, stream position, len)` of the parts of `segs` inside
/// `[start, stop)`.
fn clipped(segs: &[(u64, u64)], start: u64, stop: u64) -> Vec<(u64, usize, u64)> {
    let mut out = Vec::new();
    let mut stream = 0usize;
    for &(o, l) in segs {
        let (lo, hi) = (o.max(start), (o + l).min(stop));
        if lo < hi {
            out.push((lo, stream + (lo - o) as usize, hi - lo));
        }
        stream += l as usize;
    }
    out
}

/// A chain of dependent requests: each starts when the last completed; the
/// first fault is kept and stamped with the chain's completion time.
struct Chain {
    t: u64,
    err: Option<PfsError>,
}

impl Chain {
    fn then(&mut self, op: impl FnOnce(u64) -> Result<u64, PfsError>) {
        match op(self.t) {
            Ok(done) => self.t = done,
            Err(e) => {
                self.t = e.at;
                self.err = self.err.or(Some(e));
            }
        }
    }

    fn finish(self) -> (u64, Option<PfsError>) {
        (self.t, self.err.map(|e| PfsError { at: self.t, ..e }))
    }
}

/// The parent commit's packed-stream write (`flexio-io`'s one entry then),
/// from public `FileHandle` calls.
fn reference_write(
    h: &FileHandle,
    now: u64,
    segs: &[(u64, u64)],
    packed: &[u8],
    method: &IoMethod,
    extent: u64,
) -> (u64, Option<PfsError>) {
    let mut chain = Chain { t: now, err: None };
    match resolve(method, segs, extent) {
        Resolved::Contiguous => chain.then(|t| h.write(t, segs[0].0, packed)),
        Resolved::Naive => {
            for (o, pos, l) in clipped(segs, 0, u64::MAX) {
                chain.then(|t| h.write(t, o, &packed[pos..pos + l as usize]));
            }
        }
        Resolved::DataSieve(buffer) => {
            for (start, stop) in reference_chunks(segs, buffer) {
                let parts = clipped(segs, start, stop);
                let chunk_segs: Vec<(u64, u64)> = parts.iter().map(|&(o, _, l)| (o, l)).collect();
                let chunk_packed: Vec<u8> = parts
                    .iter()
                    .flat_map(|&(_, pos, l)| packed[pos..pos + l as usize].to_vec())
                    .collect();
                let covered = chunk_packed.len() as u64 == stop - start;
                chain.then(|t| {
                    reference_commit(h, t, start, stop - start, &chunk_segs, &chunk_packed, covered)
                });
            }
        }
    }
    chain.finish()
}

/// The parent commit's packed-stream read, from public `FileHandle` calls.
fn reference_read(
    h: &FileHandle,
    now: u64,
    segs: &[(u64, u64)],
    packed: &mut [u8],
    method: &IoMethod,
    extent: u64,
) -> (u64, Option<PfsError>) {
    let mut chain = Chain { t: now, err: None };
    match resolve(method, segs, extent) {
        Resolved::Contiguous => chain.then(|t| h.read(t, segs[0].0, packed)),
        Resolved::Naive => {
            for (o, pos, l) in clipped(segs, 0, u64::MAX) {
                chain.then(|t| h.read(t, o, &mut packed[pos..pos + l as usize]));
            }
        }
        Resolved::DataSieve(buffer) => {
            for (start, stop) in reference_chunks(segs, buffer) {
                let mut buf = vec![0u8; (stop - start) as usize];
                chain.then(|t| h.read(t, start, &mut buf));
                for (o, pos, l) in clipped(segs, start, stop) {
                    packed[pos..pos + l as usize]
                        .copy_from_slice(&buf[(o - start) as usize..(o - start + l) as usize]);
                }
            }
        }
    }
    chain.finish()
}

fn outcome(c: IoCompletion) -> (u64, Option<PfsError>) {
    (c.done_at(), c.error())
}

#[test]
fn io_hands_each_request_its_sub_runs() {
    Runner::new("io_hands_each_request_its_sub_runs").cases(96).run(random_case, |c| {
        let total: u64 = c.segs.iter().map(|s| s.1).sum();
        let packed = seeded(c.world.data_seed, total as usize);

        // write_gathered_nb, any cut, vs the single-buffer reference.
        let (pa, a) = build(&c.world);
        let (pb, b) = build(&c.world);
        let want = reference_write(&a, NOW, &c.segs, &packed, &c.method, c.extent);
        let got =
            write_gathered_nb(&b, NOW, &c.segs, &runs_of(&packed, &c.cuts), &c.method, c.extent);
        assert_eq!(got.issued_at(), NOW);
        assert_eq!(outcome(got), want, "write_gathered_nb outcome");
        assert_eq!(observe(&pb, &b, c, want.0), observe(&pa, &a, c, want.0), "write_gathered_nb");

        // read_scattered_nb, any cut, vs the single-buffer reference.
        let (pa, a) = build(&c.world);
        let (pb, b) = build(&c.world);
        let mut want_bytes = vec![0xEEu8; total as usize];
        let want = reference_read(&a, NOW, &c.segs, &mut want_bytes, &c.method, c.extent);
        let mut got_bytes = vec![0xEEu8; total as usize];
        let got = read_scattered_nb(
            &b,
            NOW,
            &c.segs,
            &mut dests_of(&mut got_bytes, &c.cuts),
            &c.method,
            c.extent,
        );
        assert_eq!(outcome(got), want, "read_scattered_nb outcome");
        assert_eq!(got_bytes, want_bytes, "read_scattered_nb bytes");
        assert_eq!(observe(&pb, &b, c, want.0), observe(&pa, &a, c, want.0), "read_scattered_nb");
    });
}

/// The generator reaches what the properties are about: every resolved
/// arm, sieve buffers smaller than a segment, covered and gapped spans,
/// files shorter than / inside / beyond the span, cached and uncached
/// worlds, runs cut mid-segment, empty runs, and fault plans of each kind.
#[test]
fn generator_covers_the_axes() {
    let mut rng = XorShift64Star::new(0xC0FFEE);
    let cases: Vec<Case> = (0..400).map(|_| random_case(&mut rng)).collect();
    let any = |f: &dyn Fn(&Case) -> bool| cases.iter().any(f);
    for arm in [Resolved::Contiguous, Resolved::Naive] {
        assert!(any(&|c| resolve(&c.method, &c.segs, c.extent) == arm), "{arm:?}");
    }
    assert!(any(&|c| matches!(resolve(&c.method, &c.segs, c.extent), Resolved::DataSieve(b)
        if c.segs.iter().any(|s| s.1 > b as u64))));
    assert!(any(&|c| matches!(resolve(&c.method, &c.segs, c.extent), Resolved::DataSieve(b)
        if reference_chunks(&c.segs, b).len() > 1 && b > 16)));
    assert!(any(&|c| c.covered) && any(&|c| !c.covered && c.segs.len() > 2));
    assert!(any(&|c| c.world.pre_len == 0));
    assert!(any(&|c| c.world.pre_len > 0 && c.world.pre_len <= c.off));
    assert!(any(&|c| c.world.pre_len > c.off && c.world.pre_len < c.off + c.len));
    assert!(any(&|c| c.world.pre_len >= c.off + c.len));
    for (cache, locking) in [(false, false), (false, true), (true, true)] {
        for page in [16, 4096] {
            assert!(any(&|c| {
                let cfg = c.world.cfg;
                (cfg.client_cache, cfg.locking, cfg.page_size) == (cache, locking, page)
            }));
        }
    }
    assert!(any(&|c| c.world.neighbour.is_some_and(|(o, l)| o < c.off + c.len && o + l > c.off)));
    assert!(any(&|c| c.cuts.windows(2).any(|w| w[0] == w[1])), "empty runs");
    assert!(any(&|c| {
        // A cut strictly inside a segment's stream range.
        let mut stream = 0usize;
        c.segs.iter().any(|s| {
            let range = stream + 1..stream + s.1 as usize;
            stream += s.1 as usize;
            c.cuts.iter().any(|cut| range.contains(cut))
        })
    }));
    let plan = |c: &Case| c.world.fault.clone();
    assert!(any(&|c| plan(c).is_none()));
    assert!(any(&|c| plan(c).is_some_and(|p| p.transient_rate > 0.0 && p.transient_rate < 1.0)));
    assert!(any(&|c| plan(c).is_some_and(|p| p.torn_rate > 0.0 && !c.world.cfg.client_cache)));
    assert!(any(&|c| plan(c).is_some_and(|p| !p.stragglers.is_empty())));
}
