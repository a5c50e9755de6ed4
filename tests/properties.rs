//! Properties of the layers below the engines — `flexio-types`,
//! `flexio-pfs` and `flexio-core`'s realm assigners, and the contract the
//! flexible engine holds a plugged-in assigner to — on the in-repo
//! harness (`flexio::sim::prop::Runner`). They live here rather than in
//! their crates because those crates sit below `flexio-sim`, which owns
//! the harness; every property uses public API only.
//!
//! Generators draw `lo + next % range`, so the harness's shrinking (every
//! draw right-shifted) walks toward fewer, smaller, shallower cases. A
//! case a property does not apply to returns early.

use flexio::core::{
    AssignCtx, BalancedLoad, Engine, EvenAar, FileRealm, Hints, IoError, PersistentBlockCyclic,
    RealmAssigner,
};
use flexio::pfs::calendar::Calendar;
use flexio::pfs::{Pfs, PfsConfig, PfsCostModel};
use flexio::sim::prop::Runner;
use flexio::sim::XorShift64Star;
use flexio::types::{flatten, Datatype, Dt, FileView, FlatType, MemLayout, Seg};
use flexio::workload::{
    eq_padded, generate, read_file, run_phase, run_tiled, Oracle, PhaseOp, TiledShape,
};
use std::collections::HashSet;
use std::sync::Arc;

/// A draw in `[lo, lo + range)`.
fn draw(rng: &mut XorShift64Star, lo: u64, range: u64) -> u64 {
    lo + rng.next_u64() % range
}

// ---- flexio-types ---------------------------------------------------------

/// An arbitrary datatype of bounded size, nested at most `depth` deep. A
/// shrunk draw picks the leaf.
fn arb_dt(rng: &mut XorShift64Star, depth: u32) -> Dt {
    let kind = if depth == 0 { 0 } else { draw(rng, 0, 5) };
    let child = |rng: &mut XorShift64Star| arb_dt(rng, depth - 1);
    match kind {
        0 => Datatype::bytes(draw(rng, 1, 15)),
        1 => Datatype::contiguous(draw(rng, 1, 4), child(rng)),
        2 => {
            let (c, b, s) = (draw(rng, 1, 3), draw(rng, 1, 2), draw(rng, 1, 4));
            Datatype::vector(c, b, s.max(b) as i64, child(rng))
        }
        3 => {
            let (c, b, ch) = (draw(rng, 1, 3), draw(rng, 1, 2), child(rng));
            let ext = ch.extent() as i64;
            Datatype::hvector(c, b, (b as i64 * ext).max(1) + 3, ch)
        }
        _ => {
            // Keep displacements monotonic and non-overlapping so the
            // result is view-compatible.
            let mut blocks: Vec<(i64, u64)> =
                (0..draw(rng, 1, 3)).map(|_| (draw(rng, 0, 6) as i64, draw(rng, 1, 2))).collect();
            blocks.sort_unstable();
            let mut cur = 0i64;
            for (d, bl) in &mut blocks {
                *d = cur.max(*d);
                cur = *d + *bl as i64;
            }
            Datatype::indexed(blocks, Datatype::bytes(2))
        }
    }
}

fn dt(rng: &mut XorShift64Star) -> Dt {
    arb_dt(rng, 3)
}

/// `dt` flattened, if a file view can tile it: data, monotonic, nothing
/// below offset 0, no segment past the extent.
fn viewable(dt: &Dt) -> Option<Arc<FlatType>> {
    let f = flatten(dt);
    let ub = f.segs.last().map_or(0, |s| s.end());
    let ok = f.size > 0
        && f.monotonic
        && f.segs.first().is_none_or(|s| s.off >= 0)
        && f.extent as i64 >= ub;
    ok.then(|| Arc::new(f))
}

/// The view properties return early on a type no view can tile: most
/// draws must not be such, and every shape must be drawn.
#[test]
fn datatype_generator_covers_the_shapes() {
    let mut rng = XorShift64Star::new(0x00F1_E810);
    let drawn: Vec<Dt> = (0..256).map(|_| dt(&mut rng)).collect();
    let viewable = drawn.iter().filter(|d| viewable(d).is_some()).count();
    assert!(viewable >= 128, "only {viewable} of 256 drawn types can back a view");
    let shapes: HashSet<_> = drawn.iter().map(|d| std::mem::discriminant(&**d)).collect();
    assert_eq!(shapes.len(), 5, "a shape `arb_dt` builds never came up in 256 draws");
    assert!(drawn.iter().any(|d| flatten(d).segs.len() >= 16), "no deeply nested type drawn");
}

/// `size()` always equals the sum of flattened segment lengths.
#[test]
fn size_matches_flatten() {
    Runner::new("size_matches_flatten").run(dt, |dt| {
        let f = flatten(dt);
        assert_eq!(f.size, dt.size());
        assert_eq!(f.segs.iter().map(|s| s.len).sum::<u64>(), dt.size());
    });
}

/// All flattened segments lie within `[lb, ub)`.
#[test]
fn segs_within_bounds() {
    Runner::new("segs_within_bounds").run(dt, |dt| {
        let (lb, ub) = dt.bounds();
        for s in &flatten(dt).segs {
            assert!(s.off >= lb, "seg {s:?} below lb {lb}");
            assert!(s.end() <= ub, "seg {s:?} above ub {ub}");
        }
    });
}

/// The wire round-trip is lossless.
#[test]
fn wire_roundtrip() {
    Runner::new("wire_roundtrip").run(dt, |dt| {
        let f = flatten(dt);
        assert_eq!(FlatType::from_wire(&f.to_wire()), f);
    });
}

/// `data_to_file` is strictly increasing and `file_to_data_lower` inverts
/// it.
#[test]
fn view_mapping_bijective() {
    Runner::new("view_mapping_bijective").run(
        |rng| (dt(rng), draw(rng, 0, 64)),
        |(dt, disp)| {
            let Some(f) = viewable(dt) else { return };
            let v = FileView::new(*disp, f, 1).unwrap();
            let mut prev = None;
            for d in 0..64u64 {
                let off = v.data_to_file(d);
                assert!(prev.is_none_or(|p| off > p), "offsets must be strictly increasing");
                prev = Some(off);
                assert_eq!(v.file_to_data_lower(off), d);
            }
        },
    );
}

/// Cursor streaming visits exactly the bytes `data_to_file` enumerates.
#[test]
fn cursor_agrees_with_mapping() {
    Runner::new("cursor_agrees_with_mapping").run(
        |rng| (dt(rng), draw(rng, 0, 32), draw(rng, 1, 6)),
        |(dt, start, chunk)| {
            let Some(f) = viewable(dt) else { return };
            let v = FileView::new(3, f, 1).unwrap();
            let mut c = v.cursor(*start);
            let mut d = *start;
            for _ in 0..40 {
                let p = c.take(*chunk);
                assert_eq!(p.data_pos, d);
                for k in 0..p.len {
                    assert_eq!(v.data_to_file(d + k), p.file_off + k);
                }
                d += p.len;
            }
        },
    );
}

/// `advance_to_file` positions exactly at `file_to_data_lower`'s answer.
#[test]
fn advance_matches_lower_bound() {
    Runner::new("advance_matches_lower_bound").run(
        |rng| (dt(rng), draw(rng, 0, 512)),
        |(dt, target)| {
            let Some(f) = viewable(dt) else { return };
            let v = FileView::new(0, f, 1).unwrap();
            let mut c = v.cursor(0);
            c.advance_to_file(*target);
            assert_eq!(c.data_pos(), v.file_to_data_lower(*target));
        },
    );
}

/// A filetype for the skip: Succinct (1–4 regions, tiled many times) or
/// Enumerated (up to 64 regions in one tile), with a leading gap before
/// its first region and a trailing gap after its last, each absent
/// about a third of the time.
fn skip_filetype(rng: &mut XorShift64Star) -> Arc<FlatType> {
    let d = if draw(rng, 0, 2) == 0 { draw(rng, 1, 4) } else { draw(rng, 1, 64) };
    let mut at = draw(rng, 0, 3) * draw(rng, 1, 16);
    let regions: Vec<(i64, u64)> = (0..d)
        .map(|_| {
            let (off, len) = (at, draw(rng, 1, 16));
            at += len + draw(rng, 1, 12);
            (off as i64, len)
        })
        .collect();
    let ub = regions.last().map_or(0, |&(off, len)| off as u64 + len);
    let extent = ub + draw(rng, 0, 3) * draw(rng, 0, 16);
    Arc::new(flatten(&Datatype::resized(
        0,
        extent,
        Datatype::hindexed(regions, Datatype::bytes(1)),
    )))
}

/// The linear scan `advance_to_file` is charged as, kept as its
/// reference: from the cursor at data byte `pos`, skip to the target's
/// tile for one pair, then examine the segments one at a time, a pair
/// each, until one ends past `off`. Returns the pairs, the data position
/// and the file offset it stops at.
fn scanned_advance(v: &FileView, pos: u64, off: u64) -> (u64, u64, u64) {
    let ft = v.ftype();
    let mut tile = pos / ft.size;
    let mut seg = ft.prefix.partition_point(|&p| p <= pos % ft.size) - 1;
    let mut within = pos % ft.size - ft.prefix[seg];
    let at = |tile: u64, seg: usize, within: u64| {
        let file = v.disp() + tile * ft.extent + ft.segs[seg].off as u64 + within;
        (tile * ft.size + ft.prefix[seg] + within, file)
    };
    if at(tile, seg, within).1 >= off {
        let (data, file) = at(tile, seg, within);
        return (0, data, file);
    }
    let mut pairs = 0;
    let target_tile = (off - v.disp()) / ft.extent;
    if target_tile > tile {
        (tile, seg, within) = (target_tile, 0, 0);
        pairs += 1;
    }
    loop {
        if seg == ft.segs.len() {
            (tile, seg, within) = (tile + 1, 0, 0);
            continue;
        }
        let origin = v.disp() + tile * ft.extent;
        let s = ft.segs[seg];
        if origin + s.end() as u64 <= off {
            (seg, within) = (seg + 1, 0);
            pairs += 1;
            continue;
        }
        let start = origin + s.off as u64 + within;
        if start < off {
            within += off - start;
        }
        break;
    }
    let (data, file) = at(tile, seg, within);
    (pairs, data, file)
}

/// `advance_to_file` charges, and stops where, the linear scan over the
/// segments does: on Succinct and Enumerated filetypes with gaps at both
/// ends, from ragged starts, to targets behind the cursor, inside a
/// segment, in a trailing gap or several tiles ahead, one after another
/// on the same cursor.
#[test]
fn advance_charges_the_linear_scan() {
    Runner::new("advance_charges_the_linear_scan").run(
        |rng| {
            let ft = skip_filetype(rng);
            let (disp, start) = (draw(rng, 0, 64), draw(rng, 0, 3 * ft.size));
            let targets: Vec<(u64, u64, u64)> =
                (0..8).map(|_| (draw(rng, 0, 4), draw(rng, 0, 4), rng.next_u64())).collect();
            (ft, disp, start, targets)
        },
        |(ft, disp, start, targets)| {
            let v = FileView::new(*disp, Arc::clone(ft), 1).unwrap();
            let ub = ft.segs.last().unwrap().end() as u64;
            let mut c = v.cursor(*start);
            for &(kind, tiles, x) in targets {
                let here = c.file_off();
                let tile_origin = v.disp() + ((here - v.disp()) / ft.extent + tiles) * ft.extent;
                let target = match kind {
                    0 => here.saturating_sub(x % (2 * ft.extent)),
                    1 => tile_origin + ub + x % (ft.extent - ub + 1),
                    2 => {
                        let s = ft.segs[(x % ft.segs.len() as u64) as usize];
                        tile_origin + s.off as u64 + (x >> 32) % s.len
                    }
                    _ => here + x % (4 * ft.extent),
                };
                let (pos, before) = (c.data_pos(), c.evaluated());
                c.advance_to_file(target);
                let got = (c.evaluated() - before, c.data_pos(), c.file_off());
                assert_eq!(
                    got,
                    scanned_advance(&v, pos, target),
                    "from data byte {pos} to file offset {target}"
                );
            }
        },
    );
}

/// Gather followed by scatter into a fresh buffer restores the data bytes.
#[test]
fn gather_scatter_roundtrip() {
    Runner::new("gather_scatter_roundtrip").run(
        |rng| (dt(rng), draw(rng, 1, 3)),
        |(dt, count)| {
            let f = flatten(dt);
            if f.size == 0 || f.segs.iter().any(|s| s.off < 0) {
                return;
            }
            let m = MemLayout::new(Arc::new(f), *count);
            let span = m.span() as usize;
            let buf: Vec<u8> = (0..span).map(|i| (i % 251) as u8).collect();
            let mut packed = vec![0u8; m.total() as usize];
            m.gather(&buf, 0, &mut packed);
            let mut restored = vec![0u8; span];
            m.scatter(&mut restored, 0, &packed);
            let mut packed2 = vec![0u8; m.total() as usize];
            m.gather(&restored, 0, &mut packed2);
            assert_eq!(packed, packed2);
        },
    );
}

// ---- flexio-pfs -----------------------------------------------------------

#[derive(Debug, Clone)]
struct Op {
    write: bool,
    off: u64,
    len: usize,
}

fn arb_ops(rng: &mut XorShift64Star) -> Vec<Op> {
    (0..draw(rng, 1, 39))
        .map(|_| Op {
            write: draw(rng, 0, 2) == 1,
            off: draw(rng, 0, 600),
            len: draw(rng, 1, 119) as usize,
        })
        .collect()
}

fn cached_cfg() -> PfsConfig {
    PfsConfig { locking: true, client_cache: true, ..PfsConfig::test_tiny() }
}

/// One client's reads and writes against a flat byte array.
fn check_against_reference(cfg: PfsConfig, ops: &[Op]) {
    let pfs = Pfs::new(cfg);
    let h = pfs.open("f", 0);
    let mut reference = vec![0u8; 1024];
    let mut t = 0u64;
    let mut stamp = 1u8;
    for op in ops {
        let span = op.off as usize..op.off as usize + op.len;
        if op.write {
            let data: Vec<u8> = (0..op.len).map(|i| stamp.wrapping_add(i as u8)).collect();
            stamp = stamp.wrapping_add(17);
            t = h.write(t, op.off, &data).unwrap();
            reference[span].copy_from_slice(&data);
        } else {
            let mut buf = vec![0u8; op.len];
            t = h.read(t, op.off, &mut buf).unwrap();
            assert_eq!(buf, &reference[span], "read mismatch at {op:?}");
        }
    }
    assert!(h.close(t).unwrap() >= t);
}

/// The uncached path matches a flat byte-array reference model.
#[test]
fn uncached_matches_reference() {
    Runner::new("uncached_matches_reference")
        .run(arb_ops, |ops| check_against_reference(PfsConfig::test_tiny(), ops));
}

/// The cached and locked path matches the same reference model.
#[test]
fn cached_matches_reference() {
    Runner::new("cached_matches_reference")
        .run(arb_ops, |ops| check_against_reference(cached_cfg(), ops));
}

/// Two clients with disjoint halves, cached: flush order cannot corrupt;
/// the final contents are exact after both close.
#[test]
fn two_client_disjoint_cached() {
    Runner::new("two_client_disjoint_cached").run(
        |rng| draw(rng, 0, 500),
        |&seed| {
            let pfs = Pfs::new(cached_cfg());
            let a = pfs.open("f", 0);
            let b = pfs.open("f", 1);
            // Client 0 owns [0, 512), client 1 owns [512, 1024).
            for i in 0..8u64 {
                let o = (seed + i * 37) % 448;
                a.write(i, o, &[i as u8 + 1; 64]).unwrap();
                b.write(i, 512 + o, &[i as u8 + 101; 64]).unwrap();
            }
            a.close(100).unwrap();
            b.close(100).unwrap();
            let mut buf = vec![0u8; 1024];
            pfs.open("f", 2).read(0, 0, &mut buf).unwrap();
            // Every written byte is one of the stamps of the right half.
            for (i, &v) in buf.iter().enumerate().filter(|&(_, &v)| v != 0) {
                let stamps = if i < 512 { 1..=8 } else { 101..=108 };
                assert!(stamps.contains(&v), "byte {i} = {v}");
            }
        },
    );
}

/// Virtual completion times are monotone in `now`.
#[test]
fn time_monotone() {
    Runner::new("time_monotone").run(
        |rng| (draw(rng, 0, 10_000_000), draw(rng, 1, 199) as usize),
        |&(now, len)| {
            let pfs =
                Pfs::new(PfsConfig { cost: PfsCostModel::default(), ..PfsConfig::test_tiny() });
            let h = pfs.open("f", 0);
            let t = h.write(now, 0, &vec![1u8; len]).unwrap();
            assert!(t > now);
            let t2 = h.read(t, 0, &mut vec![0u8; len]).unwrap();
            assert!(t2 > t);
        },
    );
}

/// The starts a single clock per OST gives `reqs` (`(arrival, duration)`
/// in booking order): each at `max(clock, arrival)`.
fn ratchet_starts(reqs: &[(u64, u64)]) -> Vec<u64> {
    let mut clock = 0;
    reqs.iter()
        .map(|&(a, d)| {
            let start = clock.max(a);
            clock = start + d;
            start
        })
        .collect()
}

/// Book `reqs` on one calendar with fixed durations, checking after each
/// booking that the bookings are sorted, disjoint and never abut, that
/// they cover exactly the durations booked so far, and that the request
/// started at or after its arrival in the first gap that held it.
fn calendar_starts(reqs: &[(u64, u64)]) -> Vec<u64> {
    let mut cal = Calendar::default();
    let mut busy = 0;
    reqs.iter()
        .map(|&(a, d)| {
            // The idle gaps before this booking: from each booking's end
            // (0 for the first) to the next one's start.
            let b = cal.bookings();
            let ends = std::iter::once(0).chain(b.iter().map(|x| x.end));
            let starts = b.iter().map(|x| x.start).chain(std::iter::once(u64::MAX));
            let gaps: Vec<(u64, u64)> = ends.zip(starts).collect();
            let (start, dur) = cal.book(a, (0, 0), |_| d);
            assert_eq!(dur, d);
            assert!(start >= a, "started at {start} before its arrival at {a}");
            for (g0, g1) in gaps {
                let from = g0.max(a);
                assert!(
                    from >= start || g1.saturating_sub(from) < d,
                    "[{from}, {g1}) held {d} ns before {start}"
                );
            }
            busy += d;
            let b = cal.bookings();
            assert!(b.iter().all(|x| x.start < x.end), "{b:?}");
            assert!(
                b.windows(2).all(|w| w[0].end < w[1].start),
                "overlap or abutting bookings: {b:?}"
            );
            assert_eq!(b.iter().map(|x| x.end - x.start).sum::<u64>(), busy, "{b:?}");
            start
        })
        .collect()
}

/// The OST booking calendar starts every request at or after its arrival,
/// in the first gap that holds it and never later than a single clock
/// would, and is the single clock when arrivals never decrease.
#[test]
fn the_calendar_never_starts_later_than_the_ratchet() {
    Runner::new("the_calendar_never_starts_later_than_the_ratchet").run(
        |rng| {
            (0..draw(rng, 1, 40)).map(|_| (draw(rng, 0, 600), draw(rng, 1, 60))).collect::<Vec<_>>()
        },
        |reqs| {
            let (cal, ratchet) = (calendar_starts(reqs), ratchet_starts(reqs));
            for (i, (c, r)) in cal.iter().zip(&ratchet).enumerate() {
                assert!(c <= r, "request {i} starts at {c}, the ratchet's at {r}");
            }
            let mut sorted = reqs.clone();
            sorted.sort_by_key(|&(a, _)| a);
            assert_eq!(calendar_starts(&sorted), ratchet_starts(&sorted));
        },
    );
}

// ---- flexio-core: realm assigners ----------------------------------------

/// `(lo, len, aggregators)`.
fn arb_aar(rng: &mut XorShift64Star, lo: u64, len: u64, aggs: u64) -> (u64, u64, usize) {
    (draw(rng, 0, lo), draw(rng, 1, len), draw(rng, 1, aggs) as usize)
}

fn ctx(lo: u64, len: u64, aggs: usize, alignment: Option<u64>) -> AssignCtx<'static> {
    AssignCtx { aar: (lo, lo + len), n_aggregators: aggs, alignment, clients: &[] }
}

fn check_partition(assigner: &dyn RealmAssigner, ctx: &AssignCtx<'_>) {
    let (name, realms) = (assigner.name(), assigner.assign(ctx));
    assert_eq!(realms.len(), ctx.n_aggregators, "{name}: wrong realm count");
    let (lo, hi) = ctx.aar;
    // Sampled ownership: every AAR byte owned by exactly one realm.
    for off in (lo..hi).step_by((((hi - lo) / 257).max(1)) as usize) {
        let owners = realms.iter().filter(|r| r.owns(off)).count();
        assert_eq!(owners, 1, "{name}: offset {off} owned {owners} times");
    }
    // Coverage accounting.
    let covered: u64 = realms.iter().map(|r| r.owned_between(lo, hi)).sum();
    assert_eq!(covered, hi - lo, "{name}: covered {covered} of {}", hi - lo);
}

/// Every built-in assigner partitions the AAR: full coverage, pairwise-
/// disjoint ownership, for arbitrary regions, aggregator counts and
/// alignments.
#[test]
fn assigners_partition_the_aar() {
    Runner::new("assigners_partition_the_aar").run(
        |rng| {
            let aar = arb_aar(rng, 100_000, 500_000, 11);
            // No alignment, or a power of two in [16, 32768].
            let align = (draw(rng, 0, 2) == 1).then(|| 1u64 << draw(rng, 4, 12));
            (aar, align)
        },
        |&((lo, len, aggs), align)| {
            let ctx = ctx(lo, len, aggs, align);
            check_partition(&EvenAar, &ctx);
            check_partition(&PersistentBlockCyclic, &ctx);
            check_partition(&BalancedLoad, &ctx);
        },
    );
}

/// Persistent realms own every byte of the file, not just the AAR.
#[test]
fn persistent_realms_cover_whole_file() {
    Runner::new("persistent_realms_cover_whole_file").run(
        |rng| (arb_aar(rng, 10_000, 100_000, 7), draw(rng, 0, 1_000_000)),
        |&((lo, len, aggs), probe)| {
            let realms = PersistentBlockCyclic.assign(&ctx(lo, len, aggs, None));
            let owners = realms.iter().filter(|r| r.owns(probe)).count();
            assert_eq!(owners, 1, "byte {probe} owned {owners} times");
        },
    );
}

/// Realm segments reconstruct exactly the owned byte count.
#[test]
fn realm_segments_consistent() {
    Runner::new("realm_segments_consistent").run(
        |rng| arb_aar(rng, 1000, 10_000, 5),
        |&(lo, len, aggs)| {
            for r in PersistentBlockCyclic.assign(&ctx(lo, len, aggs, None)) {
                let (d0, d1) = (r.data_lower(lo), r.data_lower(lo + len));
                let segs = r.segments(d0, d1);
                assert_eq!(segs.iter().map(|(_, l)| l).sum::<u64>(), d1 - d0);
                // Sorted, disjoint.
                assert!(segs.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0));
            }
        },
    );
}

/// A plugged-in assigner that breaks its contract: the even split with
/// the first realm's second half left unowned, one realm short, the
/// whole region for every aggregator, or block-cyclic tiled realms whose
/// first realm gives up the second half of its block and takes as many
/// bytes of the second realm's block instead — an overlap that exactly
/// cancels a gap, so the bytes owned in the region still sum to its
/// length.
#[derive(Debug, Clone, Copy)]
enum Broken {
    Gap,
    TooFew,
    AllOwnAll,
    TiledOverlapCancelsGap,
}

impl RealmAssigner for Broken {
    fn assign(&self, ctx: &AssignCtx<'_>) -> Vec<FileRealm> {
        let (lo, hi) = ctx.aar;
        let mut realms = EvenAar.assign(ctx);
        match self {
            Broken::Gap => {
                let first = (hi - lo) / ctx.n_aggregators as u64;
                realms[0] = FileRealm::contiguous(lo, lo + first / 2);
            }
            Broken::TooFew => drop(realms.pop()),
            Broken::AllOwnAll => realms.fill(FileRealm::contiguous(lo, hi)),
            Broken::TiledOverlapCancelsGap => {
                let n = ctx.n_aggregators as u64;
                let block = (hi - lo).div_ceil(n);
                let half = block / 2;
                let tiled = |segs, at| {
                    FileRealm::tiled(Arc::new(FlatType::from_segs(segs, 0, block * n)), at)
                };
                realms = (0..n).map(|i| tiled(vec![Seg::new(0, block)], lo + i * block)).collect();
                realms[0] =
                    tiled(vec![Seg::new(0, half), Seg::new(block as i64, block - half)], lo);
            }
        }
        realms
    }

    fn name(&self) -> &'static str {
        "broken"
    }
}

/// A plugged-in assigner is held to its contract. Each broken kind, on a
/// tiled write and on a tiled read of a populated file, fails every
/// rank's call with the same `BadHints` and leaves the image and the read
/// buffers untouched; the built-in assigners, plugged in, run a generated
/// workload to the oracle's image and read-backs.
#[test]
fn plugged_assigners_keep_the_contract() {
    Runner::new("plugged_assigners_keep_the_contract").run(
        |rng| {
            let nprocs = draw(rng, 2, 5) as usize;
            let aggs = draw(rng, 2, nprocs as u64 - 1) as usize;
            let (block, reps) = (8 * draw(rng, 1, 8), draw(rng, 1, 8));
            (TiledShape { nprocs, block, reps, steps: 1 }, aggs, generate(rng))
        },
        |(shape, aggs, spec)| {
            for broken in
                [Broken::Gap, Broken::TooFew, Broken::AllOwnAll, Broken::TiledOverlapCancelsGap]
            {
                for read in [false, true] {
                    let pfs = Pfs::new(PfsConfig::default());
                    run_tiled(&pfs, "f", *shape, &Hints::default(), false);
                    let before = read_file(&pfs, "f");
                    let hints = Hints {
                        cb_nodes: Some(*aggs),
                        realm_assigner: Some(Arc::new(broken)),
                        ..Hints::default()
                    };
                    // Two writes (the second replays the failed schedule),
                    // or one read.
                    let steps = if read { 0 } else { 2 };
                    let out = run_tiled(&pfs, "f", TiledShape { steps, ..*shape }, &hints, read);
                    for (r, outcomes) in out.outcomes.iter().enumerate() {
                        let bad = outcomes.iter().all(|o| matches!(o, Err(IoError::BadHints(_))));
                        assert!(bad, "{broken:?}, read {read}: rank {r} got {outcomes:?}");
                        assert_eq!(outcomes, &out.outcomes[0], "{broken:?}: rank {r} disagrees");
                    }
                    // The bytes owned sum to the region's length: only the
                    // period check sees the overlap.
                    if let Broken::TiledOverlapCancelsGap = broken {
                        let rule = &out.outcomes[0][0];
                        let period =
                            matches!(rule, Err(IoError::BadHints(m)) if m.contains("period"));
                        assert!(period, "read {read}: {rule:?}");
                    }
                    assert!(read_file(&pfs, "f") == before, "{broken:?}, read {read}: bytes moved");
                    let filled = out.read_backs.iter().flatten().any(|&b| b != 0);
                    assert!(!filled, "{broken:?}: a failed read filled its buffer");
                }
            }
            let oracle = Oracle::from_spec(spec);
            for (name, assigner) in [
                ("even-aar", Arc::new(EvenAar) as Arc<dyn RealmAssigner>),
                ("balanced-load", Arc::new(BalancedLoad)),
                ("persistent-block-cyclic", Arc::new(PersistentBlockCyclic)),
            ] {
                let pfs = Pfs::new(PfsConfig::default());
                for phase in &spec.phases {
                    let hints = Hints {
                        realm_assigner: Some(Arc::clone(&assigner)),
                        ..spec.hints(phase, Engine::Flexible)
                    };
                    let out = run_phase(&pfs, phase, &hints);
                    assert!(out.err().is_none(), "{name}: {:?}", out.err());
                    if phase.op == PhaseOp::Read {
                        for (r, plan) in phase.plans.iter().enumerate() {
                            let want = oracle.expected_read(plan);
                            assert_eq!(out.read_backs[r], want, "{name}: rank {r} read-back");
                        }
                    }
                }
                assert!(eq_padded(&read_file(&pfs, "workload"), oracle.image()), "{name}: image");
            }
        },
    );
}
