//! Exchange schedules for the flexible engine: derived once per world,
//! viewed per rank, cached per file.
//!
//! Deriving a collective call's data-movement plan — per-aggregator
//! windows, and for every `(client, aggregator, cycle)` the pieces of the
//! client's access inside the aggregator's window — is pure computation
//! over the participants' flattened filetypes and the realm set, and every
//! rank computes it from the same allgathered wires. In the paper each
//! process pays that computation itself (§5.3), and each simulated rank is
//! still *charged* for it pair by pair; on the host it is computed once
//! per world (`Derivation`, shared through [`Rank::shared_once`]) and
//! each rank's [`ExchangeSchedule`] is a sparse view of it: the rank's
//! row (its pieces per aggregator) plus, if it aggregates, its column
//! (every client's pieces in its window).
//!
//! Under persistent file realms (§5.2/§6.4) and any timestep-loop workload
//! the inputs repeat call after call, so a rank also keeps its last
//! schedule on [`crate::file::MpiFile`], keyed by a digest of everything
//! it depends on; on a hit the engine skips derivation (and its charges)
//! entirely and replays the schedule against the fresh user buffer. That
//! cache is always on; `set_view` and `set_hints` drop it, and hits and
//! misses are counted in [`flexio_sim::Stats`].

use crate::engine::common::ClientStream;
use crate::hints::{aggregator_ranks, Hints};
use crate::meta::ClientAccess;
use crate::realm::{
    broken_rule, AssignCtx, EvenAar, FileRealm, PersistentBlockCyclic, RealmAssigner, RealmSet,
};
use flexio_pfs::PfsConfig;
use flexio_sim::{GatherTable, Rank};
use flexio_types::Piece;
use std::ops::Range;
use std::sync::Arc;

/// Offset/length pairs charged for probing the cache on a hit. The probe
/// is a single digest comparison, far cheaper than re-deriving the
/// schedule; one pair keeps it visible in the cost model without drowning
/// the savings.
pub const PROBE_PAIRS: u64 = 1;

/// One non-empty `(client, aggregator)` intersection of a buffer cycle:
/// where its pieces sit in the cycle's piece arena.
#[derive(Clone)]
struct Cell {
    client: usize,
    agg: usize,
    pieces: Range<usize>,
}

/// The non-empty cells of one cycle grouped by a major index (client for
/// rows, aggregator for columns), minor index ascending within a group.
#[derive(Default)]
struct Sparse {
    cells: Vec<Cell>,
    /// `cells[start[i]..start[i + 1]]` is group `i`.
    start: Vec<usize>,
}

impl Sparse {
    /// Index `cells`, already sorted by `major`, into `n` groups.
    fn new(cells: Vec<Cell>, n: usize, major: impl Fn(&Cell) -> usize) -> Sparse {
        let start = group_starts(&cells, n, &major);
        Sparse { cells, start }
    }

    /// The same cells in `n` groups by another major index: a counting
    /// sort, so within a group they keep their order here.
    fn regroup(&self, n: usize, major: impl Fn(&Cell) -> usize) -> Sparse {
        let start = group_starts(&self.cells, n, &major);
        let mut at = start.clone();
        let mut cells = self.cells.clone();
        for c in &self.cells {
            let g = major(c);
            cells[at[g]] = c.clone();
            at[g] += 1;
        }
        Sparse { cells, start }
    }

    fn group(&self, i: usize) -> &[Cell] {
        &self.cells[self.start[i]..self.start[i + 1]]
    }
}

/// Where each of `n` groups starts in `cells` ordered by `major`, and the
/// end of the last.
fn group_starts(cells: &[Cell], n: usize, major: impl Fn(&Cell) -> usize) -> Vec<usize> {
    let mut start = vec![0usize; n + 1];
    for c in cells {
        start[major(c) + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    start
}

std::thread_local! {
    /// Window walks [`Derivation::new`] has made on this thread.
    static WINDOW_WALKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Window walks the schedule derivations run on this thread have made,
/// summed: each is one `(client, aggregator, cycle)` cell walked through
/// its window, where the cells a derivation charges by the run cost none.
/// A function of the workload; `bench host --check` pins it.
pub fn derivation_window_walks() -> u64 {
    WINDOW_WALKS.with(std::cell::Cell::get)
}

/// Where an aggregator's windows lie: from the start of its natural
/// window 0 to its last window's end.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Span {
    start: u64,
    end: u64,
    agg: usize,
}

/// Every aggregator's span, sorted, if no two overlap (per-call contiguous
/// realms, for one): a client's gap then holds a run of whole spans, and
/// the derivation charges their empty cells by the run. `None` if two
/// spans overlap or an aggregator's natural window 0 is empty while a
/// later one is not. `windows[a][k]` is aggregator `a`'s natural window
/// `k`.
fn disjoint_spans(windows: &[Vec<Vec<(u64, u64)>>], reach: &[Vec<u64>]) -> Option<Vec<Span>> {
    let mut spans = Vec::with_capacity(reach.len());
    for (agg, (windows, reach)) in windows.iter().zip(reach).enumerate() {
        let end = reach.last().copied().unwrap_or(0);
        match windows.first()?.first() {
            Some(&(start, _)) => spans.push(Span { start, end, agg }),
            // No window in any cycle: a walk never reaches it.
            None if end == 0 => {}
            None => return None,
        }
    }
    spans.sort_unstable();
    spans.windows(2).all(|w| w[0].end <= w[1].start).then_some(spans)
}

/// Buffer cycles a call over the aggregate access region `[lo, hi)` runs
/// with `realms`: the most `cb`-byte windows one realm's bytes inside the
/// region fill.
fn buffer_cycles(realms: &[FileRealm], (lo, hi): (u64, u64), cb: u64) -> u64 {
    realms.iter().map(|r| (r.data_lower(hi) - r.data_lower(lo)).div_ceil(cb)).max().unwrap_or(0)
}

/// Per-call realms when no alignment is hinted and no assigner is plugged
/// in (DESIGN "Stripe-aligned realms when the hint is unset"): [`EvenAar`]
/// aligned to the file's `stripe`, so that each aggregator keeps to whole
/// stripes, if the region spans at least a stripe per aggregator and the
/// aligned realms need no more `cb`-byte buffer cycles than the even
/// split; otherwise the even split.
fn stripe_aligned_or_even(ctx: &AssignCtx<'_>, stripe: u64, cb: u64) -> Vec<FileRealm> {
    let (lo, hi) = ctx.aar;
    let even = EvenAar.assign(ctx);
    if (lo - lo % stripe).saturating_add((ctx.n_aggregators as u64).saturating_mul(stripe)) > hi {
        return even;
    }
    let aligned = EvenAar.assign(&AssignCtx { alignment: Some(stripe), ..*ctx });
    if buffer_cycles(&aligned, ctx.aar, cb) <= buffer_cycles(&even, ctx.aar, cb) {
        aligned
    } else {
        even
    }
}

/// Add the bytes each OST of `layout` holds of one aggregator's natural
/// windows to `out[k * n_osts + o]`.
fn add_window_bytes(layout: &PfsConfig, windows: &[Vec<(u64, u64)>], out: &mut [u64]) {
    let n = layout.n_osts;
    for (k, window) in windows.iter().enumerate() {
        for &(off, len) in window {
            layout.add_ost_bytes(off, len, &mut out[k * n..(k + 1) * n]);
        }
    }
}

/// The most steps ([`greedy_offsets`]: `n_agg · ntimes² · n_osts`) a
/// derivation spends choosing its cycle order, some 60 ms of host time;
/// a call that would need more keeps file order. The costliest call any
/// experiment or workload here weighs needs 4 096 576 (A3's 8-aggregator
/// `balanced-load` world at `--paper`); its 16-aggregator world would
/// need 32 643 200 and keeps file order either way. Without a budget a
/// call of thousands of cycles would spend seconds on it.
const MAX_ORDER_STEPS: u64 = 1 << 24;

/// The cycle that runs natural window `k` of an aggregator whose cycle
/// offset is `s`, of `ntimes` cycles.
fn cycle_of(k: usize, s: usize, ntimes: usize) -> usize {
    (k + ntimes - s) % ntimes
}

/// Each aggregator's cycle offset `s_a`: its natural window `k` runs in
/// cycle `(k − s_a) mod ntimes` ([`cycle_of`]). All zeros is file order.
///
/// The rule (DESIGN "Buffer-cycle order across OSTs"): [`greedy_offsets`],
/// adopted only if they cut file order's `Σ_t max_o bytes(t, o)` by at
/// least a quarter. Below that the order decides lock-expansion and
/// queue-order lotteries more than the per-cycle peak it lowers.
fn cycle_offsets(windows: &[Vec<Vec<(u64, u64)>>], layout: &PfsConfig) -> Vec<usize> {
    let n = layout.n_osts;
    let mut file = vec![0u64; windows.first().map_or(0, Vec::len) * n];
    windows.iter().for_each(|w| add_window_bytes(layout, w, &mut file));
    let (offsets, greedy_sum) = greedy_offsets(windows, layout);
    if 4 * greedy_sum <= 3 * peak_sum(&file, n) {
        offsets
    } else {
        vec![0; windows.len()]
    }
}

/// The aggregators, in index order, each take the cycle offset that
/// minimises `Σ_t max_o bytes(t, o)`, where `bytes(t, o)` is what the
/// windows of the aggregators placed so far put on OST `o` in cycle `t`;
/// a tie keeps the smaller offset. Returns the offsets and that sum under
/// them. `windows[a][k]` is aggregator `a`'s natural window `k`; every
/// aggregator has `ntimes` of them. Host cost O(n_agg · ntimes² ·
/// n_osts), in O(ntimes · n_osts) memory.
fn greedy_offsets(windows: &[Vec<Vec<(u64, u64)>>], layout: &PfsConfig) -> (Vec<usize>, u128) {
    let ntimes = windows.first().map_or(0, Vec::len);
    let n = layout.n_osts;
    // `[k * n + o]`: bytes on OST `o` of one aggregator's natural window
    // `k`, and of cycle `k` summed over the aggregators placed so far.
    let (mut load, mut placed) = (vec![0u64; ntimes * n], vec![0u64; ntimes * n]);
    let mut offsets = vec![0usize; windows.len()];
    for (a, windows) in windows.iter().enumerate() {
        load.fill(0);
        add_window_bytes(layout, windows, &mut load);
        // Cycle `t` runs natural window `(t + s) mod ntimes`.
        let at = |t: usize, s: usize| (t * n, (t + s) % ntimes * n);
        let cost = |s: usize| -> u64 {
            (0..ntimes)
                .map(|t| {
                    let (p, l) = at(t, s);
                    (0..n).map(|o| placed[p + o] + load[l + o]).max().unwrap_or(0)
                })
                .sum()
        };
        let s = (0..ntimes).min_by_key(|&s| cost(s)).unwrap_or(0);
        for t in 0..ntimes {
            let (p, l) = at(t, s);
            (0..n).for_each(|o| placed[p + o] += load[l + o]);
        }
        offsets[a] = s;
    }
    (offsets, peak_sum(&placed, n))
}

/// `Σ_t max_o bytes[t * n + o]`.
fn peak_sum(bytes: &[u64], n: usize) -> u128 {
    bytes.chunks(n).map(|c| u128::from(c.iter().copied().max().unwrap_or(0))).sum()
}

/// One buffer cycle of a [`Derivation`].
struct DerivedCycle {
    /// The window (file segments) each aggregator moves in this cycle, by
    /// aggregator: its natural window `(t + s_a) mod ntimes`
    /// ([`Derivation::offsets`]).
    windows: Vec<Vec<(u64, u64)>>,
    /// Pairs evaluated cutting the windows; every rank cuts them all.
    window_pairs: u64,
    /// Pairs client `c` evaluates walking its stream through every
    /// aggregator's window, by client.
    row_pairs: Vec<u64>,
    /// Pairs aggregator `a` evaluates walking every client's stream
    /// through its window, by aggregator.
    col_pairs: Vec<u64>,
    /// Piece arena the cells index.
    pieces: Vec<Piece>,
    rows: Sparse,
    cols: Sparse,
}

/// The complete exchange plan of one collective call, for every rank: the
/// table whose row and column each rank reads. A pure
/// function of the allgathered wires, the hints digested into its key
/// ([`shared_key`]), and the realm set; shared by every rank of the world
/// that derives from the same inputs while any of them still holds it.
pub(crate) struct Derivation {
    agg_ranks: Vec<usize>,
    parse_pairs: u64,
    cycles: Vec<DerivedCycle>,
    /// Each aggregator's cycle offset ([`cycle_offsets`]): its natural
    /// window `k` runs in cycle `(k − offsets[a]) mod ntimes`. All zeros
    /// is file order.
    offsets: Vec<usize>,
    /// Empty cells charged by the run instead of walked: host work saved,
    /// no pair moved.
    run_cells: u64,
    /// The persistent realm set this plan was cut against (`None` without
    /// `persistent_file_realms`, or when every access was empty).
    pfr: Option<Arc<RealmSet>>,
    /// Keeps a plugged-in assigner's address — part of the key — from
    /// being reused by another assigner while this derivation lives.
    _assigner: Option<Arc<dyn RealmAssigner>>,
    /// The rule of the [`RealmAssigner`] contract the realm set breaks, if
    /// any: every rank's call fails with it, and the plan is empty.
    bad_realms: Option<&'static str>,
}

impl Derivation {
    /// Derive the plan for a file on a file system laid out `layout`: its
    /// stripes are what default realms align to and the cycle order
    /// spreads. `pfr` is the file's persistent realm set, if one exists
    /// already; with `persistent_file_realms` and none yet, the set
    /// assigned here is kept in the result for the file to adopt.
    /// Per-call realms with no alignment hinted and no assigner plugged in
    /// are cut by [`stripe_aligned_or_even`].
    ///
    /// Each aggregator's realm is cut into `cb_buffer_size` windows in file
    /// order, its natural windows; [`cycle_offsets`] then picks the cycle
    /// each runs in, so that one cycle's windows spread over the OSTs.
    /// Persistent realms keep file order, and so does a region inside one
    /// stripe or on one OST: there is nothing to spread.
    ///
    /// Host cost: each wire is parsed once, each aggregator's window cut
    /// once per cycle, and each `(client, aggregator)` stream walked once,
    /// in natural window order, through only the windows that reach past
    /// its next byte —
    /// the client's and the aggregator's view of a stream are the same
    /// walk (`from_wire(to_wire(access))` flattens to the same type), so
    /// one walk yields both what client `c` and what aggregator `a` are
    /// charged for it. A pair costs no seek (the stream rewinds to a start
    /// computed once per client) and no search for its first cycle unless
    /// the stream has outrun it; a window that holds none of the stream's
    /// bytes — nearly every one at `fine-512`'s shape — is charged in
    /// closed form, one O(log D) skip per window segment. When the
    /// aggregators' spans are disjoint ([`disjoint_spans`]), the empty cells
    /// between two of a client's bytes are not walked at all: a run of
    /// them shares one skip's charge ([`ClientStream::empty_run`]), added
    /// k times to the client's row and once per aggregator through a
    /// difference array over the sorted spans. The columns are the rows
    /// regrouped by a counting sort.
    fn new(
        wires: impl IntoIterator<Item = impl AsRef<[u8]>>,
        hints: &Hints,
        pfr: Option<&Arc<RealmSet>>,
        layout: &PfsConfig,
    ) -> Derivation {
        let clients: Vec<ClientAccess> =
            wires.into_iter().map(|w| ClientAccess::from_wire(w.as_ref())).collect();
        let nprocs = clients.len();
        let parse_pairs: u64 = clients.iter().map(|c| c.view.d() as u64).sum();
        let mut out = Derivation {
            agg_ranks: Vec::new(),
            parse_pairs,
            cycles: Vec::new(),
            offsets: Vec::new(),
            run_cells: 0,
            pfr: None,
            _assigner: hints.realm_assigner.clone(),
            bad_realms: None,
        };

        // ---- aggregate access region ------------------------------------
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for c in &clients {
            if let Some((a, b)) = c.file_range() {
                lo = lo.min(a);
                hi = hi.max(b);
            }
        }
        if hi <= lo {
            // Every rank's access is empty; all agree. An empty schedule
            // is cached too, so repeated empty calls hit.
            return out;
        }

        // ---- realm assignment -------------------------------------------
        let n_agg = hints.aggregators(nprocs);
        out.agg_ranks = aggregator_ranks(n_agg, nprocs);
        let cb = hints.cb_buffer_size as u64;
        let ctx = AssignCtx {
            aar: (lo, hi),
            n_aggregators: n_agg,
            alignment: hints.fr_alignment,
            clients: &clients,
        };
        let assign = |default: &dyn RealmAssigner| match &hints.realm_assigner {
            Some(a) => a.assign(&ctx),
            None => default.assign(&ctx),
        };
        let computed: Vec<FileRealm>;
        let realms: &[FileRealm] = if hints.persistent_file_realms {
            let set = match pfr {
                Some(set) => Arc::clone(set),
                None => Arc::new(RealmSet::new(assign(&PersistentBlockCyclic))),
            };
            &out.pfr.insert(set).realms
        } else {
            computed = match (&hints.realm_assigner, hints.fr_alignment) {
                (None, None) => stripe_aligned_or_even(&ctx, layout.stripe_size, cb),
                _ => assign(&EvenAar),
            };
            &computed
        };
        out.bad_realms = broken_rule(realms, n_agg, (lo, hi));
        if out.bad_realms.is_some() {
            out.pfr = None;
            return out;
        }

        // ---- windows: every aggregator's, in file order ---------------------
        let data: Vec<(u64, u64)> =
            realms.iter().map(|r| (r.data_lower(lo), r.data_lower(hi))).collect();
        let ntimes = buffer_cycles(realms, (lo, hi), cb);
        // `windows[a][k]`: aggregator `a`'s natural window `k`.
        let windows: Vec<Vec<Vec<(u64, u64)>>> = (realms.iter().zip(&data))
            .map(|(realm, &(base, cap))| {
                let cut = |k: u64| realm.segments(base + k * cb, (base + (k + 1) * cb).min(cap));
                (0..ntimes).map(cut).collect()
            })
            .collect();
        // `reach[a][k]`: the furthest file offset aggregator `a`'s natural
        // windows reach by window `k`, non-decreasing in `k`.
        let reach: Vec<Vec<u64>> = (windows.iter())
            .map(|windows| {
                let mut end = 0;
                let ends = windows.iter().map(|w| {
                    if let Some(&(s, l)) = w.last() {
                        end = end.max(s + l);
                    }
                    end
                });
                ends.collect()
            })
            .collect();
        let spans = disjoint_spans(&windows, &reach);

        // ---- cycles: the natural windows in an OST-aware order --------------
        let one_stripe = lo / layout.stripe_size == (hi - 1) / layout.stripe_size;
        let steps = (n_agg as u64)
            .saturating_mul(ntimes.saturating_mul(ntimes))
            .saturating_mul(layout.n_osts as u64);
        let file_order =
            hints.persistent_file_realms || ntimes <= 1 || layout.n_osts <= 1 || one_stripe;
        out.offsets = if file_order || steps > MAX_ORDER_STEPS {
            vec![0; n_agg]
        } else {
            cycle_offsets(&windows, layout)
        };
        let ntimes = ntimes as usize;
        let reordered = out.offsets.iter().any(|&s| s > 0);
        let offsets = &out.offsets;
        let cycle = |a: usize, k: usize| cycle_of(k, offsets[a], ntimes);
        let mut cycles: Vec<DerivedCycle> = (0..ntimes)
            .map(|_| DerivedCycle {
                windows: vec![Vec::new(); n_agg],
                window_pairs: 0,
                row_pairs: vec![0; nprocs],
                col_pairs: vec![0; n_agg],
                pieces: Vec::new(),
                rows: Sparse::default(),
                cols: Sparse::default(),
            })
            .collect();
        for (a, windows) in windows.into_iter().enumerate() {
            for (k, window) in windows.into_iter().enumerate() {
                let cyc = &mut cycles[cycle(a, k)];
                cyc.window_pairs += window.len() as u64;
                cyc.windows[a] = window;
            }
        }

        // ---- streams: one per client, rewound for each aggregator ----------
        // Client-major, so every cycle's cells come out sorted by (client,
        // aggregator). A stream walks its aggregator's natural windows in
        // file order, and each cell lands in the cycle that runs its
        // window. A window that ends at or below the stream's next byte is
        // skipped: walking it would charge nothing, yield nothing and leave
        // the stream where it is. The next window is tested first and the
        // last reach second; only a stream that outruns the next window but
        // not the last searches for the window to walk.
        let mut cells: Vec<Vec<Cell>> = vec![Vec::new(); cycles.len()];
        let mut walks = 0u64;
        let mut walk =
            |c: usize, a: usize, stream: &mut ClientStream, cycles: &mut [DerivedCycle]| {
                stream.rewind();
                let reach = &reach[a];
                let last = reach.last().copied().unwrap_or(0);
                let mut k = 0;
                while k < cycles.len() {
                    let next = stream.next_off();
                    if reach[k] <= next {
                        if last <= next {
                            break;
                        }
                        k += reach[k..].partition_point(|&end| end <= next);
                    }
                    let t = cycle(a, k);
                    let cyc = &mut cycles[t];
                    let from = cyc.pieces.len();
                    let charged = stream.take_window_into(&cyc.windows[a], &mut cyc.pieces);
                    walks += 1;
                    cyc.row_pairs[c] += charged;
                    cyc.col_pairs[a] += charged;
                    if cyc.pieces.len() > from {
                        cells[t].push(Cell { client: c, agg: a, pieces: from..cyc.pieces.len() });
                    }
                    k += 1;
                }
            };
        // With the aggregators' spans disjoint and sorted, the spans that
        // end at or below a client's first byte charge it nothing, and of
        // the spans starting in one `empty_run` range all but perhaps the
        // last end at or below the run's next byte: each is empty in every
        // cycle — its first walk is natural window 0's, charged the run's
        // charge in the cycle that runs that window, and leaves the stream
        // past its last window. The rest (a span holding the client's first
        // byte or a run's last span) are walked, in aggregator order, as
        // the walk of every pair had them.
        let mut col_diff = vec![0u64; spans.as_ref().map_or(0, |s| s.len() + 1)];
        let mut one_by_one: Vec<usize> = Vec::new();
        for (c, access) in clients.into_iter().enumerate() {
            if access.data_len == 0 {
                continue;
            }
            let mut stream = ClientStream::new(access);
            let Some(spans) = &spans else {
                for a in 0..n_agg {
                    walk(c, a, &mut stream, &mut cycles);
                }
                continue;
            };
            let first = stream.next_off();
            one_by_one.clear();
            let mut i = spans.partition_point(|s| s.end <= first);
            while i < spans.len() {
                let run =
                    (spans[i].start > first).then(|| stream.empty_run(spans[i].start)).flatten();
                let Some(run) = run else {
                    one_by_one.push(spans[i].agg);
                    i += 1;
                    continue;
                };
                let to = i + spans[i..].partition_point(|s| s.start < run.until);
                // Only the last span of the run can reach past `run.next`.
                let empty = if spans[to - 1].end > run.next {
                    one_by_one.push(spans[to - 1].agg);
                    to - 1
                } else {
                    to
                };
                out.run_cells += (empty - i) as u64;
                if reordered {
                    for span in &spans[i..empty] {
                        cycles[cycle(span.agg, 0)].row_pairs[c] += run.charge;
                    }
                } else {
                    // In file order every span's window 0 runs in cycle 0:
                    // one multiply for the run. Walking its spans instead
                    // raised `fine-512`'s `host_ratio` by about 4 % (six
                    // seeds, 2-vCPU box), where a client's runs cover some
                    // 230 of its 256 aggregators.
                    cycles[0].row_pairs[c] += (empty - i) as u64 * run.charge;
                }
                col_diff[i] = col_diff[i].wrapping_add(run.charge);
                col_diff[empty] = col_diff[empty].wrapping_sub(run.charge);
                i = to;
            }
            one_by_one.sort_unstable();
            for &a in &one_by_one {
                walk(c, a, &mut stream, &mut cycles);
            }
        }
        if let Some(spans) = &spans {
            let mut charge = 0u64;
            for (span, &d) in spans.iter().zip(&col_diff) {
                charge = charge.wrapping_add(d);
                cycles[cycle(span.agg, 0)].col_pairs[span.agg] += charge;
            }
        }
        WINDOW_WALKS.with(|w| w.set(w.get() + walks));
        for (cyc, rows) in cycles.iter_mut().zip(cells) {
            cyc.rows = Sparse::new(rows, nprocs, |c| c.client);
            cyc.cols = cyc.rows.regroup(n_agg, |c| c.agg);
        }
        out.cycles = cycles;
        out
    }
}

/// One rank's exchange schedule for a collective call, reusable while its
/// key matches: a view of the world's shared `Derivation` from this
/// rank's seat.
#[derive(Clone)]
pub struct ExchangeSchedule {
    /// Digest of the inputs the schedule was derived from: every rank's
    /// wire metadata, the world size and the hints that shape realms and
    /// cycles.
    pub key: u64,
    derived: Arc<Derivation>,
    /// This rank's communicator-relative id (its client row).
    me: usize,
    /// This rank's aggregator index (its column), if it aggregates.
    my_agg: Option<usize>,
}

impl ExchangeSchedule {
    /// Rank `me`'s view of `derived`.
    fn view(key: u64, derived: Arc<Derivation>, me: usize) -> ExchangeSchedule {
        let my_agg = derived.agg_ranks.iter().position(|&r| r == me);
        ExchangeSchedule { key, derived, me, my_agg }
    }

    /// The schedule of `rank` for a call whose allgathered metadata is
    /// `wires` and whose key ([`shared_key`]) is `key`, on a file system
    /// laid out `layout`, derived at most once per world, realm set and
    /// striping.
    /// `pfr` is the file's persistent realm state: read to select the
    /// realm set, and (under `persistent_file_realms`) left holding the
    /// world-shared set the schedule was cut against.
    pub(crate) fn shared(
        rank: &Rank,
        wires: &GatherTable,
        key: u64,
        hints: &Hints,
        pfr: &mut Option<Arc<RealmSet>>,
        layout: &PfsConfig,
    ) -> ExchangeSchedule {
        // The realm set is not a function of the key once it persists
        // (first call's region, later rebalances), so it keys the cell too;
        // so does the striping, which picks the cycle order: two files
        // striped differently may be viewed alike in one world.
        let fingerprint = pfr.as_ref().map_or(0, |set| set.fingerprint);
        let cell = (Digest::new().u64(key).u64(fingerprint))
            .u64(layout.stripe_size)
            .u64(layout.n_osts as u64)
            .finish();
        let derived =
            rank.shared_once(cell, || Derivation::new(wires.iter(), hints, pfr.as_ref(), layout));
        if hints.persistent_file_realms && derived.pfr.is_some() {
            pfr.clone_from(&derived.pfr);
        }
        ExchangeSchedule::view(key, derived, rank.rank())
    }

    /// Number of world-shared derivations alive in `rank`'s world: viewed
    /// by a schedule, or pinned for a member that has not taken its view
    /// yet (a residency probe for tests).
    pub fn derivations_live(rank: &Rank) -> usize {
        rank.shared_live_of::<Derivation>()
    }

    /// The rule of the realm contract this plan's realm set broke, if any.
    pub(crate) fn bad_realms(&self) -> Option<&'static str> {
        self.derived.bad_realms
    }

    /// Aggregator ranks, in aggregator order.
    pub fn agg_ranks(&self) -> &[usize] {
        &self.derived.agg_ranks
    }

    /// Number of buffer cycles.
    pub fn n_cycles(&self) -> usize {
        self.derived.cycles.len()
    }

    /// Pairs evaluated parsing every rank's wire metadata, charged before
    /// the first cycle on a miss (see [`CycleSchedule::pairs`]).
    pub fn parse_pairs(&self) -> u64 {
        self.derived.parse_pairs
    }

    /// Cycle `i`'s plan for this rank.
    pub fn cycle(&self, i: usize) -> CycleSchedule<'_> {
        CycleSchedule { cyc: &self.derived.cycles[i], me: self.me, my_agg: self.my_agg }
    }

    /// Every cycle's plan, in cycle order.
    pub fn cycles(&self) -> impl Iterator<Item = CycleSchedule<'_>> {
        (0..self.n_cycles()).map(|i| self.cycle(i))
    }
}

/// One buffer cycle's pre-derived data movement, from one rank's seat.
#[derive(Clone, Copy)]
pub struct CycleSchedule<'a> {
    cyc: &'a DerivedCycle,
    me: usize,
    my_agg: Option<usize>,
}

impl<'a> CycleSchedule<'a> {
    /// This rank's aggregator window (file segments), empty for pure
    /// clients or idle cycles.
    pub fn my_window(&self) -> &'a [(u64, u64)] {
        match self.my_agg {
            Some(a) => &self.cyc.windows[a],
            None => &[],
        }
    }

    /// This rank's pieces inside each aggregator's window (client role):
    /// `(aggregator index, pieces)` for the aggregators that hold any, in
    /// aggregator order.
    pub fn my_pieces(&self) -> impl Iterator<Item = (usize, &'a [Piece])> + 'a {
        let cyc = self.cyc;
        cyc.rows.group(self.me).iter().map(move |c| (c.agg, &cyc.pieces[c.pieces.clone()]))
    }

    /// Every client's pieces inside this rank's window (aggregator role):
    /// `(client, pieces)` for the clients that have any, in client order;
    /// nothing for pure clients.
    pub fn agg_pieces(&self) -> impl Iterator<Item = (usize, &'a [Piece])> + 'a {
        let cyc = self.cyc;
        let cells = self.my_agg.map_or(&[][..], |a| cyc.cols.group(a));
        cells.iter().map(move |c| (c.client, &cyc.pieces[c.pieces.clone()]))
    }

    /// Offset/length pairs this rank's derivation of the cycle evaluates:
    /// the window cuts, its own stream against every aggregator's window,
    /// and (aggregators) every client's stream against its window. Charged
    /// at the top of the cycle on a miss, where the walk falls, so every
    /// send and file request sees the clock a fresh derivation reaches it
    /// at. Skipped entirely on a hit.
    pub fn pairs(&self) -> u64 {
        self.cyc.window_pairs
            + self.cyc.row_pairs[self.me]
            + self.my_agg.map_or(0, |a| self.cyc.col_pairs[a])
    }
}

/// Multiply-rotate digest over 8-byte words, used instead of `std::hash`
/// so the digest is stable across runs and platforms (no per-process
/// `RandomState`), which keeps hit/miss traces reproducible. Only
/// equality of digests is ever observed.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// Start a new digest.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb raw bytes: little-endian 8-byte words, then the tail byte
    /// by byte. Not self-delimiting — callers length-prefix.
    pub fn bytes(mut self, data: &[u8]) -> Self {
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            self = self.u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self = self.u64(u64::from(b));
        }
        self
    }

    /// Absorb one u64 (length-prefixing and field separation).
    pub fn u64(self, v: u64) -> Self {
        // The rotate folds the multiply's well-mixed high bits back down,
        // so a word's high bits reach the whole state by the next word.
        Digest((self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29))
    }

    /// Finish.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

/// The schedule key of the call whose metadata round is `wires`: a digest
/// of everything the schedule derivation reads — every rank's wire
/// metadata (filetype + displacement + access range, which also pins the
/// aggregate access region), the world size, and the hints that shape
/// realms and cycles. The realm set itself is a deterministic function of
/// these inputs, plus the custom assigner's identity when one is plugged
/// in. The wires — all of the key's work that grows with the world — are
/// digested once per world: by the first member to ask, in a cell keyed
/// by the round's identity, read by the rest. The hints are mixed in by
/// each rank, as they always were: a plugged-in assigner's identity is
/// the address of the rank's own `Arc` of it.
pub(crate) fn shared_key(rank: &Rank, wires: &GatherTable, hints: &Hints) -> u64 {
    struct WiresDigest(u64);
    let digest = rank.shared_once(wires.round(), || WiresDigest(wires_digest(wires.iter())));
    key_of(digest.0, hints, wires.len())
}

/// Every wire, length-prefixed.
fn wires_digest(wires: impl IntoIterator<Item = impl AsRef<[u8]>>) -> u64 {
    let digest = wires
        .into_iter()
        .fold(Digest::new(), |d, w| d.u64(w.as_ref().len() as u64).bytes(w.as_ref()));
    digest.finish()
}

/// The key of a call whose wires digest to `wires`.
fn key_of(wires: u64, hints: &Hints, nprocs: usize) -> u64 {
    Digest::new()
        .u64(nprocs as u64)
        .u64(hints.cb_buffer_size as u64)
        .u64(hints.aggregators(nprocs) as u64)
        .u64(hints.fr_alignment.unwrap_or(0))
        .u64(u64::from(hints.persistent_file_realms))
        .u64(match &hints.realm_assigner {
            // Identity of the plugged-in assigner: stable per Arc. A
            // rebound assigner (new Arc) conservatively misses.
            Some(a) => std::sync::Arc::as_ptr(a) as *const () as u64,
            None => 0,
        })
        .u64(wires)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexio_pfs::PfsConfig;
    use flexio_types::{flatten, Datatype, FileView};

    /// A file system of `n_osts` OSTs of `stripe_size`-byte stripes.
    fn layout(stripe_size: u64, n_osts: usize) -> PfsConfig {
        PfsConfig { stripe_size, n_osts, ..PfsConfig::default() }
    }

    /// One OST: every derivation keeps file order.
    fn one_ost() -> PfsConfig {
        layout(1 << 20, 1)
    }

    /// The schedule key of a call with every wire digested here: the
    /// reference for [`shared_key`].
    fn schedule_key(
        wires: impl IntoIterator<Item = impl AsRef<[u8]>>,
        hints: &Hints,
        nprocs: usize,
    ) -> u64 {
        key_of(wires_digest(wires), hints, nprocs)
    }

    fn wires() -> Vec<Vec<u8>> {
        vec![vec![1, 2, 3], vec![4, 5], vec![]]
    }

    #[test]
    fn key_stable_for_equal_inputs() {
        let h = Hints::default();
        assert_eq!(schedule_key(wires(), &h, 3), schedule_key(wires(), &h, 3));
    }

    #[test]
    fn key_changes_with_inputs() {
        let h = Hints::default();
        let base = schedule_key(wires(), &h, 3);
        let mut other = wires();
        other[0][0] = 9;
        assert_ne!(schedule_key(&other, &h, 3), base);
        assert_ne!(schedule_key(wires(), &h, 4), base);
        let h2 = Hints { cb_buffer_size: 1 << 12, ..Hints::default() };
        assert_ne!(schedule_key(wires(), &h2, 3), base);
        let h3 = Hints { persistent_file_realms: true, ..Hints::default() };
        assert_ne!(schedule_key(wires(), &h3, 3), base);
        let h4 = Hints { fr_alignment: Some(64), ..Hints::default() };
        assert_ne!(schedule_key(wires(), &h4, 3), base);
        // Unset may align to the stripe; `Some(1)` never does.
        let h5 = Hints { fr_alignment: Some(1), ..Hints::default() };
        assert_ne!(schedule_key(wires(), &h5, 3), base);
        assert_ne!(schedule_key(wires(), &h5, 3), schedule_key(wires(), &h4, 3));
    }

    #[test]
    fn the_key_digested_once_per_world_is_every_ranks_key() {
        let wire = |r: usize| vec![r as u8; r % 5];
        let h = Hints { cb_nodes: Some(2), ..Hints::default() };
        flexio_sim::run(7, flexio_sim::CostModel::free(), |rank| {
            let wires = rank.allgatherv_shared(&wire(rank.rank()));
            assert_eq!(shared_key(rank, &wires, &h), schedule_key((0..7).map(wire), &h, 7));
        });
    }

    #[test]
    fn key_separates_block_boundaries() {
        // [1,2],[3] and [1],[2,3] must not collide (length prefixing).
        let h = Hints::default();
        let a = schedule_key(&[vec![1, 2], vec![3]], &h, 2);
        let b = schedule_key(&[vec![1], vec![2, 3]], &h, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn digest_sees_every_byte_of_words_and_tail() {
        // 19 bytes = two words + a 3-byte tail; flipping any single bit,
        // including each word's top bit, must change the digest.
        let base: Vec<u8> = (0u8..19).collect();
        let d0 = Digest::new().bytes(&base).finish();
        for i in 0..base.len() {
            for bit in [0x01u8, 0x80] {
                let mut other = base.clone();
                other[i] ^= bit;
                assert_ne!(Digest::new().bytes(&other).finish(), d0, "byte {i} bit {bit:#x}");
            }
        }
        // Top bits of two adjacent words together (cancels in a plain
        // xor-multiply chain).
        let mut other = base.clone();
        other[7] ^= 0x80;
        other[15] ^= 0x80;
        assert_ne!(Digest::new().bytes(&other).finish(), d0);
        // Pinned value: the key must not drift across platforms or runs.
        assert_eq!(Digest::new().bytes(b"flexio schedule key").finish(), 0x9f35_cb4f_6dfb_99e6);
    }

    /// `n` clients interleaving `block`-byte blocks, `reps` tiles each;
    /// client `c` starts `c` bytes into its view (an unaligned start) when
    /// `ragged`.
    fn interleaved(n: usize, block: u64, reps: u64, ragged: bool) -> Vec<ClientAccess> {
        (0..n)
            .map(|c| {
                let dt = Datatype::resized(0, n as u64 * block, Datatype::bytes(block));
                let start = if ragged { c as u64 % block } else { 0 };
                ClientAccess {
                    view: FileView::new(c as u64 * block, Arc::new(flatten(&dt)), 1).unwrap(),
                    data_start: start,
                    data_len: reps * block - start,
                }
            })
            .collect()
    }

    /// The cycle that runs aggregator `a`'s natural window `k`.
    fn cycle_of_window(d: &Derivation, a: usize, k: usize) -> usize {
        cycle_of(k, d.offsets[a], d.cycles.len())
    }

    /// What the per-rank engine computed: client `c` walks its *own*
    /// access (not a wire round trip) through aggregator `a`'s natural
    /// windows, by cycle.
    fn client_side(d: &Derivation, access: &ClientAccess, a: usize) -> Vec<(Vec<Piece>, u64)> {
        let mut s = ClientStream::new(access.clone());
        let mut by_cycle = vec![(Vec::new(), 0); d.cycles.len()];
        for k in 0..d.cycles.len() {
            let t = cycle_of_window(d, a, k);
            by_cycle[t] = s.take_window(&d.cycles[t].windows[a]);
        }
        by_cycle
    }

    #[test]
    fn rows_and_columns_agree_with_a_client_side_walk() {
        for (pfr, alignment, ragged) in [
            (false, None, false),
            (false, Some(32), true),
            (true, Some(64), true),
            (true, None, false),
        ] {
            let clients = interleaved(6, 24, 9, ragged);
            let wires: Vec<Vec<u8>> = clients.iter().map(ClientAccess::to_wire).collect();
            let hints = Hints {
                cb_nodes: Some(3),
                cb_buffer_size: 100,
                persistent_file_realms: pfr,
                fr_alignment: alignment,
                ..Hints::default()
            };
            let d = Arc::new(Derivation::new(&wires, &hints, None, &one_ost()));
            assert_eq!(d.pfr.is_some(), pfr);
            assert!(d.cycles.len() > 2, "want several cycles");
            let views: Vec<ExchangeSchedule> =
                (0..6).map(|c| ExchangeSchedule::view(0, Arc::clone(&d), c)).collect();
            let mut moved = 0u64;
            for (c, access) in clients.iter().enumerate() {
                let mut row_pairs = vec![0u64; d.cycles.len()];
                for (a, &agg_rank) in d.agg_ranks.iter().enumerate() {
                    for (t, (want, charged)) in client_side(&d, access, a).into_iter().enumerate() {
                        row_pairs[t] += charged;
                        // The client's row entry ...
                        let row: Vec<Piece> = views[c]
                            .cycle(t)
                            .my_pieces()
                            .filter(|&(agg, _)| agg == a)
                            .flat_map(|(_, p)| p.to_vec())
                            .collect();
                        assert_eq!(row, want, "row: client {c} agg {a} cycle {t}");
                        // ... and the aggregator's column entry.
                        let col: Vec<Piece> = views[agg_rank]
                            .cycle(t)
                            .agg_pieces()
                            .filter(|&(client, _)| client == c)
                            .flat_map(|(_, p)| p.to_vec())
                            .collect();
                        assert_eq!(col, want, "column: client {c} agg {a} cycle {t}");
                        moved += want.iter().map(|p| p.len).sum::<u64>();
                    }
                }
                assert_eq!(
                    row_pairs,
                    d.cycles.iter().map(|cyc| cyc.row_pairs[c]).collect::<Vec<_>>()
                );
            }
            assert_eq!(moved, clients.iter().map(|c| c.data_len).sum::<u64>(), "every byte once");
            // A rank is charged the windows, its row and (aggregators) its
            // column; sparse lists hold no empty entries.
            for (c, v) in views.iter().enumerate() {
                for (t, cyc) in v.cycles().enumerate() {
                    let col = v.my_agg.map_or(0, |a| d.cycles[t].col_pairs[a]);
                    assert_eq!(
                        cyc.pairs(),
                        d.cycles[t].window_pairs + d.cycles[t].row_pairs[c] + col
                    );
                    assert!(cyc.my_pieces().chain(cyc.agg_pieces()).all(|(_, p)| !p.is_empty()));
                    assert_eq!(
                        cyc.my_window().is_empty(),
                        v.my_agg.is_none_or(|a| d.cycles[t].windows[a].is_empty())
                    );
                }
            }
        }
    }

    /// One cycle of the cell-by-cell walk: the piece arena, the non-empty
    /// `(client, aggregator, pieces)` cells in walk order, the pairs by
    /// client and by aggregator.
    type Walked = (Vec<Piece>, Vec<(usize, usize, Range<usize>)>, Vec<u64>, Vec<u64>);

    /// The reference: every `(client, aggregator, cycle)` walked through
    /// its window by [`seeking_walk`], afresh for every `(client,
    /// aggregator)` pair, through the aggregator's natural windows in file
    /// order.
    fn cell_by_cell(d: &Derivation, clients: &[ClientAccess]) -> Vec<Walked> {
        let n_agg = d.agg_ranks.len();
        let mut out: Vec<Walked> = (0..d.cycles.len())
            .map(|_| (Vec::new(), Vec::new(), vec![0; clients.len()], vec![0; n_agg]))
            .collect();
        for (c, access) in clients.iter().enumerate() {
            for a in 0..n_agg {
                let mut data_pos = access.data_start;
                for k in 0..d.cycles.len() {
                    let t = cycle_of_window(d, a, k);
                    let (pieces, cells, rows, cols) = &mut out[t];
                    let from = pieces.len();
                    let charged =
                        seeking_walk(access, &mut data_pos, &d.cycles[t].windows[a], pieces);
                    rows[c] += charged;
                    cols[a] += charged;
                    if pieces.len() > from {
                        cells.push((c, a, from..pieces.len()));
                    }
                }
            }
        }
        out
    }

    /// One window's walk of a client's stream standing at `data_pos`, by
    /// a cursor that seeks `data_pos` for this window alone, where a
    /// [`ClientStream`] keeps its cursor from the last: append the
    /// pieces, move `data_pos` past the last (or as far as the cursor
    /// went, if there are none) and return the pairs charged.
    fn seeking_walk(
        access: &ClientAccess,
        data_pos: &mut u64,
        win: &[(u64, u64)],
        out: &mut Vec<Piece>,
    ) -> u64 {
        let data_end = access.data_end();
        if win.is_empty() || *data_pos >= data_end {
            return 0;
        }
        let mut cur = access.view.cursor(*data_pos);
        let before = cur.evaluated();
        let from = out.len();
        'window: for &(ws, wlen) in win {
            if cur.data_pos() >= data_end {
                break;
            }
            cur.advance_to_file(ws);
            while cur.data_pos() < data_end {
                let Some(p) = cur.take_below(ws + wlen, data_end - cur.data_pos()) else {
                    continue 'window;
                };
                out.push(p);
            }
            break;
        }
        *data_pos = match out[from..].last() {
            Some(last) => last.data_pos + last.len,
            None => cur.data_pos().min(data_end),
        };
        cur.evaluated() - before
    }

    /// A drawn world for [`derivation_equals_the_cell_by_cell_walk`].
    #[derive(Debug)]
    struct World {
        clients: Vec<ClientAccess>,
        cb_nodes: usize,
        cb_buffer_size: usize,
        pfr: bool,
        alignment: Option<u64>,
        /// Under PFR, the realm set an earlier call over `[0, hi)` left:
        /// blocks much smaller than this call's region, so a window has
        /// several segments.
        earlier_hi: Option<u64>,
        assigner: Plugged,
        layout: PfsConfig,
    }

    /// The realm assigner a drawn world plugs in, if any.
    #[derive(Debug, Clone, Copy)]
    enum Plugged {
        None,
        /// [`EvenAar`]'s realms dealt last aggregator first: disjoint
        /// spans in the reverse of aggregator order.
        Mirrored,
        /// [`PersistentBlockCyclic`]'s realms for one call: spans that
        /// interleave whenever a realm has several blocks.
        BlockCyclic,
    }

    struct Mirrored;

    impl RealmAssigner for Mirrored {
        fn assign(&self, ctx: &AssignCtx<'_>) -> Vec<FileRealm> {
            let mut realms = EvenAar.assign(ctx);
            realms.reverse();
            realms
        }

        fn name(&self) -> &'static str {
            "mirrored"
        }
    }

    impl Plugged {
        fn assigner(self) -> Option<Arc<dyn RealmAssigner>> {
            match self {
                Plugged::None => None,
                Plugged::Mirrored => Some(Arc::new(Mirrored)),
                Plugged::BlockCyclic => Some(Arc::new(PersistentBlockCyclic)),
            }
        }
    }

    /// `n` clients interleaving `k` regions of `block` bytes a tile (`gap`
    /// bytes after each), over `tiles` tiles after a `header`. Each client
    /// draws its own filetype: Succinct (one tile of `k` regions, tiled)
    /// or Enumerated (every region of the access listed, `D` = region
    /// count), a ragged start, and an empty access one time in six.
    fn draw_world(rng: &mut flexio_sim::XorShift64Star) -> World {
        let n = 1 + rng.next_below(16) as usize;
        let (block, gap) = (1 + rng.next_below(16), rng.next_below(8));
        let (k, tiles, header) = (1 + rng.next_below(4), 1 + rng.next_below(6), rng.next_below(64));
        let stride = block + gap;
        let extent = k * n as u64 * stride;
        let clients: Vec<ClientAccess> = (0..n)
            .map(|c| {
                let enumerated = rng.next_below(2) == 0;
                let reps = if enumerated { tiles } else { 1 };
                let regions: Vec<(i64, u64)> =
                    (0..reps * k).map(|j| ((j * n as u64 * stride) as i64, block)).collect();
                let dt = Datatype::resized(
                    0,
                    reps * extent,
                    Datatype::hindexed(regions, Datatype::bytes(1)),
                );
                let total = tiles * k * block;
                let data_start = rng.next_below(2 * block).min(total - 1);
                let data_len = match rng.next_below(6) {
                    0 => 0,
                    _ => 1 + rng.next_below(total - data_start),
                };
                let view =
                    FileView::new(header + c as u64 * stride, Arc::new(flatten(&dt)), 1).unwrap();
                ClientAccess { view, data_start, data_len }
            })
            .collect();
        let cb_nodes = 1 + rng.next_below(n as u64) as usize;
        let cb_buffer_size = 1 + rng.next_below(2 * block + 8) as usize;
        let pfr = rng.next_below(2) == 0;
        let alignment = (rng.next_below(2) == 0).then(|| 1 + rng.next_below(32));
        let earlier_hi = (pfr && rng.next_below(2) == 0).then(|| 1 + rng.next_below(extent));
        let assigner = [Plugged::None, Plugged::None, Plugged::Mirrored, Plugged::BlockCyclic]
            [rng.next_below(4) as usize];
        let layout =
            layout(cb_buffer_size as u64 * (1 + rng.next_below(2)), 2 + rng.next_below(3) as usize);
        World { clients, cb_nodes, cb_buffer_size, pfr, alignment, earlier_hi, assigner, layout }
    }

    /// Derive from `clients`' wires and check every cycle against
    /// [`cell_by_cell`]: pieces, cells and the pairs of every row and
    /// column. Also checks, for every aggregator, the invariant the
    /// flexible engine's file loop slices its runs by: the realm-chunk
    /// groups of a column's merged segments end on entry boundaries.
    /// Returns the cells the derivation charged by the run.
    fn assert_derives_cell_by_cell(
        clients: &[ClientAccess],
        hints: &Hints,
        earlier: Option<&Arc<RealmSet>>,
        layout: &PfsConfig,
    ) -> Derivation {
        let wires: Vec<Vec<u8>> = clients.iter().map(ClientAccess::to_wire).collect();
        let d = Derivation::new(&wires, hints, earlier, layout);
        // Against file order on one OST of the same stripes, which cuts
        // the same realms: the same windows, rotated, and every client and
        // aggregator charged the same pairs over the call.
        let file = Derivation::new(&wires, hints, earlier, &PfsConfig { n_osts: 1, ..*layout });
        assert!(file.offsets.iter().all(|&s| s == 0), "one OST keeps file order");
        assert_eq!(d.cycles.len(), file.cycles.len());
        for (k, natural) in file.cycles.iter().enumerate() {
            for (a, window) in natural.windows.iter().enumerate() {
                assert_eq!(
                    &d.cycles[cycle_of_window(&d, a, k)].windows[a],
                    window,
                    "aggregator {a}, window {k}"
                );
            }
        }
        let summed = |d: &Derivation, pairs: fn(&DerivedCycle) -> &[u64], n: usize| -> Vec<u64> {
            (0..n).map(|i| d.cycles.iter().map(|cyc| pairs(cyc)[i]).sum()).collect()
        };
        fn rows(c: &DerivedCycle) -> &[u64] {
            &c.row_pairs
        }
        fn cols(c: &DerivedCycle) -> &[u64] {
            &c.col_pairs
        }
        let (n, n_agg) = (clients.len(), d.agg_ranks.len());
        assert_eq!(summed(&d, rows, n), summed(&file, rows, n), "row pairs over the call");
        assert_eq!(
            summed(&d, cols, n_agg),
            summed(&file, cols, n_agg),
            "column pairs over the call"
        );
        let parsed: Vec<ClientAccess> =
            wires.iter().map(|wire| ClientAccess::from_wire(wire)).collect();
        let walked = cell_by_cell(&d, &parsed);
        for (t, (cyc, (pieces, cells, rows, cols))) in d.cycles.iter().zip(walked).enumerate() {
            let window_pairs: u64 = cyc.windows.iter().map(|w| w.len() as u64).sum();
            assert_eq!(cyc.window_pairs, window_pairs, "cycle {t}: window pairs");
            assert_eq!(cyc.pieces, pieces, "cycle {t}: piece arena");
            let of = |s: &Sparse| -> Vec<(usize, usize, Range<usize>)> {
                s.cells.iter().map(|c| (c.client, c.agg, c.pieces.clone())).collect()
            };
            assert_eq!(of(&cyc.rows), cells, "cycle {t}: rows");
            let mut by_agg = cells;
            by_agg.sort_by_key(|&(c, a, _)| (a, c));
            assert_eq!(of(&cyc.cols), by_agg, "cycle {t}: columns");
            assert_eq!(cyc.row_pairs, rows, "cycle {t}: row pairs");
            assert_eq!(cyc.col_pairs, cols, "cycle {t}: column pairs");
            for (a, window) in cyc.windows.iter().enumerate() {
                let column: Vec<(usize, &[Piece])> = (cyc.cols.group(a).iter())
                    .map(|c| (c.client, &cyc.pieces[c.pieces.clone()]))
                    .collect();
                let (entries, segs) = crate::engine::common::merge_pieces(&column);
                let (mut entries, mut grouped, mut taken) = (entries.iter(), 0u64, 0u64);
                for (_, group) in crate::engine::common::group_by_window(&segs, window) {
                    grouped += group.iter().map(|s| s.1).sum::<u64>();
                    while taken < grouped {
                        taken += entries.next().expect("the entries cover every group").3;
                    }
                    assert_eq!(
                        taken, grouped,
                        "cycle {t}, aggregator {a}: a group splits an entry"
                    );
                }
                assert!(
                    entries.next().is_none(),
                    "cycle {t}, aggregator {a}: an entry past the groups"
                );
            }
        }
        d
    }

    /// The grouped derivation against the cell-by-cell walk: a world
    /// whose aggregators' spans are disjoint has its empty cells between a
    /// client's bytes charged by the run, in aggregator order or not
    /// (`Mirrored`); one whose spans interleave (`BlockCyclic`, and PFR's
    /// realms) walks every cell. Both must charge every cell alike, in
    /// file order and in the order a drawn layout picks.
    #[test]
    fn derivation_equals_the_cell_by_cell_walk() {
        let (worlds, by_run) = (std::cell::Cell::new(0u64), std::cell::Cell::new(0u64));
        let reordered = std::cell::Cell::new(0u64);
        flexio_sim::prop::Runner::new("derivation_cell_by_cell").run(draw_world, |w| {
            let hints = Hints {
                cb_nodes: Some(w.cb_nodes),
                cb_buffer_size: w.cb_buffer_size,
                persistent_file_realms: w.pfr,
                fr_alignment: w.alignment,
                realm_assigner: w.assigner.assigner(),
                ..Hints::default()
            };
            let earlier = w.earlier_hi.map(|hi| {
                let ctx = AssignCtx {
                    aar: (0, hi),
                    n_aggregators: w.cb_nodes,
                    alignment: w.alignment,
                    clients: &[],
                };
                Arc::new(RealmSet::new(PersistentBlockCyclic.assign(&ctx)))
            });
            let d = assert_derives_cell_by_cell(&w.clients, &hints, earlier.as_ref(), &w.layout);
            worlds.set(worlds.get() + 1);
            by_run.set(by_run.get() + u64::from(d.run_cells > 0));
            reordered.set(reordered.get() + u64::from(d.offsets.iter().any(|&s| s > 0)));
        });
        let (worlds, by_run, reordered) = (worlds.get(), by_run.get(), reordered.get());
        assert!(by_run * 4 >= worlds, "only {by_run} of {worlds} worlds charged a cell by the run");
        assert!(reordered > 0, "no drawn world was reordered");
    }

    /// `fine-512`'s shape at 64 ranks: 16 regions of 8 B a client,
    /// interleaved, a 512 B buffer and 32 aggregators. An aggregator's
    /// 256 B realm holds a region of half the clients, so half the
    /// `(client, aggregator)` cells are empty and charged only the skip
    /// into the window (at 512 ranks, 15 in 16 are). Even clients tile a
    /// one-region filetype (Succinct), odd ones list all 16 regions in one
    /// (Enumerated); client `c` starts `c % 8` bytes in.
    #[test]
    fn a_sparse_64_rank_world_derives_cell_by_cell() {
        let (n, regions, block) = (64u64, 16u64, 8u64);
        let clients: Vec<ClientAccess> = (0..n)
            .map(|c| {
                let dt = if c % 2 == 0 {
                    Datatype::resized(0, n * block, Datatype::bytes(block))
                } else {
                    let listed = (0..regions).map(|j| ((j * n * block) as i64, block)).collect();
                    Datatype::resized(
                        0,
                        regions * n * block,
                        Datatype::hindexed(listed, Datatype::bytes(1)),
                    )
                };
                let start = c % block;
                ClientAccess {
                    view: FileView::new(c * block, Arc::new(flatten(&dt)), 1).unwrap(),
                    data_start: start,
                    data_len: regions * block - start,
                }
            })
            .collect();
        for pfr in [false, true] {
            let hints = Hints {
                cb_nodes: Some(32),
                cb_buffer_size: 512,
                persistent_file_realms: pfr,
                ..Hints::default()
            };
            let by_run = assert_derives_cell_by_cell(&clients, &hints, None, &one_ost()).run_cells;
            // 64 clients × 32 aggregators: a client's first byte is half
            // way along its first tile on average, 16 of the cells past it
            // hold a piece, and nearly all the rest sit whole in its gaps
            // (992). PFR's block-cyclic realms interleave: none.
            assert!(pfr || by_run > 64 * 32 / 4, "{by_run} cells charged by the run");
        }
    }

    /// Per cycle, the most window bytes one OST of `layout` holds.
    fn cycle_peaks(d: &Derivation, layout: &PfsConfig) -> Vec<u64> {
        (d.cycles.iter())
            .map(|cyc| {
                let mut osts = vec![0u64; layout.n_osts];
                for &(off, len) in cyc.windows.iter().flatten() {
                    layout.add_ost_bytes(off, len, &mut osts);
                }
                osts.into_iter().max().unwrap_or(0)
            })
            .collect()
    }

    /// Every aggregator's natural windows, read off a file-order
    /// derivation.
    fn natural_windows(file: &Derivation) -> Vec<Vec<Vec<(u64, u64)>>> {
        (0..file.agg_ranks.len())
            .map(|a| file.cycles.iter().map(|cyc| cyc.windows[a].clone()).collect())
            .collect()
    }

    /// HPIO's non-contiguous pattern (`flexio-hpio`): `n` clients
    /// interleave `regions` regions of `size` bytes, `spacing` bytes after
    /// each, from byte 0.
    fn hpio(n: u64, regions: u64, size: u64, spacing: u64) -> Vec<ClientAccess> {
        hpio_from(0, n, regions, size, spacing)
    }

    /// [`hpio`] after a `header` of bytes, as `bulk-64`'s seeds lay it.
    fn hpio_from(header: u64, n: u64, regions: u64, size: u64, spacing: u64) -> Vec<ClientAccess> {
        let unit = size + spacing;
        let flat = Arc::new(flatten(&Datatype::resized(0, n * unit, Datatype::bytes(size))));
        (0..n)
            .map(|c| ClientAccess {
                view: FileView::new(header + c * unit, Arc::clone(&flat), 1).unwrap(),
                data_start: 0,
                data_len: regions * size,
            })
            .collect()
    }

    fn derive(clients: &[ClientAccess], hints: &Hints, layout: &PfsConfig) -> Derivation {
        let wires: Vec<Vec<u8>> = clients.iter().map(ClientAccess::to_wire).collect();
        Derivation::new(&wires, hints, None, layout)
    }

    const MIB: u64 = 1 << 20;

    /// `bulk-64` (seed 0) split evenly (`fr_alignment: Some(1)`): 64
    /// clients of 256 4 KiB regions 128 B apart, 8 aggregators, the
    /// default 4 MiB buffer, 8 OSTs of 2 MiB stripes. Each realm is
    /// 8.25 MiB and starts on OST 0 or 4, so in file order cycles 0 and 1
    /// put two realms' windows on four OSTs and none on the other four.
    /// Rotating aggregators 2–5 by one and two windows halves those
    /// cycles' peaks.
    #[test]
    fn bulk_64s_shape_spreads_each_cycle_over_the_osts() {
        let clients = hpio(64, 256, 4096, 128);
        let hints = Hints { cb_nodes: Some(8), fr_alignment: Some(1), ..Hints::default() };
        let lustre = PfsConfig::default();
        let file = derive(&clients, &hints, &one_ost());
        let d = derive(&clients, &hints, &lustre);
        assert_eq!(d.offsets, [0, 0, 1, 1, 2, 2, 0, 0]);
        // [8, 8, 1] MiB in file order, [4, 4, 3.25] MiB in the chosen one.
        assert_eq!(cycle_peaks(&file, &lustre), [8 * MIB, 8 * MIB, MIB - 64]);
        assert_eq!(cycle_peaks(&d, &lustre), [4 * MIB, 4 * MIB, 13 * MIB / 4 - 80]);
    }

    /// E1's default 6-aggregator, 4 KiB-region cell (16 clients of 1 024
    /// regions) split evenly (`fr_alignment: Some(1)`): the greedy order
    /// cuts the summed peaks from 12 to only 11 MiB, short of a quarter,
    /// so the call keeps file order.
    #[test]
    fn e1s_six_aggregator_shape_keeps_file_order() {
        let clients = hpio(16, 1024, 4096, 128);
        let hints = Hints { cb_nodes: Some(6), fr_alignment: Some(1), ..Hints::default() };
        let lustre = PfsConfig::default();
        let file = derive(&clients, &hints, &one_ost());
        let (offsets, greedy_sum) = greedy_offsets(&natural_windows(&file), &lustre);
        assert!(offsets.iter().any(|&s| s > 0));
        let file_sum: u64 = cycle_peaks(&file, &lustre).iter().sum();
        assert_eq!((file_sum, greedy_sum), (12 * MIB - 43, 11 * u128::from(MIB) - 150));
        assert!(derive(&clients, &hints, &lustre).offsets.iter().all(|&s| s == 0));
    }

    /// Each aggregator's `[first byte, end)` over its windows in every
    /// cycle: its contiguous realm, clipped to the region.
    fn realm_spans(d: &Derivation) -> Vec<(u64, u64)> {
        (0..d.agg_ranks.len())
            .map(|a| {
                let segs = d.cycles.iter().flat_map(|cyc| &cyc.windows[a]);
                segs.fold((u64::MAX, 0), |(s, e), &(off, len)| (s.min(off), e.max(off + len)))
            })
            .collect()
    }

    /// The `[first byte, end)` of each contiguous realm of `realms` inside
    /// the region `[lo, hi)`.
    fn spans_of(realms: &[FileRealm], (lo, hi): (u64, u64)) -> Vec<(u64, u64)> {
        (realms.iter())
            .map(|r| {
                let segs = r.segments(r.data_lower(lo), r.data_lower(hi));
                (segs[0].0, segs.last().map_or(0, |&(off, len)| off + len))
            })
            .collect()
    }

    fn even_ctx(
        aar: (u64, u64),
        n_aggregators: usize,
        alignment: Option<u64>,
    ) -> AssignCtx<'static> {
        AssignCtx { aar, n_aggregators, alignment, clients: &[] }
    }

    /// `bulk-64`'s shape with the hint unset, at the headers of seeds 0,
    /// 1 and 511 (8·(seed mod 512) bytes): the 66 MiB region spans eight
    /// stripes per aggregator, and the realms snapped down to 2 MiB
    /// stripes need three 4 MiB cycles, as the even split's 8.25 MiB
    /// realms do. So seven realms are 8 MiB and the last is 10 MiB, less
    /// the header and the last spacing; every boundary is a stripe's.
    #[test]
    fn bulk_64s_shape_gets_stripe_aligned_realms() {
        let hints = Hints { cb_nodes: Some(8), ..Hints::default() };
        let lustre = PfsConfig::default();
        for header in [0, 8, 8 * 511] {
            let d = derive(&hpio_from(header, 64, 256, 4096, 128), &hints, &lustre);
            let hi = header + 64 * 256 * 4224 - 128;
            let mut want: Vec<(u64, u64)> =
                (0..8).map(|a| (a * 8 * MIB, (a + 1) * 8 * MIB)).collect();
            want[0].0 = header;
            want[7].1 = hi;
            assert_eq!(realm_spans(&d), want, "header {header}");
            assert_eq!(d.cycles.len(), 3);
        }
        // Every realm still starts on OST 0 or 4, so cycle order still
        // earns its place: [8, 8, 2] MiB peaks in file order, 4 MiB in
        // the chosen one.
        let clients = hpio(64, 256, 4096, 128);
        let file = derive(&clients, &hints, &layout(2 * MIB, 1));
        assert_eq!(cycle_peaks(&file, &lustre), [8 * MIB, 8 * MIB, 2 * MIB - 128]);
        let d = derive(&clients, &hints, &lustre);
        assert_eq!(d.offsets, [0, 0, 1, 1, 2, 2, 0, 0]);
        assert_eq!(cycle_peaks(&d, &lustre), [4 * MIB, 4 * MIB, 4 * MIB - 128]);
    }

    /// Where the rule keeps the even split. A6's default shape (16
    /// clients of 1 024 512 B regions, 128 B apart: a region just under
    /// 5 stripes, 4 aggregators, 256 KiB buffers) would go from 2.5 MiB
    /// realms in 10 cycles to 2/2/2/4 MiB ones in 16, and E2's (a region
    /// 992 B short of 32 stripes, 4 aggregators, 4 MiB buffers) from
    /// 16 MiB realms in 4 cycles to 14/16/16/18 MiB ones in 5: guard (b).
    /// A region short of a stripe per aggregator, counted from the stripe
    /// its first byte is in, would collapse realms: guard (a).
    #[test]
    fn the_even_split_stays_where_aligned_realms_cost_cycles_or_collapse() {
        let stripe = 2 * MIB;
        let even = |aar, n| format!("{:?}", EvenAar.assign(&even_ctx(aar, n, None)));
        let rule = |aar, n, cb| {
            format!("{:?}", stripe_aligned_or_even(&even_ctx(aar, n, None), stripe, cb))
        };
        let a6 = (0, 10 * MIB - 128);
        assert_eq!(rule(a6, 4, 256 << 10), even(a6, 4));
        let e2 = (0, 64 * MIB - 992);
        assert_eq!(rule(e2, 4, 4 * MIB), even(e2, 4));
        let aligned = |aar, n| EvenAar.assign(&even_ctx(aar, n, Some(stripe)));
        assert_eq!(buffer_cycles(&aligned(e2, 4), e2, 4 * MIB), 5);
        for short in [(0, 16 * MIB - 1), (3 * MIB, 18 * MIB - 1)] {
            assert_eq!(rule(short, 8, 4 * MIB), even(short, 8), "{short:?}");
        }
        // One stripe per aggregator from the first byte's stripe is
        // enough.
        let just = (3 * MIB, 18 * MIB);
        assert_eq!(rule(just, 8, 4 * MIB), format!("{:?}", aligned(just, 8)));
        assert_ne!(rule(just, 8, 4 * MIB), even(just, 8));
    }

    /// The rule is for per-call realms with the hint unset alone: an
    /// explicit alignment, `Some(1)` (byte-granular: the even split),
    /// persistent realms and a plugged-in assigner cut on `bulk-64`'s
    /// shape what they cut without it.
    #[test]
    fn hinted_persistent_and_plugged_in_realms_are_not_aligned() {
        let clients = hpio(64, 256, 4096, 128);
        let aar = (0, 64 * 256 * 4224 - 128);
        let lustre = PfsConfig::default();
        let with = |h: Hints| derive(&clients, &Hints { cb_nodes: Some(8), ..h }, &lustre);
        let spans = |h: Hints| realm_spans(&with(h));
        let even = spans_of(&EvenAar.assign(&even_ctx(aar, 8, None)), aar);
        assert_eq!(spans(Hints { fr_alignment: Some(1), ..Hints::default() }), even);
        assert_eq!(even[1], (aar.1 / 8, aar.1 / 4), "8.25 MiB realms, less the last spacing");
        let page = Hints { fr_alignment: Some(4096), ..Hints::default() };
        assert_eq!(spans(page), spans_of(&EvenAar.assign(&even_ctx(aar, 8, Some(4096))), aar));
        let mirrored = Hints { realm_assigner: Some(Arc::new(Mirrored)), ..Hints::default() };
        assert_eq!(spans(mirrored), even.iter().rev().copied().collect::<Vec<_>>());
        let pfr = with(Hints { persistent_file_realms: true, ..Hints::default() });
        let block_cyclic = RealmSet::new(PersistentBlockCyclic.assign(&even_ctx(aar, 8, None)));
        assert_eq!(pfr.pfr.map(|set| set.fingerprint), Some(block_cyclic.fingerprint));
    }

    /// What keeps file order without weighing an order: a region inside one
    /// stripe (`fine-512`: 512 clients of 16 8 B regions 128 B apart, every
    /// byte on OST 0), a persistent realm set (`bulk-64`'s shape under
    /// PFR), and an order whose weighing would cost more than
    /// `MAX_ORDER_STEPS`.
    #[test]
    fn one_stripe_persistent_realms_and_long_calls_keep_file_order() {
        let lustre = PfsConfig::default();
        let file_order = |d: &Derivation| d.offsets.iter().all(|&s| s == 0);
        let fine = Hints { cb_buffer_size: 512, cb_nodes: Some(256), ..Hints::default() };
        let d = derive(&hpio(512, 16, 8, 128), &fine, &lustre);
        assert!(d.cycles.len() > 1 && file_order(&d));
        let pfr = Hints { cb_nodes: Some(8), persistent_file_realms: true, ..Hints::default() };
        let d = derive(&hpio(64, 256, 4096, 128), &pfr, &lustre);
        assert!(d.cycles.len() > 1 && file_order(&d));
        // Two clients' realms in 64 B windows on 8 OSTs of 64 B stripes:
        // both start on OST 0, so every cycle doubles up in file order.
        let long = |realm: u64| {
            let hints = Hints { cb_nodes: Some(2), cb_buffer_size: 64, ..Hints::default() };
            derive(&hpio(2, 1, realm, 0), &hints, &layout(64, 8))
        };
        assert!(!file_order(&long(4096)), "64 cycles are weighed and reordered");
        let d = long(256 << 10);
        assert!(2 * (d.cycles.len() as u64).pow(2) * 8 > MAX_ORDER_STEPS);
        assert!(file_order(&d), "4 096 cycles are not weighed");
    }

    /// The world of `files_striped_differently_keep_their_own_derivations`
    /// (`tests/schedule_cache.rs`): four clients of six 64 B tiles, two
    /// aggregators of 768 B realms in 128 B windows. On 4 OSTs of 64 B
    /// stripes both realms start on OST 0 and the second is rotated by a
    /// window; on one OST the call keeps file order. So a derivation
    /// shared by the two files would run one of them in the other's order.
    #[test]
    fn the_two_striping_worlds_shape_reorders_on_four_osts_only() {
        let hints = Hints { cb_nodes: Some(2), cb_buffer_size: 128, ..Hints::default() };
        let d = derive(&interleaved(4, 64, 6, false), &hints, &layout(64, 4));
        assert_eq!(d.offsets, [0, 1]);
        let d = derive(&interleaved(4, 64, 6, false), &hints, &one_ost());
        assert_eq!(d.offsets, [0, 0]);
    }

    #[test]
    fn empty_world_access_derives_an_empty_schedule() {
        let mut clients = interleaved(3, 8, 2, false);
        for c in &mut clients {
            c.data_len = 0;
        }
        let wires: Vec<Vec<u8>> = clients.iter().map(ClientAccess::to_wire).collect();
        let hints = Hints { persistent_file_realms: true, ..Hints::default() };
        let d = Derivation::new(&wires, &hints, None, &one_ost());
        assert!(d.cycles.is_empty() && d.agg_ranks.is_empty() && d.pfr.is_none());
        assert_eq!(d.parse_pairs, 3);
    }
}
