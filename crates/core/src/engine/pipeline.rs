//! The shared N-deep buffer-cycle pipeline core.
//!
//! Both two-phase engines split every buffer cycle into the same two
//! halves — an **exchange half** (pure client↔aggregator data movement)
//! and an **issue half** (aggregator↔file I/O) — and both profit from the
//! same overlap: while one cycle's file I/O is still in flight, the next
//! cycle's exchange can already run into its own collective buffer. This
//! module owns that machinery once, so `Hints::pipeline_depth` means
//! exactly the same thing under the flexible engine and the ROMIO
//! baseline:
//!
//! * the in-flight window deque (one [`OverlapWindow`] per outstanding
//!   cycle, drained when its collective buffer must be reused; its length
//!   is what [`FileHandle::note_queued`] reports),
//! * the overlap accounting through [`Rank::overlap_begin`] /
//!   [`Rank::overlap_complete`] — elapsed time is `max(io, exchange)`,
//!   never the sum, with the hidden part in `Stats::overlap_saved_ns`,
//! * the EWMA-driven [`CapPolicy::Auto`] depth adaptation,
//! * the per-cycle straggler watch feeding graceful degradation, and
//! * the crash abort: a [`CycleDriver::boundary`] that returns a dead set
//!   ends the loop, drains what is in flight and hands the set back in
//!   [`CycleOutcome::dead`].
//!
//! An engine plugs in with one driver per direction — [`CycleDriver`]
//! plus [`WriteDriver`] or [`ReadDriver`] — handed to [`drive_write`] or
//! [`drive_read`]. Depth 1 (`cap == 0`) issues and immediately completes
//! every window, which charges exactly like the blocking engines did
//! (`Rank::overlap_begin` + immediate complete ≡ advance + phase note),
//! so the serial charge fixtures stay bit-identical.

use crate::engine::common::ewma;
use crate::hints::{Hints, PipelineDepth};
use flexio_pfs::{FileHandle, IoCompletion, PfsError};
use flexio_sim::{OverlapWindow, Phase, Rank};
use std::collections::VecDeque;

/// Most in-flight completion windows any pipeline keeps (depth − 1). Past
/// eight buffers the exchange can't keep even one OST busy per extra
/// buffer, and real memory would run out long before virtual time cared.
pub(crate) const MAX_INFLIGHT: usize = 7;

/// How many buffer cycles may be in flight ahead of the one being
/// exchanged — the resolved form of `Hints::pipeline_depth`, expressed
/// as a *cap* on outstanding completion windows (cap = depth − 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CapPolicy {
    /// Never exceed this many outstanding windows. 0 is the strictly
    /// serial engine, 1 the classic two-buffer pipeline.
    Fixed(usize),
    /// Start at 1 (double buffering) and re-derive the cap after every
    /// issue from the measured I/O:exchange duration ratio: I/O that runs
    /// `r` times longer than an exchange needs `ceil(r)` cycles of
    /// exchange work to hide behind. `bound` caps the ratio.
    ///
    /// Writes take `MAX_INFLIGHT` ([`drive_write`]): an OST serves each
    /// booking into the first idle gap after its arrival that fits it, so
    /// a deeper write-behind takes no OST time from a request that
    /// arrives before it and only moves when the aggregator reuses its
    /// own buffers. Reads keep the aggregator's share of the stripe
    /// width: a prefetch takes OST time ahead of peers' demand reads,
    /// which their ranks block on at once.
    Auto {
        /// `clamp(2·n_osts / n_aggregators, 1, MAX_INFLIGHT)` as resolved;
        /// `MAX_INFLIGHT` on the write side.
        bound: usize,
    },
}

impl CapPolicy {
    pub(crate) fn resolve(hints: &Hints, n_osts: usize, n_aggs: usize) -> CapPolicy {
        match hints.pipeline_depth {
            PipelineDepth::Auto => {
                CapPolicy::Auto { bound: (2 * n_osts / n_aggs.max(1)).clamp(1, MAX_INFLIGHT) }
            }
            PipelineDepth::Fixed(d) => {
                CapPolicy::Fixed(((d as usize).saturating_sub(1)).min(MAX_INFLIGHT))
            }
        }
    }

    /// The write side's policy: `Auto` bounded by `MAX_INFLIGHT` alone.
    fn for_writes(self) -> CapPolicy {
        match self {
            CapPolicy::Auto { .. } => CapPolicy::Auto { bound: MAX_INFLIGHT },
            fixed => fixed,
        }
    }

    /// The cap to start the cycle loop with.
    fn initial_cap(self) -> usize {
        match self {
            CapPolicy::Fixed(c) => c,
            CapPolicy::Auto { .. } => 1,
        }
    }

    /// Re-derive the cap after an issue whose I/O occupied `io_ns` of
    /// virtual time, the preceding exchange `exch_ns`. Fixed caps never
    /// move.
    fn adapt(self, io_ns: u64, exch_ns: u64) -> usize {
        match self {
            CapPolicy::Fixed(c) => c,
            CapPolicy::Auto { bound } => (io_ns.div_ceil(exch_ns.max(1)) as usize).clamp(1, bound),
        }
    }

    /// Whether the derive-overlap optimisation may run: it perturbs the
    /// virtual timeline (never the counters), so the charge-replay
    /// configurations — serial and classic double buffering — keep it off
    /// to stay bit-identical to the reference engines.
    pub(crate) fn allows_derive_overlap(self) -> bool {
        match self {
            CapPolicy::Fixed(c) => c >= 2,
            CapPolicy::Auto { .. } => true,
        }
    }
}

/// The straggler verdict one engine pass converged on: the flagged
/// aggregator plus the per-aggregator smoothed I/O durations it was judged
/// against, so the rebalancer can split the handoff proportionally across
/// every healthy peer instead of dumping it on one.
#[derive(Debug, Clone)]
pub(crate) struct StragglerVerdict {
    /// Index (into the aggregator list) of the flagged aggregator.
    pub straggler: usize,
    /// `(aggregator index, smoothed I/O ns)` for every aggregator with at
    /// least one sample, in index order. Identical on every rank: it is
    /// folded from allgathered durations only.
    pub loads: Vec<(usize, u64)>,
}

/// What one engine pass reports back beyond its data movement: the first
/// retry-exhausted fault (fed to the error agreement), the straggler
/// verdict the EWMA detector converged on, and the peers a crash boundary
/// found dead, if any.
#[derive(Debug, Default)]
pub(crate) struct CycleOutcome {
    pub err: Option<PfsError>,
    pub straggler: Option<StragglerVerdict>,
    /// The dead set a [`CycleDriver::boundary`] returned: the remaining
    /// cycles were skipped and in-flight I/O drained.
    pub dead: Option<Vec<usize>>,
}

/// Tracks per-aggregator smoothed I/O durations across buffer cycles and
/// flags a straggler. Runs only under a fault plan: each cycle, every rank
/// allgathers its local I/O duration (clients contribute 0), feeds the
/// aggregators' samples into per-aggregator EWMAs, and — because everyone
/// folds the same data — reaches the same verdict with no extra
/// agreement round.
struct StragglerDetector {
    agg_ewma: Vec<Option<u64>>,
}

impl StragglerDetector {
    fn new(n_agg: usize) -> StragglerDetector {
        StragglerDetector { agg_ewma: vec![None; n_agg] }
    }

    /// Fold one cycle's allgathered durations; returns the verdict if a
    /// straggler now stands out.
    fn observe(
        &mut self,
        rank: &Rank,
        agg_ranks: &[usize],
        my_io_ns: u64,
    ) -> Option<StragglerVerdict> {
        let durs = rank.allgatherv_shared(&my_io_ns.to_le_bytes());
        for (a, &ar) in agg_ranks.iter().enumerate() {
            let d = u64::from_le_bytes(
                durs.get(ar).try_into().expect("duration payload must be 8 bytes"),
            );
            if d > 0 {
                self.agg_ewma[a] = Some(ewma(self.agg_ewma[a], d));
            }
        }
        self.straggler()
    }

    /// The aggregator whose smoothed I/O time is more than twice the mean
    /// of its peers' (strict, so a clean 2:1 split does not churn; needs
    /// ≥ 2 aggregators with samples; first index wins ties,
    /// deterministically), with the load table the rebalancer splits the
    /// handoff by.
    fn straggler(&self) -> Option<StragglerVerdict> {
        let known: Vec<(usize, u64)> =
            self.agg_ewma.iter().enumerate().filter_map(|(i, e)| e.map(|v| (i, v))).collect();
        if known.len() < 2 {
            return None;
        }
        let (mut mi, mut mv) = known[0];
        for &(i, v) in &known[1..] {
            if v > mv {
                (mi, mv) = (i, v);
            }
        }
        let others: u64 = known.iter().filter(|&&(i, _)| i != mi).map(|&(_, v)| v).sum();
        let avg = others / (known.len() as u64 - 1);
        if avg == 0 || mv <= 2 * avg {
            return None;
        }
        Some(StragglerVerdict { straggler: mi, loads: known })
    }
}

/// What the drive loops ask of an engine in either direction. The driver
/// owns everything engine-specific — schedules, cursors, buffers, charge
/// accounting — and the drive loop owns everything depth-specific. A
/// direction adds its two halves on top: [`WriteDriver`] for
/// [`drive_write`], [`ReadDriver`] for [`drive_read`].
pub(crate) trait CycleDriver {
    /// Total buffer cycles this collective call runs.
    fn n_cycles(&self) -> usize;

    /// Crash boundary before cycle `i` moves any data: the one place a
    /// scheduled rank crash may fire and dead peers are detected, so every
    /// survivor sees the same partial-cycle prefix. Returning the peers
    /// found dead aborts the drive loop — remaining cycles are skipped,
    /// in-flight I/O is drained, and the outcome carries the dead set. The
    /// default (no crash machinery) never aborts.
    fn boundary(&mut self, _i: usize) -> Option<Vec<usize>> {
        None
    }

    /// Top-of-cycle accounting before any data moves (e.g. charging the
    /// cycle's derivation pairs). Runs exactly once per cycle, in order,
    /// whatever the pipeline depth.
    fn begin_cycle(&mut self, _i: usize) {}
}

/// The write direction's halves: exchange into a collective buffer, then
/// commit it to the file.
pub(crate) trait WriteDriver: CycleDriver {
    /// One cycle's exchanged collective buffer in engine-specific form.
    type Stage;

    /// Exchange half — the cycle's collective data movement, no file
    /// contact, so the drive loop may run it while earlier cycles' I/O is
    /// still in flight. `None` on ranks with no file data this cycle.
    fn exchange(&mut self, i: usize) -> Option<Self::Stage>;

    /// Issue half — commit the stage to the file. The completion carries
    /// the op's virtual window and the first retry-exhausted fault; the
    /// drive loop decides whether to block on it (depth 1) or keep it in
    /// flight.
    fn issue(&mut self, i: usize, stage: Self::Stage) -> IoCompletion;
}

/// The read direction's halves: read a cycle's window into a collective
/// buffer, then distribute it.
pub(crate) trait ReadDriver: CycleDriver {
    /// One cycle's filled collective buffer in engine-specific form.
    type Stage;

    /// Issue half — read cycle `i`'s window into a fresh collective
    /// buffer: the completion and the filled stage, or `None` — with
    /// nothing charged, so a re-issue is free — on ranks with no file
    /// data this cycle.
    fn issue(&mut self, i: usize) -> Option<(IoCompletion, Self::Stage)>;

    /// Distribute half — collective: every rank calls it every cycle,
    /// with the stage its issue filled (`None` on idle ranks).
    fn distribute(&mut self, i: usize, stage: Option<Self::Stage>);
}

/// The depth state both drive loops keep: the cap and the smoothed
/// durations it follows, the straggler watch and the outcome so far.
struct Pace<'a> {
    policy: CapPolicy,
    cap: usize,
    // Smoothed I/O and exchange durations feeding the auto depth policy:
    // one fast or slow cycle does not swing the cap to its own ratio.
    ewma_io: Option<u64>,
    ewma_exch: Option<u64>,
    /// The watched aggregator ranks and their detector. Only under a
    /// fault plan (the per-cycle allgather would otherwise break
    /// fault-free charge identity) and with at least two aggregators.
    watch: Option<(&'a [usize], StragglerDetector)>,
    outcome: CycleOutcome,
}

impl<'a> Pace<'a> {
    fn new(handle: &FileHandle, policy: CapPolicy, watch: Option<&'a [usize]>) -> Pace<'a> {
        let watch = watch
            .filter(|a| handle.pfs().fault_plan().is_some() && a.len() >= 2)
            .map(|a| (a, StragglerDetector::new(a.len())));
        let (cap, outcome) = (policy.initial_cap(), CycleOutcome::default());
        Pace { policy, cap, ewma_io: None, ewma_exch: None, watch, outcome }
    }

    /// Note an issued I/O's first fault; returns its duration.
    fn issued(&mut self, io: &IoCompletion) -> u64 {
        self.outcome.err = self.outcome.err.or(io.error());
        io.duration()
    }

    /// An I/O kept in flight as the `depth`-th buffer, after an exchange
    /// of `exch_ns`: record the depth reached and re-derive the cap.
    fn in_flight(&mut self, rank: &Rank, io: &IoCompletion, exch_ns: u64, depth: usize) {
        rank.tally(|s| s.pipeline_depth_used = s.pipeline_depth_used.max(depth as u64));
        let (io_ns, exch) = (ewma(self.ewma_io, io.duration()), ewma(self.ewma_exch, exch_ns));
        (self.ewma_io, self.ewma_exch) = (Some(io_ns), Some(exch));
        self.cap = self.policy.adapt(io_ns, exch);
    }

    /// Feed the straggler watch this cycle's local I/O time.
    fn observe(&mut self, rank: &Rank, cycle_io_ns: u64) {
        if let Some((ranks, detector)) = &mut self.watch {
            if let Some(v) = detector.observe(rank, ranks, cycle_io_ns) {
                rank.tally(|s| s.degraded_cycles += 1);
                self.outcome.straggler = Some(v);
            }
        }
    }
}

/// Block on `io` at once. Begin/complete (rather than a raw advance +
/// note) keeps the phase buckets summing to elapsed even when a copy
/// inside the issue already charged Compute time; nothing is hidden, so
/// `overlap_saved_ns` stays 0.
fn wait_now(rank: &Rank, io: &IoCompletion) {
    rank.overlap_complete(rank.overlap_begin(io.done_at(), Phase::Io));
    rank.tally(|s| s.pipeline_depth_used = s.pipeline_depth_used.max(1));
}

/// Drive the write cycles as an N-deep software pipeline: up to `cap`
/// cycles of file I/O stay in flight while the next cycle's exchange runs
/// (into its own collective buffer), and an I/O is only waited on when its
/// buffer must be reused — charging `max(io, exchange)` across the whole
/// window instead of their sum. Cycle 0's exchange is the fill prologue,
/// the trailing waits the drain epilogue. `cap == 1` is charge-for-charge
/// the classic double-buffered engine; `cap == 0` issues and immediately
/// waits every cycle, charge-for-charge the serial engine. Under
/// [`CapPolicy::Auto`] the cap follows the measured I/O:exchange ratio up
/// to `MAX_INFLIGHT`, whatever bound `policy` carries (the stripe-width
/// bound is the read side's).
///
/// `watch` enables the straggler detector over those aggregator ranks
/// (`None` for engines with nothing to rebalance); `derive_win` is an
/// open overlap window settled after cycle 0's exchange (the flexible
/// engine's derive-overlap; `None` otherwise).
pub(crate) fn drive_write<D: WriteDriver>(
    rank: &Rank,
    handle: &FileHandle,
    driver: &mut D,
    policy: CapPolicy,
    watch: Option<&[usize]>,
    mut derive_win: Option<OverlapWindow>,
) -> CycleOutcome {
    let mut pace = Pace::new(handle, policy.for_writes(), watch);
    let mut inflight: VecDeque<OverlapWindow> = VecDeque::new();
    for i in 0..driver.n_cycles() {
        if let Some(dead) = driver.boundary(i) {
            pace.outcome.dead = Some(dead);
            break;
        }
        driver.begin_cycle(i);
        let exch_t0 = rank.now();
        let stage = driver.exchange(i);
        let exch_ns = rank.now().saturating_sub(exch_t0);
        if i == 0 {
            // Cycle 1+'s derivation has been overlapping this exchange;
            // cycle 1 needs it next, so settle up now.
            if let Some(w) = derive_win.take() {
                rank.overlap_complete(w);
            }
        }
        // All cap+1 collective buffers are full once the next exchange has
        // run: drain the oldest in-flight I/O before reusing its buffer.
        while inflight.len() >= pace.cap.max(1) {
            rank.overlap_complete(inflight.pop_front().expect("nonempty"));
        }
        let mut cycle_io_ns = 0u64;
        if let Some(stage) = stage {
            let io = driver.issue(i, stage);
            cycle_io_ns = pace.issued(&io);
            if pace.cap == 0 {
                wait_now(rank, &io);
            } else {
                inflight.push_back(rank.overlap_begin(io.done_at(), Phase::Io));
                handle.note_queued(inflight.len());
                pace.in_flight(rank, &io, exch_ns, inflight.len() + 1);
            }
        }
        pace.observe(rank, cycle_io_ns);
        // If Auto just lowered the cap, fall back to it right away.
        while inflight.len() > pace.cap {
            rank.overlap_complete(inflight.pop_front().expect("nonempty"));
        }
    }
    for w in inflight {
        rank.overlap_complete(w);
    }
    pace.outcome
}

/// Drive the read cycles as an N-deep pipeline running in the opposite
/// direction from writes: up to `cap` future cycles' file reads are
/// prefetched (each into its own collective buffer) before the current
/// cycle's data is distributed, so read latency hides behind the
/// exchange/scatter work of the cycles in between. Cycle 0's read is
/// waited on immediately (fill prologue — there is nothing to overlap it
/// with). `cap == 1` is charge-for-charge the classic double-buffered
/// engine; `cap == 0` reads, waits, and distributes serially, matching
/// the serial engine charge for charge. Under [`CapPolicy::Auto`] the cap
/// follows the measured I/O:distribute ratio up to the policy's stripe-width
/// bound.
pub(crate) fn drive_read<D: ReadDriver>(
    rank: &Rank,
    handle: &FileHandle,
    driver: &mut D,
    policy: CapPolicy,
    watch: Option<&[usize]>,
    mut derive_win: Option<OverlapWindow>,
) -> CycleOutcome {
    let n = driver.n_cycles();
    let mut pace = Pace::new(handle, policy, watch);
    // Prefetched reads: (cycle index, overlap window, filled stage), in
    // cycle order. `next` is the first cycle not yet issued.
    let mut q: VecDeque<(usize, OverlapWindow, D::Stage)> = VecDeque::new();
    let mut next = 0usize;
    // The previous cycle's distribute duration — the exchange-side work a
    // prefetched read hides behind.
    let mut exch_ns = 0u64;
    for i in 0..n {
        if let Some(dead) = driver.boundary(i) {
            pace.outcome.dead = Some(dead);
            break;
        }
        driver.begin_cycle(i);
        let mut cycle_io_ns = 0u64;
        let stage = if q.front().is_some_and(|(c, _, _)| *c == i) {
            // This cycle's read was prefetched; its window has been
            // overlapping the distributions since. Drain it now.
            let (_, w, stage) = q.pop_front().expect("nonempty");
            rank.overlap_complete(w);
            Some(stage)
        } else {
            // Fill (or serial path, or an idle cycle between prefetches):
            // issue this cycle's read and block on it.
            driver.issue(i).map(|(io, stage)| {
                cycle_io_ns += pace.issued(&io);
                wait_now(rank, &io);
                stage
            })
        };
        next = next.max(i + 1);
        if i == 0 {
            // Cycle 1+'s derivation overlapped the fill read; settle up
            // before prefetching needs its piece lists.
            if let Some(w) = derive_win.take() {
                rank.overlap_complete(w);
            }
        }
        // Prefetch up to `cap` cycles ahead of the one being distributed.
        while pace.cap > 0 && next < n && q.len() < pace.cap && next <= i + pace.cap {
            if let Some((io, stage)) = driver.issue(next) {
                cycle_io_ns += pace.issued(&io);
                let w = rank.overlap_begin(io.done_at(), Phase::Io);
                q.push_back((next, w, stage));
                handle.note_queued(q.len());
                pace.in_flight(rank, &io, exch_ns, q.len() + 1);
            }
            next += 1;
        }
        pace.observe(rank, cycle_io_ns);
        let dist_t0 = rank.now();
        driver.distribute(i, stage);
        exch_ns = rank.now().saturating_sub(dist_t0);
    }
    debug_assert!(
        q.is_empty() || pace.outcome.dead.is_some(),
        "a read stage was issued but never distributed"
    );
    // An aborted loop leaves prefetched reads in flight; drain their
    // windows.
    for (_, w, _) in q {
        rank.overlap_complete(w);
    }
    pace.outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hints(depth: PipelineDepth) -> Hints {
        Hints { pipeline_depth: depth, ..Hints::default() }
    }

    #[test]
    fn cap_policy_resolution() {
        // Fixed depth d = cap d-1, clamped to MAX_INFLIGHT.
        assert_eq!(CapPolicy::resolve(&hints(PipelineDepth::Fixed(1)), 8, 2), CapPolicy::Fixed(0));
        assert_eq!(CapPolicy::resolve(&hints(PipelineDepth::Fixed(4)), 8, 2), CapPolicy::Fixed(3));
        assert_eq!(
            CapPolicy::resolve(&hints(PipelineDepth::Fixed(99)), 8, 2),
            CapPolicy::Fixed(MAX_INFLIGHT)
        );
        // Auto's resolved bound, the read side's, follows the aggregator's
        // stripe share.
        assert_eq!(
            CapPolicy::resolve(&hints(PipelineDepth::Auto), 8, 2),
            CapPolicy::Auto { bound: 7 }
        );
        assert_eq!(
            CapPolicy::resolve(&hints(PipelineDepth::Auto), 4, 4),
            CapPolicy::Auto { bound: 2 }
        );
        assert_eq!(
            CapPolicy::resolve(&hints(PipelineDepth::Auto), 1, 8),
            CapPolicy::Auto { bound: 1 }
        );
    }

    #[test]
    fn writes_bound_auto_by_max_inflight_alone() {
        // However small the stripe share, the write side may go to
        // MAX_INFLIGHT; a fixed depth is the same in both directions.
        for (n_osts, n_aggs) in [(1, 8), (1, 256), (4, 4), (8, 2)] {
            let auto = CapPolicy::resolve(&hints(PipelineDepth::Auto), n_osts, n_aggs);
            assert_eq!(auto.for_writes(), CapPolicy::Auto { bound: MAX_INFLIGHT });
            assert_eq!(auto.for_writes().adapt(9000, 1000), MAX_INFLIGHT);
        }
        let read = CapPolicy::resolve(&hints(PipelineDepth::Auto), 1, 256);
        assert_eq!(read.adapt(9000, 1000), 1);
        for c in [0, 1, 3, MAX_INFLIGHT] {
            assert_eq!(CapPolicy::Fixed(c).for_writes(), CapPolicy::Fixed(c));
        }
    }

    #[test]
    fn auto_adapts_fixed_does_not() {
        let auto = CapPolicy::Auto { bound: 4 };
        assert_eq!(auto.adapt(1000, 1000), 1);
        assert_eq!(auto.adapt(3500, 1000), 4);
        assert_eq!(auto.adapt(9000, 1000), 4); // clamped to bound
        assert_eq!(auto.adapt(100, 0), 4); // zero exchange guarded
        let fixed = CapPolicy::Fixed(2);
        assert_eq!(fixed.adapt(9000, 1), 2);
        assert_eq!(fixed.initial_cap(), 2);
        assert_eq!(auto.initial_cap(), 1);
    }

    #[test]
    fn derive_overlap_gates() {
        assert!(!CapPolicy::Fixed(0).allows_derive_overlap());
        assert!(!CapPolicy::Fixed(1).allows_derive_overlap());
        assert!(CapPolicy::Fixed(2).allows_derive_overlap());
        assert!(CapPolicy::Auto { bound: 1 }.allows_derive_overlap());
    }

    #[test]
    fn straggler_detector_needs_a_clear_excess() {
        let mut d = StragglerDetector::new(3);
        d.agg_ewma = vec![Some(100), Some(100), Some(201)];
        let v = d.straggler().expect("2x excess must flag");
        assert_eq!(v.straggler, 2);
        assert_eq!(v.loads, vec![(0, 100), (1, 100), (2, 201)]);
        // A clean 2:1 split must not churn (strict threshold).
        d.agg_ewma = vec![Some(100), Some(100), Some(200)];
        assert!(d.straggler().is_none());
        // One sample is not a comparison.
        d.agg_ewma = vec![None, None, Some(500)];
        assert!(d.straggler().is_none());
    }
}
