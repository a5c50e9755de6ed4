//! Deterministic fault injection for the PFS simulator.
//!
//! A [`FaultPlan`] describes *what can go wrong* in the file system —
//! transient per-OST request errors, torn writes and straggler OSTs (a
//! service-time multiplier) — and a seed. Ranks that crash-stop are not
//! file-system faults: the world that runs them schedules those
//! (`flexio_sim::run_crashable`).
//! The [`FaultInjector`] built from a plan makes every decision from
//! `hash(seed, ost, per-OST request index)`, so a plan is reproducible
//! for a given sequence of requests regardless of wall-clock effects:
//! the same rank issuing the same requests sees the same faults.
//!
//! Faults only perturb *time* and *outcomes*, never data: a request that
//! fails moves no bytes, so a retry of the same request is idempotent.

use std::sync::atomic::{AtomicU64, Ordering};

/// What kind of PFS failure occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PfsErrorKind {
    /// A transient per-request OST error (dropped RPC, brief target
    /// failover): the request moved no data and may be retried.
    TransientOst,
    /// A torn write: the OST persisted only a prefix of the request
    /// before failing it (client crash mid-RPC, target power loss). A
    /// retry — a full idempotent rewrite — heals the tear; a crash before
    /// the retry leaves the prefix on disk, which is exactly what the
    /// epoch-commit protocol (`flexio_workload::epoch`) exists to mask.
    TornWrite,
}

/// An injected PFS failure, surfaced by fallible [`crate::FileHandle`]
/// operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfsError {
    /// The failure class.
    pub kind: PfsErrorKind,
    /// Index of the OST whose request failed.
    pub ost: usize,
    /// Virtual time (ns) the failure was detected at the client.
    pub at: u64,
}

impl std::fmt::Display for PfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            PfsErrorKind::TransientOst => {
                write!(f, "transient error from OST {} at t={} ns", self.ost, self.at)
            }
            PfsErrorKind::TornWrite => {
                write!(f, "torn write on OST {} at t={} ns (prefix persisted)", self.ost, self.at)
            }
        }
    }
}

impl std::error::Error for PfsError {}

/// A straggler OST: every request on `ost` takes `multiplier`× its
/// normal service time *as observed by the requester*. The extra span is
/// reply latency at a degraded target, not pipeline occupancy, so
/// concurrent requests from different clients still overlap — spreading
/// a slow realm over more aggregators hides the penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerSpec {
    /// The slow OST.
    pub ost: usize,
    /// Service-time multiplier (≥ 1.0; 1.0 is a no-op).
    pub multiplier: f64,
}

/// Seeded description of the faults to inject. An empty default plan
/// injects nothing (and [`crate::Pfs::new`] doesn't even install one, so
/// the fault-free fast path stays charge-identical).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// PRNG seed (xorshift64*-style hashing; 0 is remapped internally).
    pub seed: u64,
    /// Probability in `[0, 1]` that any one OST request fails
    /// transiently.
    pub transient_rate: f64,
    /// Probability in `[0, 1]` that a write request tears: a
    /// deterministically drawn prefix persists, the request fails with
    /// [`PfsErrorKind::TornWrite`].
    pub torn_rate: f64,
    /// Straggler OSTs.
    pub stragglers: Vec<StragglerSpec>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan { seed: 1, transient_rate: 0.0, torn_rate: 0.0, stragglers: Vec::new() }
    }
}

impl FaultPlan {
    /// A plan with only a transient per-request error rate.
    pub fn transient(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan { seed, transient_rate: rate, ..FaultPlan::default() }
    }

    /// A plan with a single straggler OST.
    pub fn straggler(ost: usize, multiplier: f64) -> FaultPlan {
        FaultPlan { stragglers: vec![StragglerSpec { ost, multiplier }], ..FaultPlan::default() }
    }
}

/// Runtime state evaluating a [`FaultPlan`]: per-OST request counters
/// plus the precomputed decision threshold.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Transient-rate threshold scaled to u64 space.
    threshold: u64,
    /// Torn-write-rate threshold scaled to u64 space.
    torn_threshold: u64,
    /// Per-OST count of requests seen, indexing the decision hash.
    req_counts: Vec<AtomicU64>,
    /// Per-OST count of torn-write rolls — a separate stream so adding
    /// `torn_rate` to a plan never perturbs the transient decisions.
    torn_counts: Vec<AtomicU64>,
}

/// One round of the splitmix64 finalizer — a strong 64-bit mix used to
/// turn `(seed, ost, request-index)` into an i.i.d.-looking decision
/// stream (same family as the repo's xorshift64* PRNG).
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic draw `i` of stream `seed`, in `0..range`, for the crate's
/// own randomized unit tests (which have no PRNG crate to lean on).
#[cfg(test)]
pub(crate) fn test_draw(seed: u64, i: u64, range: u64) -> u64 {
    mix64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i) % range
}

impl FaultInjector {
    /// Build an injector for `n_osts` OSTs.
    pub fn new(plan: FaultPlan, n_osts: usize) -> FaultInjector {
        assert!((0.0..=1.0).contains(&plan.transient_rate), "transient_rate must be in [0, 1]");
        assert!((0.0..=1.0).contains(&plan.torn_rate), "torn_rate must be in [0, 1]");
        for s in &plan.stragglers {
            assert!(s.ost < n_osts, "straggler OST {} out of range", s.ost);
            assert!(s.multiplier >= 1.0, "straggler multiplier must be >= 1");
        }
        let to_threshold = |rate: f64| {
            if rate >= 1.0 {
                u64::MAX
            } else {
                (rate * u64::MAX as f64) as u64
            }
        };
        let seed = if plan.seed == 0 { 0x9e37_79b9_7f4a_7c15 } else { plan.seed };
        FaultInjector {
            threshold: to_threshold(plan.transient_rate),
            torn_threshold: to_threshold(plan.torn_rate),
            req_counts: (0..n_osts).map(|_| AtomicU64::new(0)).collect(),
            torn_counts: (0..n_osts).map(|_| AtomicU64::new(0)).collect(),
            plan: FaultPlan { seed, ..plan },
        }
    }

    /// The plan this injector evaluates.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decide whether the next request on `ost` fails transiently.
    /// Deterministic in (seed, ost, per-OST request index).
    pub fn roll_transient(&self, ost: usize) -> bool {
        if self.plan.transient_rate <= 0.0 {
            return false;
        }
        if self.plan.transient_rate >= 1.0 {
            self.req_counts[ost].fetch_add(1, Ordering::Relaxed);
            return true;
        }
        let idx = self.req_counts[ost].fetch_add(1, Ordering::Relaxed);
        let h = mix64(self.plan.seed ^ mix64(ost as u64 + 1).wrapping_add(mix64(idx)));
        h < self.threshold
    }

    /// Decide whether the next write on `ost` tears, and if so how much
    /// of it persists: returns the surviving prefix fraction in
    /// `[0, 1)`. A separate decision stream from [`roll_transient`], so
    /// plans that add tearing reproduce their transient faults exactly.
    ///
    /// [`roll_transient`]: FaultInjector::roll_transient
    pub fn roll_torn(&self, ost: usize) -> Option<f64> {
        if self.plan.torn_rate <= 0.0 {
            return None;
        }
        let idx = self.torn_counts[ost].fetch_add(1, Ordering::Relaxed);
        // Distinct salt (the leading xor) keeps this stream independent
        // of the transient one at the same (seed, ost, idx).
        let h = mix64(self.plan.seed ^ 0x7065 ^ mix64(ost as u64 + 1).wrapping_add(mix64(idx)));
        if self.plan.torn_rate < 1.0 && h >= self.torn_threshold {
            return None;
        }
        // Re-mix for the prefix draw so it's independent of the fire/no-
        // fire decision.
        Some((mix64(h) >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Extra service ns for a request of duration `dur` on `ost` (0 on an
    /// OST no straggler names). Two stragglers on one OST do not stack:
    /// the request observes the *worst* multiplier — a degraded target is
    /// one device with one (slowest) service rate, not several penalties
    /// in series.
    pub fn straggler_extra(&self, ost: usize, dur: u64) -> u64 {
        let worst = self
            .plan
            .stragglers
            .iter()
            .filter(|s| s.ost == ost)
            .fold(1.0f64, |worst, s| worst.max(s.multiplier));
        ((worst - 1.0) * dur as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_fires() {
        let inj = FaultInjector::new(FaultPlan::default(), 4);
        for _ in 0..1000 {
            assert!(!inj.roll_transient(0));
        }
    }

    #[test]
    fn full_rate_always_fires() {
        let inj = FaultInjector::new(FaultPlan::transient(7, 1.0), 2);
        for _ in 0..100 {
            assert!(inj.roll_transient(1));
        }
    }

    #[test]
    fn rate_roughly_respected_and_deterministic() {
        let count = |seed| {
            let inj = FaultInjector::new(FaultPlan::transient(seed, 0.25), 1);
            (0..4000).filter(|_| inj.roll_transient(0)).count()
        };
        let n = count(42);
        assert!((700..1300).contains(&n), "0.25 rate fired {n}/4000 times");
        assert_eq!(n, count(42), "same seed must reproduce the same stream");
        assert_ne!(n, count(43), "different seeds should differ (overwhelmingly)");
    }

    #[test]
    fn straggler_scales_only_its_own_ost() {
        let inj = FaultInjector::new(
            FaultPlan {
                stragglers: vec![StragglerSpec { ost: 1, multiplier: 3.0 }],
                ..FaultPlan::default()
            },
            4,
        );
        assert_eq!(inj.straggler_extra(1, 1000), 2000);
        for ost in [0, 2, 3] {
            assert_eq!(inj.straggler_extra(ost, 1000), 0, "OST {ost} unaffected");
        }
    }

    #[test]
    fn persistent_straggler_helper() {
        let inj = FaultInjector::new(FaultPlan::straggler(2, 2.0), 4);
        assert_eq!(inj.straggler_extra(2, 500), 500);
    }

    #[test]
    #[should_panic(expected = "transient_rate")]
    fn bad_rate_rejected() {
        FaultInjector::new(FaultPlan::transient(1, 1.5), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_straggler_ost_rejected() {
        FaultInjector::new(FaultPlan::straggler(9, 2.0), 4);
    }

    #[test]
    fn error_display() {
        let e = PfsError { kind: PfsErrorKind::TransientOst, ost: 3, at: 42 };
        let s = e.to_string();
        assert!(s.contains("OST 3") && s.contains("42"), "{s}");
        let t = PfsError { kind: PfsErrorKind::TornWrite, ost: 1, at: 9 }.to_string();
        assert!(t.contains("torn") && t.contains("OST 1"), "{t}");
    }

    /// Two stragglers on one OST observe the worst multiplier, not the
    /// sum of penalties: a 3× and a 2× straggler are a 3× device, not 4×.
    #[test]
    fn two_stragglers_on_one_ost_take_max_not_sum() {
        let slow = |multiplier| StragglerSpec { ost: 0, multiplier };
        let inj = FaultInjector::new(
            FaultPlan { stragglers: vec![slow(2.0), slow(3.0)], ..FaultPlan::default() },
            1,
        );
        assert_eq!(inj.straggler_extra(0, 100), 200, "max, not sum");
    }

    #[test]
    fn torn_zero_rate_never_fires() {
        let inj = FaultInjector::new(FaultPlan::default(), 2);
        for _ in 0..500 {
            assert!(inj.roll_torn(0).is_none());
        }
    }

    #[test]
    fn torn_full_rate_always_fires_with_valid_fraction() {
        let inj =
            FaultInjector::new(FaultPlan { seed: 11, torn_rate: 1.0, ..FaultPlan::default() }, 2);
        for _ in 0..200 {
            let frac = inj.roll_torn(1).expect("rate 1.0 must always tear");
            assert!((0.0..1.0).contains(&frac), "prefix fraction {frac} out of range");
        }
    }

    #[test]
    fn torn_rate_roughly_respected_and_deterministic() {
        let draws = |seed| {
            let inj =
                FaultInjector::new(FaultPlan { seed, torn_rate: 0.25, ..FaultPlan::default() }, 1);
            (0..4000).filter_map(|_| inj.roll_torn(0)).collect::<Vec<f64>>()
        };
        let d = draws(42);
        assert!((700..1300).contains(&d.len()), "0.25 rate fired {}/4000 times", d.len());
        assert_eq!(d, draws(42), "same seed must reproduce the same tears");
        assert_ne!(d, draws(43));
    }

    /// The torn stream is independent: adding `torn_rate` to a plan must
    /// not change which requests fail transiently.
    #[test]
    fn torn_stream_does_not_perturb_transient_stream() {
        let transients = |torn_rate| {
            let inj = FaultInjector::new(
                FaultPlan { seed: 5, transient_rate: 0.3, torn_rate, ..FaultPlan::default() },
                1,
            );
            (0..1000)
                .map(|_| {
                    let _ = inj.roll_torn(0); // interleave the streams
                    inj.roll_transient(0)
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(transients(0.0), transients(0.5));
    }

    #[test]
    #[should_panic(expected = "torn_rate")]
    fn bad_torn_rate_rejected() {
        FaultInjector::new(FaultPlan { torn_rate: -0.1, ..FaultPlan::default() }, 1);
    }
}
