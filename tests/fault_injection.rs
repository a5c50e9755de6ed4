//! Chaos suite: deterministic fault injection through both engines.
//!
//! The fault model's contract is that faults perturb *time* and
//! *outcomes*, never data, and that collective calls stay collective.
//! Property-tested over random workloads, engines, hint combinations and
//! fault plans (transient OST errors, straggler OSTs):
//!
//! * every rank of a collective call returns the same `Ok`/`Err`
//!   outcome, and any error is a collectively-agreed
//!   [`IoError::Transient`] — never a hang or a split outcome;
//! * the bytes on disk and the bytes read back are identical to a
//!   fault-free oracle run of the same workload, even when retries
//!   exhaust mid-call;
//! * retry accounting is conservative: `sum(io_retries)` across ranks
//!   never exceeds the injector's `faults_injected`;
//! * each rank's phase buckets still sum to its elapsed clock;
//! * with no plan installed, every fault counter stays zero.

use flexio::core::{Engine, Hints, IoError, PipelineDepth};
use flexio::pfs::{FaultPlan, Pfs, PfsConfig, PfsCostModel, StragglerSpec};
use flexio::sim::prop::Runner;
use flexio::sim::{Stats, XorShift64Star};
use flexio::workload::{read_file, run_tiled, PhaseResult, TiledShape};
use std::sync::Arc;

/// One randomized chaos case: a tiled collective workload, the engine and
/// hints to run it under, and the fault plan to inject.
#[derive(Debug, Clone)]
struct Chaos {
    nprocs: usize,
    /// Bytes per filetype block.
    block: u64,
    /// Filetype repetitions per collective call.
    reps: u64,
    /// Collective writes before the final collective read.
    steps: u64,
    aggs: usize,
    cb: usize,
    engine: Engine,
    pfr: bool,
    depth: PipelineDepth,
    io_retries: u32,
    backoff_us: u64,
    locking: bool,
    plan: FaultPlan,
}

fn random_chaos(rng: &mut XorShift64Star) -> Chaos {
    let nprocs = 2 + (rng.next_u64() % 5) as usize; // 2..=6
    let mut plan = FaultPlan::transient(rng.next_u64(), (rng.next_u64() % 251) as f64 / 1000.0);
    if rng.next_u64().is_multiple_of(3) {
        plan.stragglers.push(StragglerSpec {
            ost: (rng.next_u64() % 4) as usize,
            multiplier: 1.0 + (rng.next_u64() % 8) as f64,
        });
    }
    let locking = rng.next_u64().is_multiple_of(4);
    Chaos {
        nprocs,
        block: 8 * (1 + rng.next_u64() % 8), // 8..=64
        reps: 4 + rng.next_u64() % 21,       // 4..=24
        steps: 1 + rng.next_u64() % 3,
        aggs: 1 + (rng.next_u64() as usize) % nprocs,
        cb: [128, 256, 512, 1024][(rng.next_u64() % 4) as usize],
        engine: if rng.next_u64().is_multiple_of(2) { Engine::Flexible } else { Engine::Romio },
        pfr: {
            // Once the exchange flavour's coin, still drawn so that a
            // pinned seed replays the case it always drew.
            rng.next_u64();
            rng.next_u64().is_multiple_of(2)
        },
        depth: match rng.next_u64() % 4 {
            0..=2 => PipelineDepth::Fixed(1 + (rng.next_u64() % 4) as u32),
            _ => PipelineDepth::Auto,
        },
        io_retries: 10 + (rng.next_u64() % 7) as u32, // 10..=16
        backoff_us: rng.next_u64() % 300,
        locking,
        plan,
    }
}

fn chaos_pfs(c: &Chaos, faults: bool) -> Arc<Pfs> {
    let cfg = PfsConfig {
        n_osts: 4,
        stripe_size: 512,
        page_size: 64,
        locking: c.locking,
        lock_expansion: false,
        client_cache: false,
        cost: PfsCostModel::default(),
    };
    if faults {
        Pfs::with_faults(cfg, c.plan.clone())
    } else {
        Pfs::new(cfg)
    }
}

fn chaos_hints(c: &Chaos) -> Hints {
    Hints {
        engine: c.engine,
        cb_nodes: Some(c.aggs),
        cb_buffer_size: c.cb,
        persistent_file_realms: c.pfr,
        pipeline_depth: c.depth,
        io_retries: c.io_retries,
        retry_backoff_us: c.backoff_us,
        ..Hints::default()
    }
}

/// `c`'s workload as the shared tiled shape.
fn chaos_shape(c: &Chaos) -> TiledShape {
    TiledShape { nprocs: c.nprocs, block: c.block, reps: c.reps, steps: c.steps }
}

/// Run `c`'s workload (`steps` collective writes, one collective read),
/// with or without the fault plan installed. Returns the file image, the
/// injector's fault count, and every rank's outcome.
fn roundtrip(c: &Chaos, faults: bool) -> (Vec<u8>, u64, PhaseResult) {
    let pfs = chaos_pfs(c, faults);
    let out = run_tiled(&pfs, "chaos", chaos_shape(c), &chaos_hints(c), true);
    let img = read_file(&pfs, "chaos");
    (img, pfs.stats().faults_injected, out)
}

/// The tentpole chaos property: under any random plan, outcomes agree on
/// every rank, data matches the fault-free oracle byte for byte, and the
/// retry ledger never exceeds the faults actually injected.
#[test]
fn chaos_collectives_stay_collective() {
    Runner::new("chaos_collectives_stay_collective")
        .cases(24)
        .regressions(include_str!("fault_injection.proptest-regressions"))
        .run(random_chaos, |c| {
            let (img_f, faults, out_f) = roundtrip(c, true);
            let (img_o, oracle_faults, out_o) = roundtrip(c, false);
            assert_eq!(oracle_faults, 0, "oracle must inject nothing");
            assert_eq!(img_f, img_o, "file image must not depend on faults");
            let lead = &out_f.outcomes[0];
            for (r, results) in out_f.outcomes.iter().enumerate() {
                let (now, s, back) = (&out_f.clocks[r], &out_f.stats[r], &out_f.read_backs[r]);
                assert_eq!(results, lead, "rank {r} collective outcome differs");
                for res in results {
                    if let Err(e) = res {
                        assert!(
                            matches!(e, IoError::Transient(_)),
                            "rank {r}: collective error must be Transient, got {e:?}"
                        );
                    }
                }
                assert_eq!(back, &out_o.read_backs[r], "rank {r} read-back diverges");
                assert_eq!(s.phase_ns.iter().sum::<u64>(), *now, "rank {r} phase sum");
            }
            let retries: u64 = out_f.sum(|s| s.io_retries);
            assert!(retries <= faults, "retries {retries} exceed faults {faults}");
            for (r, s) in out_o.stats.iter().enumerate() {
                assert_eq!(s.io_retries, 0, "oracle rank {r} retried");
                assert_eq!(s.degraded_cycles, 0, "oracle rank {r} degraded");
                assert_eq!(s.realms_rebalanced, 0, "oracle rank {r} rebalanced");
            }
        });
}

/// At `transient_rate` 1.0 every retry budget exhausts: each collective
/// call must return the *same* `IoError::Transient` on every rank — the
/// agreement reduction, not luck — while the data still lands.
#[test]
fn exhausted_retries_agree_on_one_error() {
    for engine in [Engine::Flexible, Engine::Romio] {
        let c = Chaos {
            nprocs: 4,
            block: 64,
            reps: 8,
            steps: 2,
            aggs: 2,
            cb: 512,
            engine,
            pfr: false,
            depth: PipelineDepth::Fixed(2),
            io_retries: 2,
            backoff_us: 50,
            locking: false,
            plan: FaultPlan::transient(7, 1.0),
        };
        let (img_f, faults, out_f) = roundtrip(&c, true);
        let (img_o, _, _) = roundtrip(&c, false);
        assert!(faults > 0, "{engine:?}: rate 1.0 must inject faults");
        assert_eq!(img_f, img_o, "{engine:?}: bytes must land despite exhaustion");
        let lead = &out_f.outcomes[0];
        assert!(
            lead.iter().all(|r| matches!(r, Err(IoError::Transient(_)))),
            "{engine:?}: every call must exhaust its retries, got {lead:?}"
        );
        // Retry-count saturation keeps the cause: the surfaced error's
        // `source()` chain must bottom out at the injected PFS fault.
        for r in lead {
            let e = r.as_ref().expect_err("exhaustion checked above");
            let src = std::error::Error::source(e)
                .unwrap_or_else(|| panic!("{engine:?}: exhausted error lost its source: {e}"));
            let pe = src
                .downcast_ref::<flexio::pfs::PfsError>()
                .expect("source must be the underlying PfsError");
            assert_eq!(pe.kind, flexio::pfs::PfsErrorKind::TransientOst);
            assert!(src.source().is_none(), "PfsError is the chain's root");
        }
        for (r, o) in out_f.outcomes.iter().enumerate() {
            assert_eq!(o, lead, "{engine:?}: rank {r} disagrees on the error");
        }
        let retries: u64 = out_f.sum(|s| s.io_retries);
        assert!(retries <= faults, "{engine:?}: retries {retries} > faults {faults}");
    }
}

/// No plan installed: the fault path must be invisible — zero retries,
/// zero degradation, zero injected faults, all calls `Ok`.
#[test]
fn disabled_faults_count_nothing() {
    for engine in [Engine::Flexible, Engine::Romio] {
        let c = Chaos {
            nprocs: 4,
            block: 32,
            reps: 16,
            steps: 2,
            aggs: 3,
            cb: 256,
            engine,
            pfr: true,
            depth: PipelineDepth::Auto,
            io_retries: 4,
            backoff_us: 100,
            locking: false,
            plan: FaultPlan::default(),
        };
        let (_, faults, out) = roundtrip(&c, false);
        assert_eq!(faults, 0, "{engine:?}: faults injected without a plan");
        for (r, (s, results)) in out.stats.iter().zip(&out.outcomes).enumerate() {
            assert!(results.iter().all(|x| x.is_ok()), "{engine:?}: rank {r} errored");
            assert_eq!(s.io_retries, 0, "{engine:?}: rank {r} retried");
            assert_eq!(s.degraded_cycles, 0, "{engine:?}: rank {r} degraded");
            assert_eq!(s.realms_rebalanced, 0, "{engine:?}: rank {r} rebalanced");
        }
    }
}

/// A persistent straggler OST under the flexible engine with persistent
/// file realms: the EWMA detector must flag degraded cycles and the
/// engine must rebalance realms away from the slow aggregator — without
/// changing a single byte relative to the fault-free oracle.
#[test]
fn straggler_degrades_and_rebalances() {
    // Geometry chosen so each aggregator's realm maps to exactly one
    // OST: 4 ranks x 64 B blocks x 64 reps = 16 KiB span, 2 aggregators
    // -> 8 KiB block-cyclic realms, stripe 8 KiB over 2 OSTs.
    let c = Chaos {
        nprocs: 4,
        block: 64,
        reps: 64,
        steps: 4,
        aggs: 2,
        cb: 2048,
        engine: Engine::Flexible,
        pfr: true,
        depth: PipelineDepth::Fixed(1),
        io_retries: 4,
        backoff_us: 0,
        locking: false,
        plan: FaultPlan::straggler(0, 8.0),
    };
    let pfs_cfg = PfsConfig {
        n_osts: 2,
        stripe_size: 8192,
        page_size: 64,
        locking: false,
        lock_expansion: false,
        client_cache: false,
        cost: PfsCostModel::default(),
    };
    let mut hints = chaos_hints(&c);
    hints.fr_alignment = Some(2048);
    let run_once = |pfs: Arc<Pfs>| {
        let out = run_tiled(&pfs, "slow", chaos_shape(&c), &hints, false);
        assert!(out.outcomes.iter().all(|results| results.iter().all(|r| r.is_ok())));
        (read_file(&pfs, "slow"), out)
    };
    let (img_s, out_s) = run_once(Pfs::with_faults(pfs_cfg, c.plan.clone()));
    let (img_o, out_o) = run_once(Pfs::new(pfs_cfg));
    assert_eq!(img_s, img_o, "rebalancing must not change the bytes");
    let degraded: u64 = out_s.sum(|s| s.degraded_cycles);
    let rebalanced: u64 = out_s.sum(|s| s.realms_rebalanced);
    assert!(degraded > 0, "straggler OST never flagged as a degraded cycle");
    assert!(rebalanced > 0, "no realm rebalancing despite a persistent straggler");
    for (r, s) in out_o.stats.iter().enumerate() {
        assert_eq!(s.degraded_cycles, 0, "oracle rank {r} degraded");
        assert_eq!(s.realms_rebalanced, 0, "oracle rank {r} rebalanced");
    }
}

/// The proportional rebalancer must converge in ONE detection cycle: the
/// straggler's share shrinks straight to what its measured slowdown
/// supports (split across BOTH healthy aggregators), so later collective
/// calls see a balanced load and never trigger a second handoff. The old
/// halving-to-one-helper policy needed several detections to reach the
/// same point, each one dropping the schedule cache again.
#[test]
fn rebalance_converges_in_one_detection() {
    // Geometry: 6 ranks x 64 B blocks x 64 reps = 24 KiB span, 3
    // aggregators -> 8 KiB block-cyclic realms, stripe 8 KiB over 3 OSTs,
    // so each realm maps to exactly one OST and OST 0 (x8 slower) slows
    // exactly aggregator 0.
    let c = Chaos {
        nprocs: 6,
        block: 64,
        reps: 64,
        steps: 4,
        aggs: 3,
        cb: 2048,
        engine: Engine::Flexible,
        pfr: true,
        depth: PipelineDepth::Fixed(1),
        io_retries: 4,
        backoff_us: 0,
        locking: false,
        plan: FaultPlan::straggler(0, 8.0),
    };
    let pfs_cfg = PfsConfig {
        n_osts: 3,
        stripe_size: 8192,
        page_size: 64,
        locking: false,
        lock_expansion: false,
        client_cache: false,
        cost: PfsCostModel::default(),
    };
    let mut hints = chaos_hints(&c);
    hints.fr_alignment = Some(2048);
    let run_once = |pfs: Arc<Pfs>| {
        let out = run_tiled(&pfs, "conv", chaos_shape(&c), &hints, false);
        assert!(out.outcomes.iter().all(|results| results.iter().all(|r| r.is_ok())));
        (read_file(&pfs, "conv"), out)
    };
    let (img_s, out_s) = run_once(Pfs::with_faults(pfs_cfg, c.plan.clone()));
    let (img_o, _) = run_once(Pfs::new(pfs_cfg));
    assert_eq!(img_s, img_o, "rebalancing must not change the bytes");
    let degraded: u64 = out_s.sum(|s| s.degraded_cycles);
    assert!(degraded > 0, "straggler OST never flagged");
    // Exactly one collective rebalance event: every rank notes it once,
    // and no later call detects a residual imbalance.
    let rebalanced: u64 = out_s.sum(|s| s.realms_rebalanced);
    assert_eq!(
        rebalanced, c.nprocs as u64,
        "expected one collective rebalance event (one note per rank), got {rebalanced}"
    );
}

/// A realm rebalance patches the cached exchange schedule in place
/// instead of dropping it: the call after the handoff still probes as a
/// hit, so the whole run derives exactly once — the rebalance is a
/// patch, never a second full miss.
#[test]
fn rebalance_patches_schedule_cache_without_a_miss() {
    // Same geometry as `rebalance_converges_in_one_detection`: OST 0
    // (x8 slower) slows exactly aggregator 0, one collective handoff.
    let c = Chaos {
        nprocs: 6,
        block: 64,
        reps: 64,
        steps: 4,
        aggs: 3,
        cb: 2048,
        engine: Engine::Flexible,
        pfr: true,
        depth: PipelineDepth::Fixed(1),
        io_retries: 4,
        backoff_us: 0,
        locking: false,
        plan: FaultPlan::straggler(0, 8.0),
    };
    let pfs_cfg = PfsConfig {
        n_osts: 3,
        stripe_size: 8192,
        page_size: 64,
        locking: false,
        lock_expansion: false,
        client_cache: false,
        cost: PfsCostModel::default(),
    };
    let mut hints = chaos_hints(&c);
    hints.fr_alignment = Some(2048);
    let pfs = Pfs::with_faults(pfs_cfg, c.plan.clone());
    let run = run_tiled(&pfs, "patch", chaos_shape(&c), &hints, false);
    assert!(run.outcomes.iter().flatten().all(|r| r.is_ok()), "patch-run op failed");
    let out: Vec<Stats> = run.stats;
    let rebalanced: u64 = out.iter().map(|s| s.realms_rebalanced).sum();
    assert_eq!(rebalanced, c.nprocs as u64, "expected exactly one rebalance event");
    for (r, s) in out.iter().enumerate() {
        assert_eq!(s.schedule_cache_patches, 1, "rank {r}: handoff must patch the schedule");
        assert_eq!(
            s.schedule_cache_misses, 1,
            "rank {r}: a rebalance must not cost a second full derivation"
        );
        assert_eq!(
            s.schedule_cache_hits,
            c.steps - 1,
            "rank {r}: every later call must replay the (patched) schedule"
        );
    }
}
