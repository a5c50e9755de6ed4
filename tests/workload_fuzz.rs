//! Seeded workload fuzzer: the differential suite over the structured
//! scenario generator (`flexio::workload`).
//!
//! Every generated case — checkpoint N-to-1, restart with shifted rank
//! counts, many-task regions, read-heavy scans, mixed subarray/irregular
//! views — is run under three differential axes and one oracle:
//!
//! * **oracle**: the flexible engine's file image and every read-back
//!   must match the engine-free expected-image oracle (zeros past EOF);
//! * **engine vs engine**: ROMIO must land the same bytes and read-backs
//!   as the flexible engine;
//! * **faulted vs clean**: the spec's transient-fault plan (with a
//!   generous retry budget) must perturb time, never data;
//! * **run-twice determinism**: an identical rerun must be bit-identical
//!   in images, read-backs, outcomes, clocks, and stats.
//!
//! Uniform invariants on every run: phase buckets sum to each rank's
//! clock, `bytes_copied ≤ memcpy_bytes`, and collective outcomes agree
//! across the world. Failures shrink via the harness's greedy case
//! shrinking and are pinned in `workload_fuzz.proptest-regressions`.

use flexio::core::Engine;
use flexio::sim::prop::Runner;
use flexio::sim::XorShift64Star;
use flexio::workload::gen::range;
use flexio::workload::{
    check_invariants, checkpoint_spec, eq_padded, generate, generate_crash, many_task_spec,
    mixed_subarray_spec, read_scan_spec, restart_spec, run_spec, verify_crash_checkpoint,
    CrashScenario, Oracle, PfsShape, PhaseOp, RunConfig, RunOutcome, ScenarioKind, WorkloadSpec,
};

/// Run one spec through every axis and cross-check.
fn fuzz_one(spec: &WorkloadSpec) {
    let flexible = RunConfig { engine: Engine::Flexible, faulted: false };
    let a = run_spec(spec, flexible);
    a.phases.iter().for_each(|p| check_invariants(p, "flexible/clean"));

    // Oracle: image and every read phase's read-backs.
    let oracle = Oracle::from_spec(spec);
    assert!(
        eq_padded(&a.image, oracle.image()),
        "flexible image diverged from the oracle (kind {:?})",
        spec.kind
    );
    for (pi, phase) in spec.phases.iter().enumerate() {
        if phase.op != PhaseOp::Read {
            continue;
        }
        for (r, plan) in phase.plans.iter().enumerate() {
            assert_eq!(
                a.phases[pi].read_backs[r],
                oracle.expected_read(plan),
                "phase {pi} rank {r}: read-back diverged from the oracle"
            );
        }
    }

    // Engine vs engine.
    let b = run_spec(spec, RunConfig { engine: Engine::Romio, ..flexible });
    b.phases.iter().for_each(|p| check_invariants(p, "romio/clean"));
    assert!(eq_padded(&b.image, &a.image), "engines disagree on the bytes");
    for (pi, (pa, pb)) in a.phases.iter().zip(&b.phases).enumerate() {
        assert_eq!(pa.read_backs, pb.read_backs, "phase {pi}: engine read-backs differ");
        assert_eq!(pa.outcomes, pb.outcomes, "phase {pi}: engine outcomes differ");
    }

    // Faulted vs clean: retries absorb the spec's transient plan.
    let d = run_spec(spec, RunConfig { faulted: true, ..flexible });
    d.phases.iter().for_each(|p| check_invariants(p, "flexible/faulted"));
    assert!(eq_padded(&d.image, &a.image), "faults changed the bytes on disk");
    for (pi, (pa, pd)) in a.phases.iter().zip(&d.phases).enumerate() {
        assert_eq!(pa.read_backs, pd.read_backs, "phase {pi}: faulted read-backs differ");
    }

    // Run-twice determinism: bit-identical everything.
    let e = run_spec(spec, flexible);
    assert_eq!(a, e, "identical rerun produced a different outcome");
}

/// A generated spec with per-call realms on 2–4 OSTs whose stripes are
/// one or two collective buffers wide: realm starts often share an OST,
/// so the flexible engine runs some calls' buffer cycles out of file
/// order (DESIGN "Buffer-cycle order across OSTs").
fn generate_narrow_stripes(rng: &mut XorShift64Star) -> WorkloadSpec {
    let mut spec = generate(rng);
    spec.pfr = false;
    spec.cb = [32, 64, 128][range(rng, 0, 3) as usize];
    spec.pfs = PfsShape {
        n_osts: range(rng, 2, 3) as usize,
        stripe: spec.cb as u64 * range(rng, 1, 2),
        page: 16,
    };
    spec
}

#[test]
fn workload_differential_fuzz() {
    Runner::new("workload_differential_fuzz")
        .cases(16)
        .regressions(include_str!("workload_fuzz.proptest-regressions"))
        .run(generate, fuzz_one);
    Runner::new("workload_differential_fuzz_narrow_stripes")
        .cases(16)
        .run(generate_narrow_stripes, fuzz_one);
}

/// The generator reaches every scenario family within a small seed
/// budget, so elevated-case CI runs always sweep all five.
#[test]
fn generator_covers_every_family() {
    let mut rng = XorShift64Star::new(0x00F1_E810);
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..64 {
        seen.insert(generate(&mut rng).kind);
    }
    assert_eq!(seen.len(), ScenarioKind::ALL.len(), "families missing from {seen:?}");
}

// Directed per-family cases: fixed-shape members of each family run
// through the full differential battery even at PROPTEST_CASES=1.

#[test]
fn checkpoint_family_directed() {
    fuzz_one(&checkpoint_spec(0xC0FFEE, 4, 32, 6, 3));
}

#[test]
fn restart_family_directed() {
    // 5 writers, 3 readers over a non-divisible element count, readers
    // reaching 200 elements past the last writer's extent.
    fuzz_one(&restart_spec(0xBEEF, 5, 3, 331, 3, 200));
    // More readers than elements: trailing readers participate empty.
    fuzz_one(&restart_spec(0xBEEF + 1, 2, 7, 5, 2, 3));
}

#[test]
fn many_task_family_directed() {
    fuzz_one(&many_task_spec(0xDAB, 5, 48, 3, 100, 2));
}

#[test]
fn read_scan_family_directed() {
    fuzz_one(&read_scan_spec(0x5CA4, 4, 6, 24, 4, 3));
}

#[test]
fn mixed_family_directed() {
    fuzz_one(&mixed_subarray_spec(0x2D, 2, 3, 4, 5, 4));
    // Irregular indexed views are rng-built; pin one seed.
    let mut rng = XorShift64Star::new(0x1112);
    fuzz_one(&flexio::workload::gen::mixed_irregular_spec(&mut rng, 0x1112, 4));
}

/// The restart scenario's sharpest edge in isolation: a read phase whose
/// partition extends past the last written byte must see zeros on every
/// rank, under both engines.
#[test]
fn reads_past_last_writer_extent_see_zeros() {
    let spec = restart_spec(0xE0F, 3, 4, 64, 1, 64);
    let oracle = Oracle::from_spec(&spec);
    for engine in [Engine::Flexible, Engine::Romio] {
        let out = run_spec(&spec, RunConfig { engine, faulted: false });
        let read = &out.phases[1];
        for (r, plan) in spec.phases[1].plans.iter().enumerate() {
            assert_eq!(
                read.read_backs[r],
                oracle.expected_read(plan),
                "{engine:?}: rank {r} read past EOF"
            );
        }
    }
}

/// The crash-point fuzz axis: drawn crash times, victims, world sizes,
/// clean-epoch counts and torn-header rates, each verified under both
/// positions of the recovery switch, so both sides sweep the identical
/// case list. (The generator still draws a recovery coin, which keeps
/// the seeds pinned in `crash_recovery.proptest-regressions` replaying
/// the scenarios they were pinned for; the drawn side is one of the two
/// verified.) Each run is the full battery in
/// `flexio::workload::verify_crash_checkpoint`: determinism, survivor
/// byte-identity masked to survivor tiles, recovery-counter agreement,
/// phase-sum through recovery, collective error agreement with recovery
/// off, and the restart world's old-or-new-never-torn read.
#[test]
fn crash_point_fuzz() {
    Runner::new("crash_point_fuzz")
        .cases(12)
        .regressions(include_str!("crash_recovery.proptest-regressions"))
        .run(generate_crash, |scn| {
            for recovery in [true, false] {
                verify_crash_checkpoint(&CrashScenario { recovery, ..scn.clone() });
            }
        });
}

/// The crash generator reaches both recovery positions, mid-run crash
/// times, and victims across the world within a small seed budget.
#[test]
fn crash_generator_covers_the_axes() {
    let mut rng = XorShift64Star::new(0x00F1_E810);
    let (mut on, mut off, mut entry, mut late) = (0, 0, 0, 0);
    let mut victims = std::collections::BTreeSet::new();
    for _ in 0..64 {
        let s: CrashScenario = generate_crash(&mut rng);
        if s.recovery {
            on += 1;
        } else {
            off += 1;
        }
        if s.at_ns < 1_000 {
            entry += 1;
        }
        if s.at_ns > 500_000 {
            late += 1;
        }
        victims.insert(s.victim);
    }
    assert!(on > 0 && off > 0, "recovery coin is stuck ({on} on, {off} off)");
    assert!(late > 0, "no late crash times drawn");
    assert!(victims.len() >= 3, "victims not spread: {victims:?}");
    let _ = entry;
}

/// `RunOutcome` equality is exhaustive (images, clocks, stats, outcomes,
/// read-backs), so the determinism axis is as strong as it claims.
#[test]
fn outcome_equality_is_sensitive() {
    let spec = checkpoint_spec(0xE11, 2, 16, 2, 1);
    let cfg = RunConfig { engine: Engine::Flexible, faulted: false };
    let a: RunOutcome = run_spec(&spec, cfg);
    let mut b = a.clone();
    assert_eq!(a, b);
    b.phases[0].clocks[0] += 1;
    assert_ne!(a, b, "clock perturbation must break equality");
}
