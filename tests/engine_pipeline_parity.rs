//! Differential parity suite for the shared pipeline core: the ROMIO
//! baseline and the flexible engine now run their buffer cycles on the
//! same `CycleDriver` drive loops, so pipelining must be *semantically
//! invisible* on both — at every depth and under
//! injected faults:
//!
//! * pipelined ROMIO at any depth is byte-identical (file image and
//!   read-back) to the serial (depth 1) ROMIO oracle,
//! * both engines land byte-identical file images for the same workload,
//! * work counters (pairs, copies, messages, payload bytes) are
//!   depth-invariant, `pipeline_depth_used` and the PFS
//!   `nb_inflight_peak` respect the requested cap (the peak is the deepest
//!   rank's `pipeline_depth_used` less one), the serial oracle
//!   hides nothing, and every rank's phase buckets sum to its clock,
//! * ROMIO at depth 1 charges *exactly* what the serial ROMIO loop
//!   charged, pinned number for number by fixtures harvested on an
//!   earlier commit.

use flexio::core::{Engine, Hints, PipelineDepth};
use flexio::pfs::{FaultPlan, Pfs, PfsConfig, PfsCostModel};
use flexio::sim::prop::Runner;
use flexio::sim::{Stats, XorShift64Star};
use flexio::workload::{read_file, run_tiled, step_data, PhaseResult, TiledShape};
use std::sync::Arc;

fn timed_pfs(faults: Option<&FaultPlan>) -> Arc<Pfs> {
    let cfg = PfsConfig {
        n_osts: 4,
        stripe_size: 1024,
        page_size: 64,
        locking: false,
        lock_expansion: false,
        client_cache: false,
        cost: PfsCostModel::default(),
    };
    match faults {
        Some(plan) => Pfs::with_faults(cfg, plan.clone()),
        None => Pfs::new(cfg),
    }
}

/// One randomized parity case: a tiled collective workload plus the
/// pipeline depth and fault plan to run it under —
/// everything but the engine, which the property sweeps itself.
#[derive(Debug, Clone)]
struct Parity {
    nprocs: usize,
    /// Bytes per filetype block.
    block: u64,
    /// Filetype repetitions per collective call.
    reps: u64,
    /// Collective writes before the final collective read.
    steps: u64,
    aggs: usize,
    cb: usize,
    depth: PipelineDepth,
    /// `None` for a fault-free case.
    plan: Option<FaultPlan>,
}

fn random_parity(rng: &mut XorShift64Star) -> Parity {
    let nprocs = 2 + (rng.next_u64() % 7) as usize; // 2..=8
    Parity {
        nprocs,
        block: 8 * (1 + rng.next_u64() % 12), // 8..=96
        reps: 4 + rng.next_u64() % 29,        // 4..=32
        steps: 1 + rng.next_u64() % 2,
        aggs: 1 + (rng.next_u64() as usize) % nprocs,
        cb: [128, 256, 512, 1024][(rng.next_u64() % 4) as usize],
        depth: {
            // Once the exchange flavour's coin, still drawn so that a
            // pinned seed replays the case it always drew.
            rng.next_u64();
            match rng.next_u64() % 6 {
                0..=3 => PipelineDepth::Fixed(2 + (rng.next_u64() % 5) as u32), // 2..=6
                _ => PipelineDepth::Auto,
            }
        },
        plan: if rng.next_u64().is_multiple_of(3) {
            // Modest transient rate with a generous retry budget (the
            // hints below allow 12): calls still succeed, so `unwrap`-free
            // comparison against the fault-free oracle stays simple.
            Some(FaultPlan::transient(rng.next_u64(), (rng.next_u64() % 101) as f64 / 1000.0))
        } else {
            None
        },
    }
}

/// Run `p`'s workload (`steps` collective writes, one collective read)
/// under `engine` at `depth`. Returns the file image, every rank's
/// outcome, and the PFS nonblocking-queue high-water mark.
fn roundtrip(p: &Parity, engine: Engine, depth: PipelineDepth) -> (Vec<u8>, PhaseResult, u64) {
    let pfs = timed_pfs(p.plan.as_ref());
    let hints = Hints {
        engine,
        pipeline_depth: depth,
        cb_nodes: Some(p.aggs),
        cb_buffer_size: p.cb,
        io_retries: 12,
        ..Hints::default()
    };
    let shape = TiledShape { nprocs: p.nprocs, block: p.block, reps: p.reps, steps: p.steps };
    let out = run_tiled(&pfs, "parity", shape, &hints, true);
    let img = read_file(&pfs, "parity");
    (img, out, pfs.stats().nb_inflight_peak)
}

/// The cap a depth hint promises: `pipeline_depth_used` may not exceed the
/// depth, and the PFS may never see more than `depth - 1` outstanding
/// nonblocking ops from any one handle. `None` for Auto (bounded only by
/// the engine's internal ceiling).
fn depth_cap(depth: PipelineDepth) -> Option<u64> {
    match depth {
        PipelineDepth::Fixed(d) => Some(u64::from(d)),
        PipelineDepth::Auto => None,
    }
}

/// The tentpole differential property. For each random case, run BOTH
/// engines at the case's depth and at depth 1, and require that within an
/// engine pipelining changed nothing but virtual time, and that across
/// engines the bytes agree.
#[test]
fn pipelined_engines_match_their_serial_oracles() {
    Runner::new("pipelined_engines_match_their_serial_oracles")
        .cases(12)
        .regressions(include_str!("engine_pipeline_parity.proptest-regressions"))
        .run(random_parity, |p| {
            let mut images: Vec<Vec<u8>> = Vec::new();
            for engine in [Engine::Romio, Engine::Flexible] {
                let (img_d, out_d, peak_d) = roundtrip(p, engine, p.depth);
                let (img_1, out_1, peak_1) = roundtrip(p, engine, PipelineDepth::Fixed(1));
                assert_eq!(img_d, img_1, "{engine:?}: file image diverges from the depth-1 oracle");
                assert_eq!(peak_1, 0, "{engine:?}: serial oracle queued nb ops");
                // The file system's peak is the pipeline's own depth count,
                // folded over ranks: one queued op per buffer past the first.
                for (peak, out) in [(peak_d, &out_d), (peak_1, &out_1)] {
                    let used = out.stats.iter().map(|s| s.pipeline_depth_used).max().unwrap_or(0);
                    assert_eq!(peak, used.saturating_sub(1), "{engine:?}: nb peak vs depth used");
                }
                if let Some(cap) = depth_cap(p.depth) {
                    assert!(
                        peak_d <= cap.saturating_sub(1),
                        "{engine:?}: nb queue {peak_d} exceeds depth {cap} cap"
                    );
                }
                let lead = &out_d.outcomes[0];
                for r in 0..p.nprocs {
                    let (now, d, s) = (&out_d.clocks[r], &out_d.stats[r], &out_1.stats[r]);
                    assert_eq!(out_d.outcomes[r], *lead, "{engine:?}: rank {r} outcome split");
                    assert_eq!(
                        out_d.outcomes[r], out_1.outcomes[r],
                        "{engine:?}: rank {r} outcomes"
                    );
                    assert_eq!(
                        out_d.read_backs[r], out_1.read_backs[r],
                        "{engine:?}: rank {r} read-back"
                    );
                    if out_d.outcomes[r].iter().all(Result::is_ok) {
                        let want = step_data(r, p.steps - 1, out_d.read_backs[r].len());
                        assert_eq!(
                            out_d.read_backs[r], want,
                            "{engine:?}: rank {r} read wrong bytes"
                        );
                    }
                    assert_eq!(d.pairs_processed, s.pairs_processed, "{engine:?}: rank {r} pairs");
                    assert_eq!(d.memcpy_bytes, s.memcpy_bytes, "{engine:?}: rank {r} copies");
                    assert_eq!(d.msgs_sent, s.msgs_sent, "{engine:?}: rank {r} messages");
                    assert_eq!(d.bytes_sent, s.bytes_sent, "{engine:?}: rank {r} payload");
                    assert_eq!(
                        d.schedule_cache_misses, s.schedule_cache_misses,
                        "{engine:?}: rank {r} cache misses"
                    );
                    assert_eq!(
                        d.phase_ns.iter().sum::<u64>(),
                        *now,
                        "{engine:?}: rank {r} phase sum"
                    );
                    assert_eq!(
                        out_1.stats[r].overlap_saved_ns, 0,
                        "{engine:?}: rank {r} serial oracle overlapped"
                    );
                    assert_eq!(s.derive_overlap_saved_ns, 0, "{engine:?}: rank {r} oracle derive");
                    assert!(s.pipeline_depth_used <= 1, "{engine:?}: rank {r} oracle depth");
                    if let Some(cap) = depth_cap(p.depth) {
                        assert!(
                            d.pipeline_depth_used <= cap,
                            "{engine:?}: rank {r} depth {} over cap {cap}",
                            d.pipeline_depth_used
                        );
                    }
                }
                images.push(img_d);
            }
            assert_eq!(images[0], images[1], "engines disagree on the bytes");
        });
}

/// The fixture workload every ROMIO charge fixture below runs — the same
/// geometry as `tests/pipeline_depth.rs`'s flexible-engine fixtures (4
/// ranks, 16 interleaved 64 B blocks, 2 writes + 1 read, 512 B collective
/// buffer, timed PFS), so the engines' fixtures stay comparable.
fn fixture_run(hints: Hints) -> Vec<(u64, Stats)> {
    let pfs = timed_pfs(None);
    let shape = TiledShape { nprocs: 4, block: 64, reps: 16, steps: 2 };
    let out = run_tiled(&pfs, "fix", shape, &hints, true);
    assert!(out.outcomes.iter().flatten().all(|r| r.is_ok()), "fixture op failed");
    out.clocks.into_iter().zip(out.stats).collect()
}

/// Per-rank `(clock, phase buckets, hidden ns, pairs, copy bytes,
/// messages, payload bytes)`.
type ChargeRow = (u64, [u64; 3], u64, u64, u64, u64, u64);

fn assert_charges(got: &[(u64, Stats)], want: &[ChargeRow], label: &str) {
    for (r, ((now, s), (w_now, w_phase, w_saved, w_pairs, w_copy, w_msgs, w_bytes))) in
        got.iter().zip(want).enumerate()
    {
        assert_eq!(*now, *w_now, "{label}: rank {r} clock");
        assert_eq!(s.phase_ns, *w_phase, "{label}: rank {r} phase buckets");
        assert_eq!(s.overlap_saved_ns, *w_saved, "{label}: rank {r} hidden ns");
        assert_eq!(s.pairs_processed, *w_pairs, "{label}: rank {r} pairs");
        assert_eq!(s.memcpy_bytes, *w_copy, "{label}: rank {r} copy bytes");
        assert_eq!(s.msgs_sent, *w_msgs, "{label}: rank {r} messages");
        assert_eq!(s.bytes_sent, *w_bytes, "{label}: rank {r} payload bytes");
        assert_eq!(s.derive_overlap_saved_ns, 0, "{label}: rank {r} derive overlap");
    }
}

/// Serial (depth 1) ROMIO's charge sequence on the fixture workload with
/// one aggregator — the trace depth 1 on the shared pipeline must replay
/// number for number. Harvested, like the table below, on cc3b7af, the
/// last commit with a packed staging path, in a scratch clone whose only
/// edit switched these tests from that path to the default one: the run
/// path's charges as that commit computed them, not this tree's — except
/// for one deliberate move since. The `allgatherv` became Bruck's log-step
/// round: at four ranks two steps instead of a ring's three hops, so each
/// of ROMIO's six allgathers here sends one message fewer a rank (57 → 51,
/// 53 → 47, 49 → 43; bytes unchanged) and every clock and Comm bucket is
/// 408 000 ns lower; Compute, Io and pairs did not move.
const ROMIO_SERIAL_1AGG: [ChargeRow; 4] = [
    (4_248_248, [36_960, 2_238_464, 1_972_824], 0, 292, 3_840, 51, 3_360),
    (4_252_248, [12_000, 4_240_248, 0], 0, 100, 0, 43, 3_104),
    (4_256_248, [12_000, 4_244_248, 0], 0, 100, 0, 43, 3_104),
    (4_192_248, [12_000, 4_180_248, 0], 0, 100, 0, 43, 3_104),
];

/// Same, with two aggregators (ranks 0 and 2).
const ROMIO_SERIAL_2AGG: [ChargeRow; 4] = [
    (3_739_340, [24_480, 2_728_448, 986_412], 0, 196, 1_920, 47, 3_232),
    (3_739_340, [12_000, 3_727_340, 0], 0, 100, 0, 43, 3_104),
    (3_747_276, [24_480, 2_736_384, 986_412], 0, 196, 1_920, 47, 3_232),
    (3_735_340, [12_000, 3_723_340, 0], 0, 100, 0, 43, 3_104),
];

#[test]
fn romio_depth_1_replays_pre_refactor_charge_sequence() {
    for (aggs, want) in [(1usize, &ROMIO_SERIAL_1AGG), (2, &ROMIO_SERIAL_2AGG)] {
        let out = fixture_run(Hints {
            engine: Engine::Romio,
            pipeline_depth: PipelineDepth::Fixed(1),
            cb_nodes: Some(aggs),
            cb_buffer_size: 512,
            ..Hints::default()
        });
        assert_charges(&out, want, &format!("romio {aggs} agg depth 1"));
    }
}

#[test]
fn romio_pipeline_hides_time_and_respects_the_cap() {
    let stats = |depth| {
        fixture_run(Hints {
            engine: Engine::Romio,
            pipeline_depth: depth,
            cb_nodes: Some(1),
            cb_buffer_size: 512,
            ..Hints::default()
        })
    };
    for (depth, cap) in
        [(PipelineDepth::Fixed(1), 1), (PipelineDepth::Fixed(2), 2), (PipelineDepth::Fixed(4), 4)]
    {
        let out = stats(depth);
        let deepest = out.iter().map(|(_, s)| s.pipeline_depth_used).max().unwrap();
        assert!(deepest <= cap, "{depth:?} exceeded its cap: reached {deepest}");
        assert!(deepest >= 1, "{depth:?} recorded no pipeline depth at all");
        let saved: u64 = out.iter().map(|(_, s)| s.overlap_saved_ns).sum();
        if cap == 1 {
            assert_eq!(saved, 0, "serial ROMIO must hide nothing");
        } else {
            assert!(saved > 0, "{depth:?} hid no time on a cycle-rich workload");
            let end = out.iter().map(|(now, _)| *now).max().unwrap();
            let serial_end = ROMIO_SERIAL_1AGG.iter().map(|row| row.0).max().unwrap();
            assert!(end < serial_end, "{depth:?}: {end} ns, serial {serial_end} ns");
        }
        // Work counters stay depth-invariant (also pinned by the fixtures).
        for (r, (_, s)) in out.iter().enumerate() {
            let want = ROMIO_SERIAL_1AGG[r];
            assert_eq!(s.pairs_processed, want.3, "rank {r} pairs at {depth:?}");
            assert_eq!(s.memcpy_bytes, want.4, "rank {r} copies at {depth:?}");
        }
    }
    // I/O dwarfs the exchange on this workload, so Auto must go beyond
    // classic double buffering on the aggregator — same adaptation the
    // flexible engine shows, because it IS the same code now.
    let out = stats(PipelineDepth::Auto);
    let deepest = out.iter().map(|(_, s)| s.pipeline_depth_used).max().unwrap();
    assert!(deepest > 2, "auto depth never exceeded double buffering ({deepest})");
}
