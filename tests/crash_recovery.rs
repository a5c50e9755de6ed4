//! Crash-stop recovery suite: seeded rank failures through the full
//! stack — detection at collective boundaries, two-round agreement,
//! aggregator re-election and realm re-partition over the survivors,
//! idempotent replay, and the epoch-commit old-or-new guarantee.
//!
//! The invariants under test:
//!
//! * survivors of a recovered collective end byte-identical to a
//!   fault-free run over the surviving ranks (dead state masked);
//! * `ranks_recovered` and `realms_rebalanced` agree on every survivor;
//! * each survivor's phase buckets still sum to its clock — detection
//!   timeouts are charged Comm time like any other wait;
//! * with recovery disabled, every survivor returns the *same*
//!   [`IoError::RanksFailed`] list — collective error agreement, never
//!   a hang;
//! * a crashed checkpoint generation is never observed torn: restart
//!   readers see a complete old or new epoch;
//! * crashes work in both directions (write and read collectives) and
//!   with multiple victims;
//! * detection is armed by the world (`run_crashable`), not by the file
//!   system, and costs messages but no bytes;
//! * the ROMIO baseline refuses crashable worlds up front.

use flexio::core::{Engine, Hints, IoError, MpiFile};
use flexio::pfs::{FaultPlan, Pfs, PfsConfig, PfsCostModel};
use flexio::sim::{run, run_crashable, CostModel, Rank};
use flexio::types::Datatype;
use flexio::workload::{
    assert_writer_tiles, checkpoint_spec, read_file, run_crash_checkpoint, verify_crash_checkpoint,
    CrashScenario, Oracle, RankPlan,
};
use std::sync::Arc;

fn crash_pfs() -> Arc<Pfs> {
    Pfs::with_faults(
        PfsConfig {
            n_osts: 4,
            stripe_size: 512,
            page_size: 64,
            locking: false,
            lock_expansion: false,
            client_cache: false,
            cost: PfsCostModel::default(),
        },
        FaultPlan::default(),
    )
}

fn recovery_hints(recovery: bool, aggs: usize) -> Hints {
    Hints {
        engine: Engine::Flexible,
        cb_nodes: Some(aggs),
        cb_buffer_size: 512,
        crash_recovery: recovery,
        watchdog_us: 200_000,
        ..Hints::default()
    }
}

fn base_scenario() -> CrashScenario {
    CrashScenario {
        seed: 0x5EED_CAFE,
        nprocs: 5,
        block: 48,
        reps: 4,
        clean_epochs: 2,
        aggs: 3,
        victim: 2,
        at_ns: 0,
        recovery: true,
        watchdog_us: 200_000,
        torn_rate: 0.0,
    }
}

/// Survivor byte-identity against an *actual* fault-free engine run over
/// the surviving ranks — not just the engine-free oracle: a shrunk world
/// of the survivors writes the same per-rank plans into a fresh PFS, and
/// every survivor-owned byte range must match the recovered image.
#[test]
fn survivors_match_a_fault_free_run_over_the_survivors() {
    let scn = base_scenario();
    let out = verify_crash_checkpoint(&scn);
    assert_eq!(out.survivors, vec![0, 1, 3, 4]);

    // Fault-free run: only the survivors, same plans, fresh PFS.
    let spec = checkpoint_spec(scn.seed, scn.nprocs, scn.block, scn.reps, 1);
    let survivor_plans: Vec<RankPlan> =
        out.survivors.iter().map(|&r| spec.phases[0].plans[r].clone()).collect();
    let gen = scn.clean_epochs;
    let pfs = crash_pfs();
    let plans = Arc::new(survivor_plans);
    let inner = Arc::clone(&pfs);
    let hints = recovery_hints(true, scn.aggs.min(out.survivors.len()));
    let res = run_crashable(out.survivors.len(), CostModel::default(), &[], move |rank| {
        let p = &plans[rank.rank()];
        let mut f = MpiFile::open(rank, &inner, "oracle", hints.clone()).unwrap();
        f.set_view(p.disp, &Datatype::bytes(1), &p.filetype).unwrap();
        f.write_all_at(0, &p.step_buffer(gen), &p.memtype, p.mem_count)
    });
    assert!(res.into_iter().all(|r| r == Some(Ok(()))));
    let reference = read_file(&pfs, "oracle");

    // Every survivor-owned byte of the recovered image matches the
    // survivor-only reference run byte for byte.
    for k in 0..scn.reps {
        for &r in &out.survivors {
            let off = (k * scn.nprocs as u64 * scn.block + r as u64 * scn.block) as usize;
            let len = scn.block as usize;
            let get = |img: &[u8], i: usize| img.get(off + i).copied().unwrap_or(0);
            for i in 0..len {
                assert_eq!(
                    get(&out.committed_image, i),
                    get(&reference, i),
                    "rank {r} tile {k} byte {i}: recovered image diverged from the \
                     survivor-only fault-free run"
                );
            }
        }
    }
}

/// Sweep drawn crash times from the entry checkpoint deep into the run:
/// every case must verify, and the sweep must produce both a mid-run
/// death and a survived-past-the-end case.
#[test]
fn any_drawn_crash_time_completes_on_survivors() {
    let mut died = 0;
    let mut survived = 0;
    for at_ns in [0, 40_000, 150_000, 400_000, 900_000, u64::MAX / 2] {
        for recovery in [true, false] {
            let scn = CrashScenario { at_ns, recovery, ..base_scenario() };
            let out = verify_crash_checkpoint(&scn);
            if out.survivors.len() == scn.nprocs {
                survived += 1;
            } else {
                died += 1;
            }
        }
    }
    assert!(died >= 2, "sweep never killed the victim");
    assert!(survived >= 2, "sweep never reached past the run's end");
}

/// A crash during a collective *read* recovers too: survivors replay and
/// their buffers match the engine-free expected reads; the victim's
/// buffer is dead state.
#[test]
fn read_collective_recovers_after_a_crash() {
    let spec = checkpoint_spec(0xD00D, 4, 32, 3, 1);
    let victim = 3;
    let pfs = crash_pfs();
    let plans = Arc::new(spec.phases[0].plans.clone());

    // Clean write world (no crash scheduled in it).
    let inner = Arc::clone(&pfs);
    let wplans = Arc::clone(&plans);
    let hints = recovery_hints(true, 2);
    let h2 = hints.clone();
    let res = run_crashable(4, CostModel::default(), &[], move |rank| {
        let p = &wplans[rank.rank()];
        let mut f = MpiFile::open(rank, &inner, "rd", h2.clone()).unwrap();
        f.set_view(p.disp, &Datatype::bytes(1), &p.filetype).unwrap();
        f.write_all_at(0, &p.step_buffer(0), &p.memtype, p.mem_count)
    });
    assert!(res.into_iter().all(|r| r == Some(Ok(()))));

    // Crashing read world: the victim dies at its entry checkpoint.
    let inner = Arc::clone(&pfs);
    let rplans = Arc::clone(&plans);
    let res = run_crashable(4, CostModel::default(), &[(victim, 0)], move |rank| {
        let p = &rplans[rank.rank()];
        let mut f = MpiFile::open(rank, &inner, "rd", hints.clone()).unwrap();
        f.set_view(p.disp, &Datatype::bytes(1), &p.filetype).unwrap();
        let mut back = vec![0u8; p.buf_len()];
        let out = f.read_all_at(0, &mut back, &p.memtype, p.mem_count);
        (out, back, rank.stats())
    });
    assert!(res[victim].is_none(), "victim must be dead");
    let oracle = Oracle::from_spec(&spec);
    for (r, res) in res.iter().enumerate() {
        if r == victim {
            continue;
        }
        let (out, back, stats) = res.as_ref().expect("survivor");
        assert_eq!(*out, Ok(()), "survivor {r} read must complete after recovery");
        assert_eq!(
            *back,
            oracle.expected_read(&spec.phases[0].plans[r]),
            "survivor {r}: replayed read diverged from the oracle"
        );
        assert_eq!(stats.ranks_recovered, 1);
    }
}

/// Recovery disabled: the collective terminates with the same agreed
/// failed-rank list on every survivor — an error, not a hang — and the
/// file keeps only whatever landed before the abort (no torn reads at
/// the epoch layer is checked by the checkpoint suite).
#[test]
fn disabled_recovery_terminates_with_collective_agreement() {
    let spec = checkpoint_spec(0xACED, 4, 32, 3, 1);
    let victim = 0;
    let pfs = crash_pfs();
    let plans = Arc::new(spec.phases[0].plans.clone());
    let inner = Arc::clone(&pfs);
    let hints = recovery_hints(false, 2);
    let res = run_crashable(4, CostModel::default(), &[(victim, 10_000)], move |rank| {
        let p = &plans[rank.rank()];
        let mut f = MpiFile::open(rank, &inner, "noheal", hints.clone()).unwrap();
        f.set_view(p.disp, &Datatype::bytes(1), &p.filetype).unwrap();
        f.write_all_at(0, &p.step_buffer(0), &p.memtype, p.mem_count)
    });
    assert!(res[victim].is_none());
    for (r, out) in res.iter().enumerate() {
        if r != victim {
            assert_eq!(
                out.as_ref(),
                Some(&Err(IoError::RanksFailed(vec![victim]))),
                "survivor {r} must return the agreed verdict"
            );
        }
    }
}

/// Two victims in one collective: survivors agree on the full dead set,
/// recover past both, and count both in `ranks_recovered`.
#[test]
fn multiple_victims_recover_in_one_pass() {
    let spec = checkpoint_spec(0xFA11, 6, 24, 2, 1);
    let pfs = crash_pfs();
    let plans = Arc::new(spec.phases[0].plans.clone());
    let inner = Arc::clone(&pfs);
    let hints = recovery_hints(true, 3);
    let res = run_crashable(6, CostModel::default(), &[(1, 0), (4, 0)], move |rank| {
        let p = &plans[rank.rank()];
        let mut f = MpiFile::open(rank, &inner, "multi", hints.clone()).unwrap();
        f.set_view(p.disp, &Datatype::bytes(1), &p.filetype).unwrap();
        let out = f.write_all_at(0, &p.step_buffer(0), &p.memtype, p.mem_count);
        (out, rank.stats())
    });
    let mut stats = Vec::new();
    for (r, out) in res.iter().enumerate() {
        match r {
            1 | 4 => assert!(out.is_none(), "victim {r} must be dead"),
            _ => {
                let (o, s) = out.as_ref().expect("survivor");
                assert_eq!(*o, Ok(()), "survivor {r} must complete");
                assert_eq!(s.ranks_recovered, 2, "survivor {r} must count both victims");
                stats.push(*s);
            }
        }
    }
    // Cross-layer: a fold over the survivors' counters sees every count.
    assert_eq!(stats.iter().map(|s| s.ranks_recovered).sum::<u64>(), 2 * 4);
    // Survivor bytes are all there (victim tile ranges are dead state).
    let image = read_file(&pfs, "multi");
    for r in [0usize, 2, 3, 5] {
        let plan = &spec.phases[0].plans[r];
        let data = plan.step_buffer(0);
        for k in 0..2u64 {
            let off = (k * 6 * 24 + r as u64 * 24) as usize;
            let tile = &data[(k * 24) as usize..((k + 1) * 24) as usize];
            let img_tile: Vec<u8> =
                (0..24).map(|i| image.get(off + i).copied().unwrap_or(0)).collect();
            assert_eq!(img_tile, tile, "survivor {r} tile {k}");
        }
    }
}

/// Failure detection is armed by the world, not by the file system: the
/// same flexible write over the same fault-free plan sends heartbeats in
/// a crashable world with nothing scheduled, none on `run`, and lands the
/// same bytes either way.
#[test]
fn detection_is_armed_by_the_world() {
    let spec = checkpoint_spec(0xBEA7, 4, 32, 3, 1);
    let plans = Arc::new(spec.phases[0].plans.clone());
    let write = |crashable: bool| {
        let pfs = crash_pfs();
        let inner = Arc::clone(&pfs);
        let plans = Arc::clone(&plans);
        let hints = recovery_hints(true, 2);
        let body = move |rank: &Rank| {
            let p = &plans[rank.rank()];
            let mut f = MpiFile::open(rank, &inner, "armed", hints.clone()).unwrap();
            f.set_view(p.disp, &Datatype::bytes(1), &p.filetype).unwrap();
            f.write_all_at(0, &p.step_buffer(0), &p.memtype, p.mem_count).unwrap();
            rank.stats().msgs_sent
        };
        let msgs: u64 = if crashable {
            let out = run_crashable(4, CostModel::default(), &[], body);
            out.into_iter().map(|m| m.expect("no crash scheduled")).sum()
        } else {
            run(4, CostModel::default(), body).into_iter().sum()
        };
        (msgs, read_file(&pfs, "armed"))
    };
    let (plain_msgs, plain_image) = write(false);
    let (armed_msgs, armed_image) = write(true);
    // The entry checkpoint alone sends a heartbeat to each of 3 peers.
    assert!(
        armed_msgs >= plain_msgs + 4 * 3,
        "a crashable world must send heartbeats: {armed_msgs} vs {plain_msgs} messages"
    );
    assert_eq!(armed_image, plain_image, "detection moved bytes");
}

/// The ROMIO baseline has no recovery protocol: a collective in a
/// crashable world — even one with no crash scheduled — must fail fast
/// with `BadHints`, not silently never fire a crash.
#[test]
fn romio_rejects_crash_plans_up_front() {
    let pfs = crash_pfs();
    let hints = Hints { engine: Engine::Romio, ..Hints::default() };
    let res = run_crashable(2, CostModel::default(), &[], move |rank| {
        let mut f = MpiFile::open(rank, &pfs, "romio", hints.clone()).unwrap();
        f.set_view(0, &Datatype::bytes(1), &Datatype::bytes(4)).unwrap();
        f.write_all_at(rank.rank() as u64 * 4, &[9u8; 4], &Datatype::bytes(4), 1)
    });
    for out in res {
        assert!(
            matches!(out, Some(Err(IoError::BadHints(_)))),
            "romio in a crashable world must be rejected, got {out:?}"
        );
    }
}

/// End-to-end acceptance shape: with recovery enabled, a crashed
/// aggregator rank's generation still publishes as a survivor
/// checkpoint, and a later *clean* generation over the survivors then
/// publishes on top of it — life goes on after recovery.
#[test]
fn life_goes_on_after_a_recovered_generation() {
    let scn = CrashScenario { victim: 0, ..base_scenario() }; // rank 0 is an aggregator
    let out = run_crash_checkpoint(&scn);
    assert_eq!(out.committed, Some(scn.clean_epochs));
    assert_writer_tiles(&scn, scn.clean_epochs, &out.survivors, &out.committed_image);

    // Next generation: survivors only, clean, committed via the same
    // header — the family keeps alternating slots.
    let gen = scn.clean_epochs + 1;
    let spec = checkpoint_spec(scn.seed, scn.nprocs, scn.block, scn.reps, 1);
    let survivor_plans: Vec<RankPlan> =
        out.survivors.iter().map(|&r| spec.phases[0].plans[r].clone()).collect();
    let plans = Arc::new(survivor_plans);
    let inner = crash_pfs();
    let hints = recovery_hints(true, 2);
    let res = run_crashable(out.survivors.len(), CostModel::default(), &[], move |rank| {
        let p = &plans[rank.rank()];
        let mut f = MpiFile::open(rank, &inner, "next", hints.clone()).unwrap();
        f.set_view(p.disp, &Datatype::bytes(1), &p.filetype).unwrap();
        f.write_all_at(0, &p.step_buffer(gen), &p.memtype, p.mem_count)
    });
    assert!(res.into_iter().all(|r| r == Some(Ok(()))));
}
