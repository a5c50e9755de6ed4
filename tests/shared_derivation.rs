//! The world-shared schedule derivation against a fixture harvested from
//! the commit before it existed (per-rank derivation, PR 12's tree).
//!
//! `tests/fixtures/shared_derivation.txt` was written by this very file
//! (`FLEXIO_REGEN_FIXTURE=1`, public API only) run on that commit; the
//! old per-rank path is gone, so the fixture is the oracle. It records,
//! for six fine-grained 128-rank scenarios, every rank's final clock, the
//! pairs it was charged per collective call, its message count and a
//! digest of its full [`Stats`], plus a hash of the file image. A charge
//! that moved between ranks, calls or buffer cycles shifts a send and
//! with it some rank's clock, so equality here is the "bit-identical
//! virtual time" contract of the shared derivation. It was regenerated
//! once on purpose since, when the `allgatherv` became Bruck's log-step
//! round: clocks, message counts and `Stats` digests moved everywhere, and
//! pairs per call in the straggler and crash scenarios, where timing
//! decides when realms are rebalanced and where the replay starts. No
//! image hash moved. It was regenerated again when `alltoallw` became
//! MPICH's scattered isend/irecv over the blocks that exist: the three
//! scenarios that run it (`even-alltoallw`, `pfr-aligned-alltoallw`,
//! `crash-recovery-replay`) moved, the three non-blocking ones came out
//! byte-identical, and no image hash moved. All six were regenerated
//! when each OST came to keep a booking calendar (DESIGN "OST booking
//! calendar"): a request booked after a later arrival starts in the idle
//! gap before it, so every clock moved, the slowest rank's down by
//! 1.4–68.2 % (the straggler scenario the most), and with them pairs per
//! call and message counts where timing picks the rebalanced realms and
//! the replay. No image hash moved. All six were regenerated again when
//! a collective write's sieve pre-read came to be charged only below the
//! file size its ranks agreed on at the start of the call (DESIGN "A
//! collective write's pre-read stops at the agreed size"): every
//! scenario writes a fresh file, so the slowest rank ends 14.4–15.6 %
//! earlier in the five crash-free ones, with pairs per call and message
//! counts unchanged except in the straggler scenario, where timing picks
//! the rebalanced realms; the crash scenario's slowest rank ends 0.1 %
//! earlier, and its heartbeats add messages. No image hash moved. All six
//! were regenerated when `auto` write pipelines lost the stripe-width
//! bound (DESIGN "Depth selection"): 64 aggregators over 4 OSTs had been
//! held at depth 2, and deeper write-behind fills OST gaps, so the slowest
//! rank ends 3.3–4.2 % earlier in the four fault-free scenarios, with pairs
//! per call and message counts unchanged; 7.6 % earlier in the straggler
//! scenario and 31.2 % earlier in the crash scenario, where timing picks
//! the rebalanced realms and the replay and so moves pairs and messages
//! too. No image hash moved.
//!
//! Only the crash scenario runs in a crashable world (`run_crashable`);
//! the others run on `run`, since a crashable world arms failure
//! detection even with no crash scheduled, and their blocks were
//! harvested without it.
//!
//! Regenerate only when a change is *meant* to move virtual time.

use flexio::core::engine::ExchangeSchedule;
use flexio::core::{Engine, ExchangeMode, Hints, MpiFile};
use flexio::hpio::{HpioSpec, TimeStepSpec, TypeStyle};
use flexio::pfs::{FaultPlan, Pfs, PfsConfig, PfsCostModel};
use flexio::sim::{run, run_crashable, CostModel, Rank, Stats};
use flexio::types::Datatype;
use flexio::workload::read_file;
use std::fmt::Write as _;
use std::sync::Arc;

const NPROCS: usize = 128;
const AGGS: usize = 64;
const FIXTURE: &str = "tests/fixtures/shared_derivation.txt";

/// `fine-512`'s shape at 128 ranks: 8-byte regions 136 bytes apart,
/// interleaved across ranks, 9 buffer cycles of 512 bytes.
fn spec() -> HpioSpec {
    HpioSpec {
        region_size: 8,
        region_count: 16,
        region_spacing: 128,
        mem_noncontig: true,
        file_noncontig: true,
        nprocs: NPROCS,
    }
}

struct Scenario {
    name: &'static str,
    exchange: ExchangeMode,
    pfr: bool,
    fault: Option<FaultPlan>,
    /// `(rank, at_ns)` to crash-stop; only this scenario runs in a
    /// crashable world (`run_crashable`), the others on `run`.
    crash: Option<(usize, u64)>,
}

fn scenarios() -> Vec<Scenario> {
    use ExchangeMode::{Alltoallw, Nonblocking};
    let plain = |name, exchange, pfr| Scenario { name, exchange, pfr, fault: None, crash: None };
    vec![
        plain("even-alltoallw", Alltoallw, false),
        plain("even-nonblocking", Nonblocking, false),
        plain("pfr-aligned-alltoallw", Alltoallw, true),
        plain("pfr-aligned-nonblocking", Nonblocking, true),
        // OST 0 serves 8x slower: its aggregators straggle, the realms
        // are rebalanced once and the cached schedule is patched.
        Scenario {
            name: "pfr-straggler-rebalance",
            exchange: Nonblocking,
            pfr: true,
            fault: Some(FaultPlan::straggler(0, 8.0)),
            crash: None,
        },
        // Rank 37 dies at a cycle boundary of the first call; the
        // survivors replay it over a 127-rank subgroup (aggregators
        // re-elected, realms re-partitioned) and carry on.
        Scenario {
            name: "crash-recovery-replay",
            exchange: Alltoallw,
            pfr: true,
            fault: Some(FaultPlan::default()),
            crash: Some((37, 40_000_000)),
        },
    ]
}

fn fnv(data: &[u8]) -> u64 {
    data.iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Run one scenario: four collective calls per rank (write; the same
/// write again — a schedule-cache hit; a write through a view shifted by
/// one region row — new wires, and under PFR the old realms; a read back
/// through that view). A world with a dead rank can no longer `set_view`
/// or `close` (both barrier over the whole world), so the crash scenario
/// keeps its first view and skips both. Returns the scenario's fixture
/// block.
fn run_scenario(scn: &Scenario) -> String {
    let cfg = PfsConfig {
        n_osts: 4,
        stripe_size: 4096,
        page_size: 64,
        locking: false,
        lock_expansion: false,
        client_cache: false,
        cost: PfsCostModel::default(),
    };
    let pfs = match &scn.fault {
        Some(plan) => Pfs::with_faults(cfg, plan.clone()),
        None => Pfs::new(cfg),
    };
    let hints = Hints {
        engine: Engine::Flexible,
        cb_nodes: Some(AGGS),
        cb_buffer_size: 512,
        exchange: scn.exchange,
        persistent_file_realms: scn.pfr,
        fr_alignment: scn.pfr.then_some(256),
        crash_recovery: true,
        watchdog_us: 200_000,
        ..Hints::default()
    };
    let crashing = scn.crash.is_some();
    let spec = spec();
    let inner = Arc::clone(&pfs);
    let body = move |rank: &Rank| {
        let r = rank.rank();
        let mut f = MpiFile::open(rank, &inner, "fx", hints.clone()).unwrap();
        let (disp, ftype) = spec.file_view(r, TypeStyle::Succinct);
        let etype = Datatype::bytes(1);
        let (memtype, count) = (spec.mem_type(), spec.mem_count());
        let data = spec.make_buffer(r);
        let mut pairs = Vec::new();
        let mut call = |f: &MpiFile<'_>, read: bool| {
            let before = rank.stats().pairs_processed;
            if read {
                let mut back = vec![0u8; data.len()];
                f.read_all(&mut back, &memtype, count).unwrap();
                assert_eq!(back, data, "rank {r}: read-back differs");
            } else {
                f.write_all(&data, &memtype, count).unwrap();
            }
            pairs.push(rank.stats().pairs_processed - before);
        };
        f.set_view(disp, &etype, &ftype).unwrap();
        call(&f, false);
        call(&f, false);
        if !crashing {
            f.set_view(disp + spec.unit() * NPROCS as u64, &etype, &ftype).unwrap();
        }
        call(&f, false);
        call(&f, true);
        // Snapshot before `close`: its phase attribution is not part
        // of this contract.
        let out = (rank.now(), pairs, rank.stats());
        if !crashing {
            f.close().unwrap();
        }
        out
    };
    let per_rank: Vec<Option<(u64, Vec<u64>, Stats)>> = match scn.crash {
        Some(c) => run_crashable(NPROCS, CostModel::default(), &[c], body),
        None => run(NPROCS, CostModel::default(), body).into_iter().map(Some).collect(),
    };
    let mut block = String::new();
    writeln!(block, "[{}] image {:016x}", scn.name, fnv(&read_file(&pfs, "fx"))).unwrap();
    for (r, rec) in per_rank.iter().enumerate() {
        match rec {
            None => writeln!(block, "{r} crashed").unwrap(),
            Some((clock, pairs, stats)) => {
                let pairs: Vec<String> = pairs.iter().map(u64::to_string).collect();
                writeln!(
                    block,
                    "{r} {clock} {} {} {:016x}",
                    pairs.join(","),
                    stats.msgs_sent,
                    fnv(format!("{stats:?}").as_bytes())
                )
                .unwrap();
            }
        }
    }
    // The scenarios must exercise what their names say (checked on the
    // survivors' counters so a geometry change cannot silently stop
    // covering the rebalance patch or the subgroup replay).
    let stats: Vec<&Stats> = per_rank.iter().flatten().map(|(_, _, s)| s).collect();
    match scn.name {
        "pfr-straggler-rebalance" => {
            assert!(stats
                .iter()
                .all(|s| s.realms_rebalanced >= 1 && s.schedule_cache_patches >= 1));
        }
        "crash-recovery-replay" => {
            assert_eq!(stats.len(), NPROCS - 1);
            assert!(stats.iter().all(|s| s.ranks_recovered >= 1));
        }
        _ => assert!(stats
            .iter()
            .all(|s| s.schedule_cache_hits == 2 && s.schedule_cache_misses == 2)),
    }
    block
}

#[test]
fn engine_reproduces_the_parent_commit_fixture() {
    let got: String = scenarios().iter().map(run_scenario).collect();
    if std::env::var_os("FLEXIO_REGEN_FIXTURE").is_some() {
        std::fs::create_dir_all("tests/fixtures").unwrap();
        std::fs::write(FIXTURE, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(FIXTURE).expect("fixture missing (FLEXIO_REGEN_FIXTURE=1)");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "first differing fixture line (rank clock pairs/call msgs stats-digest)");
    }
    assert_eq!(got.lines().count(), want.lines().count());
}

/// The `timestep-locks-64` shape: eight `set_view` + write steps on one
/// file under persistent realms. Each step derives once for the world;
/// `set_view` drops the step's schedule on every rank before its barrier
/// releases anyone into the next derivation, so exactly one derivation is
/// resident after every step and none once the file is closed.
#[test]
fn eight_set_view_steps_keep_one_derivation_resident() {
    let spec = TimeStepSpec { elem_size: 8, elems_per_point: 24, points: 16, steps: 8, nprocs: 16 };
    let pfs = Pfs::new(PfsConfig::default());
    let inner = Arc::clone(&pfs);
    run(spec.nprocs, CostModel::default(), move |rank| {
        let hints = Hints {
            cb_nodes: Some(4),
            cb_buffer_size: 1024,
            persistent_file_realms: true,
            fr_alignment: Some(512),
            ..Hints::default()
        };
        assert_eq!(rank.shared_live(), 0);
        let mut f = MpiFile::open(rank, &inner, "steps", hints).unwrap();
        for step in 0..spec.steps {
            let (disp, ftype) = spec.file_view(rank.rank(), step);
            f.set_view(disp, &Datatype::bytes(spec.elem_size), &ftype).unwrap();
            let data = spec.make_buffer(rank.rank(), step);
            f.write_all(&data, &Datatype::bytes(data.len() as u64), 1).unwrap();
            assert_eq!(
                ExchangeSchedule::derivations_live(rank),
                1,
                "step {step}: stale derivations resident"
            );
        }
        assert_eq!(rank.stats().schedule_cache_misses, spec.steps);
        f.close().unwrap();
        rank.barrier();
        assert_eq!(rank.shared_live(), 0, "a derivation outlived every schedule using it");
    });
    assert_eq!(spec.verify(&read_file(&pfs, "steps")), Ok(()));
}

/// Derivations are keyed and world-scoped: two files with different views
/// in one world get one derivation each, and a second world (different
/// views again, same file system) starts with none and writes a correct
/// image — nothing carries over from the world before it.
#[test]
fn derivations_are_per_key_and_per_world() {
    let pfs = Pfs::new(PfsConfig::default());
    let shape = |region_size| HpioSpec {
        region_size,
        region_count: 8,
        region_spacing: 40,
        mem_noncontig: false,
        file_noncontig: true,
        nprocs: 8,
    };
    for (world, sizes) in [[8u64, 24], [16, 32]].into_iter().enumerate() {
        let inner = Arc::clone(&pfs);
        run(8, CostModel::default(), move |rank| {
            assert_eq!(rank.shared_live(), 0, "world {world} inherited a derivation");
            let hints = Hints { cb_nodes: Some(4), cb_buffer_size: 256, ..Hints::default() };
            let files: Vec<MpiFile<'_>> = sizes
                .iter()
                .map(|&size| {
                    let spec = shape(size);
                    let mut f =
                        MpiFile::open(rank, &inner, &format!("w{world}s{size}"), hints.clone())
                            .unwrap();
                    let (disp, ftype) = spec.file_view(rank.rank(), TypeStyle::Succinct);
                    f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
                    let data = spec.make_buffer(rank.rank());
                    f.write_all(&data, &spec.mem_type(), spec.mem_count()).unwrap();
                    f
                })
                .collect();
            rank.barrier();
            assert_eq!(rank.shared_live(), 2, "one derivation per (file, view)");
            for f in files {
                f.close().unwrap();
            }
        });
        for size in sizes {
            assert_eq!(shape(size).verify(&read_file(&pfs, &format!("w{world}s{size}"))), Ok(()));
        }
    }
}
