//! Determinism regression suite for the rank runtime.
//!
//! One `(clock, rank)` pop order produces every number flexio reports, so
//! a run must be a pure function of its workload. Each test runs a world
//! twice (fresh PFS each time) and demands bit-identity in everything:
//! virtual clocks, the full `Stats` struct (including `bytes_copied`,
//! `overlap_saved_ns`, phase buckets), read-back buffers, and the bytes
//! on the PFS.
//!
//! * pure point-to-point/collective traffic with payload-dependent
//!   branches, timed parks that expire, and skewed clocks;
//! * collective I/O through both engines under free and timed PFS cost
//!   models, up to the paper-scale configuration where several
//!   aggregators race a shared OST clock, in both exchange modes;
//! * the world-shared schedule derivation (one rank derives, every rank
//!   views it) at fine granularity with many aggregators;
//! * crash-stop with a `recv_timeout` watchdog, and the deadlock
//!   diagnostic;
//! * a randomized **message-ordering property** over `flexio_sim::prop`:
//!   per-`(src, tag)` FIFO order across random world sizes, fanouts, and
//!   virtual-clock skews (regressions pinned in
//!   `sim_determinism.proptest-regressions`).
//!
//! Wherever every charge is attributed to a phase (the collective-I/O
//! workloads), phase buckets sum to each rank's elapsed clock.

use flexio::core::engine::ExchangeSchedule;
use flexio::core::{Engine, ExchangeMode, Hints, MpiFile};
use flexio::hpio::{HpioSpec, TypeStyle};
use flexio::pfs::{Pfs, PfsConfig, PfsCostModel};
use flexio::sim::{run, run_crashable, CostModel, Rank, Stats, XorShift64Star};
use flexio::types::Datatype;
use flexio::workload::{read_file, step_data};
use std::sync::Arc;

const BLOCK: u64 = 64;

fn pfs_with(cost: PfsCostModel) -> Arc<Pfs> {
    Pfs::new(PfsConfig {
        n_osts: 4,
        stripe_size: 1024,
        page_size: 64,
        locking: false,
        lock_expansion: false,
        client_cache: false,
        cost,
    })
}

/// Per-rank observation: (final clock, full stats, read-back bytes).
type RankTrace = (u64, Stats, Vec<u8>);

/// `one()` twice: both runs must agree on everything they return. Returns
/// the first.
fn twice<T: PartialEq + std::fmt::Debug>(label: &str, one: impl Fn() -> T) -> T {
    let (a, b) = (one(), one());
    assert_eq!(a, b, "{label}: not bit-identical run to run");
    a
}

fn assert_phase_sums(out: &[RankTrace], label: &str) {
    for (r, (now, s, _)) in out.iter().enumerate() {
        assert_eq!(
            s.phase_ns.iter().sum::<u64>(),
            *now,
            "{label}: rank {r} phase buckets must sum to its clock"
        );
    }
}

/// Rank 0's `data` on every rank: one sparse exchange from rank 0.
fn from_root(r: &Rank, data: Vec<u8>) -> Vec<u8> {
    let everyone = if r.rank() == 0 { 0..r.nprocs() } else { 0..0 };
    let sends = everyone.map(|d| (d, data.clone())).collect();
    r.exchange(sends, &[0]).pop().expect("rank 0's block").1
}

/// Ring point-to-point, collectives, a timed park that expires, and
/// payload-dependent clock advances.
fn mixed(r: &Rank) -> RankTrace {
    let p = r.nprocs();
    r.advance((r.rank() as u64 * 37) % 101);
    r.send((r.rank() + 1) % p, 7, &[r.rank() as u8; 24]);
    let got = r.recv((r.rank() + p - 1) % p, 7);
    r.charge_pairs(got.len() as u64);
    // A park deadline that always fires: nobody sends tag 99.
    let none = r.recv_timeout((r.rank() + 1) % p, 99, r.now() + 50);
    assert!(none.is_none(), "tag 99 is never sent");
    r.barrier();
    let seed = from_root(r, vec![3; 4]);
    let all = r.allgatherv(&[r.rank() as u8, seed[0], got[0]]);
    (r.now(), r.stats(), all.into_iter().flatten().collect())
}

#[test]
fn mixed_runs_are_bit_identical() {
    for p in [1usize, 3, 4, 5, 6, 12] {
        twice(&format!("p={p}"), || run(p, CostModel::default(), mixed));
    }
}

#[test]
fn pure_collectives_bit_identical_run_to_run() {
    // No file system at all: pure point-to-point and collective traffic,
    // including payload-dependent branches.
    let workload = |r: &Rank| {
        let p = r.nprocs();
        r.send((r.rank() + 1) % p, 1, &[r.rank() as u8; 48]);
        let got = r.recv((r.rank() + p - 1) % p, 1);
        r.charge_pairs(got.len() as u64);
        r.barrier();
        let seed = from_root(r, vec![9; 8]);
        let all = r.allgatherv(&[r.rank() as u8, seed[0]]);
        let blocks: Vec<Vec<u8>> = (0..p).map(|d| vec![(r.rank() + d) as u8; 7]).collect();
        let x = r.alltoallv(blocks);
        // Every rank's block to rank 0 and back: many to one, one to many.
        let everyone: Vec<usize> = if r.rank() == 0 { (0..p).collect() } else { Vec::new() };
        let g = r.exchange(vec![(0, x[(r.rank() + 1) % p].clone())], &everyone);
        let mut img = r.exchange(g, &[0]).pop().expect("one block from rank 0").1;
        img.extend(all.into_iter().flatten());
        (r.now(), r.stats(), img)
    };
    for p in [2usize, 16, 64] {
        twice(&format!("p={p}"), || run(p, CostModel::default(), workload));
    }
}

/// One run of the parity workload: interleaved-block collective writes
/// then a collective read-back. Returns per-rank traces plus the final
/// file image.
fn parity_run(
    cost: PfsCostModel,
    engine: Engine,
    nprocs: usize,
    blocks: u64,
    steps: u64,
    cb_nodes: usize,
) -> (Vec<RankTrace>, Vec<u8>) {
    let pfs = pfs_with(cost);
    let pfs2 = Arc::clone(&pfs);
    let out = run(nprocs, CostModel::default(), move |rank| {
        let hints = Hints {
            engine,
            cb_nodes: Some(cb_nodes),
            cb_buffer_size: 256, // several cycles per call
            ..Hints::default()
        };
        let mut f = MpiFile::open(rank, &pfs2, "parity", hints).unwrap();
        let block = Datatype::bytes(BLOCK);
        let ftype = Datatype::resized(0, nprocs as u64 * BLOCK, block);
        f.set_view(rank.rank() as u64 * BLOCK, &Datatype::bytes(1), &ftype).unwrap();
        let len = (blocks * BLOCK) as usize;
        for s in 0..steps {
            let data = step_data(rank.rank(), s, len);
            f.write_all(&data, &Datatype::bytes(len as u64), 1).unwrap();
        }
        let mut back = vec![0u8; len];
        f.read_all(&mut back, &Datatype::bytes(len as u64), 1).unwrap();
        f.close().unwrap();
        (rank.now(), rank.stats(), back)
    });
    let image = read_file(&pfs, "parity");
    (out, image)
}

#[test]
fn collective_io_bit_identical_run_to_run() {
    // Free and timed PFS cost models, single aggregator (cb 1): the
    // smallest I/O-path configuration, both engines.
    let cases = [(PfsCostModel::free(), 8usize), (PfsCostModel::default(), 6)];
    for engine in [Engine::Flexible, Engine::Romio] {
        for (cost, nprocs) in cases {
            let label = format!("{engine:?} cb=1 p={nprocs}");
            let (out, _) = twice(&label, || parity_run(cost, engine, nprocs, 16, 3, 1));
            assert_phase_sums(&out, &label);
        }
    }
}

#[test]
fn paper_scale_bit_identical_run_to_run() {
    // Timed PFS, several racing aggregators, both engines — the
    // configuration where the retired thread-per-rank backend was *not*
    // clock-deterministic: OST service order is a host-order fact, and
    // only lowest-clock-first dispatch pins it down.
    for engine in [Engine::Flexible, Engine::Romio] {
        let label = format!("{engine:?} 16 ranks / 4 aggregators");
        let (out, _) = twice(&label, || parity_run(PfsCostModel::default(), engine, 16, 24, 3, 4));
        assert_phase_sums(&out, &label);
    }
}

#[test]
fn exchange_modes_bit_identical_run_to_run() {
    for exchange in [ExchangeMode::Nonblocking, ExchangeMode::Alltoallw] {
        twice(&format!("{exchange:?}"), || {
            let pfs = pfs_with(PfsCostModel::free());
            let pfs2 = Arc::clone(&pfs);
            let out = run(8, CostModel::default(), move |rank| {
                let hints =
                    Hints { exchange, cb_nodes: Some(4), cb_buffer_size: 256, ..Hints::default() };
                let mut f = MpiFile::open(rank, &pfs2, "xmode", hints).unwrap();
                let block = Datatype::bytes(BLOCK);
                let ftype = Datatype::resized(0, 8 * BLOCK, block);
                f.set_view(rank.rank() as u64 * BLOCK, &Datatype::bytes(1), &ftype).unwrap();
                let data = step_data(rank.rank(), 0, (12 * BLOCK) as usize);
                f.write_all(&data, &Datatype::bytes(data.len() as u64), 1).unwrap();
                f.close().unwrap();
                (rank.now(), rank.stats())
            });
            (out, read_file(&pfs, "xmode"))
        });
    }
}

#[test]
fn fine_grained_flexible_write_is_bit_identical() {
    // The engine's use of the world-shared cell: 48 ranks, 24 aggregators,
    // 8-byte regions, nine 512-byte cycles, dense exchange. One rank
    // derives the world's schedule, every rank views it.
    let spec = HpioSpec {
        region_size: 8,
        region_count: 16,
        region_spacing: 128,
        mem_noncontig: true,
        file_noncontig: true,
        nprocs: 48,
    };
    let (_, image) = twice("fine-grained flexible write", || {
        let pfs = Pfs::new(PfsConfig::default());
        let pfs2 = Arc::clone(&pfs);
        let out = run(spec.nprocs, CostModel::default(), move |rank| {
            let hints = Hints {
                exchange: ExchangeMode::Alltoallw,
                cb_nodes: Some(24),
                cb_buffer_size: 512,
                ..Hints::default()
            };
            let mut f = MpiFile::open(rank, &pfs2, "fine", hints).unwrap();
            let (disp, ftype) = spec.file_view(rank.rank(), TypeStyle::Succinct);
            f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
            let data = spec.make_buffer(rank.rank());
            f.write_all(&data, &spec.mem_type(), spec.mem_count()).unwrap();
            assert_eq!(ExchangeSchedule::derivations_live(rank), 1);
            f.close().unwrap();
            (rank.now(), rank.stats())
        });
        (out, read_file(&pfs, "fine"))
    });
    assert_eq!(spec.verify(&image), Ok(()));
}

#[test]
fn fine_grained_shared_derivation_bit_identical_run_to_run() {
    // `fine-512`'s shape at 64 ranks: 8-byte regions, 32 aggregators,
    // nine 512-byte cycles, dense exchange, persistent aligned realms and
    // a second view (a new derivation cut against the first one's
    // realms). The first rank to run derives for the world; every rank
    // must still be charged its own row and column.
    let spec = HpioSpec {
        region_size: 8,
        region_count: 16,
        region_spacing: 128,
        mem_noncontig: true,
        file_noncontig: true,
        nprocs: 64,
    };
    let (out, _) = twice("fine-grained shared derivation", || {
        let pfs = pfs_with(PfsCostModel::default());
        let pfs2 = Arc::clone(&pfs);
        let out = run(spec.nprocs, CostModel::default(), move |rank| {
            let hints = Hints {
                exchange: ExchangeMode::Alltoallw,
                cb_nodes: Some(32),
                cb_buffer_size: 512,
                persistent_file_realms: true,
                fr_alignment: Some(256),
                ..Hints::default()
            };
            let mut f = MpiFile::open(rank, &pfs2, "fine", hints).unwrap();
            let (disp, ftype) = spec.file_view(rank.rank(), TypeStyle::Succinct);
            let data = spec.make_buffer(rank.rank());
            let mut back = vec![0u8; data.len()];
            for shift in [0, spec.unit()] {
                f.set_view(disp + shift, &Datatype::bytes(1), &ftype).unwrap();
                f.write_all(&data, &spec.mem_type(), spec.mem_count()).unwrap();
                assert_eq!(
                    ExchangeSchedule::derivations_live(rank),
                    1,
                    "one derivation per world and view"
                );
            }
            f.read_all(&mut back, &spec.mem_type(), spec.mem_count()).unwrap();
            f.close().unwrap();
            (rank.now(), rank.stats(), back)
        });
        (out, read_file(&pfs, "fine"))
    });
    assert_phase_sums(&out, "fine-grained shared derivation");
    assert!(out.iter().all(|(_, s, _)| s.schedule_cache_misses == 2 && s.schedule_cache_hits == 1));
}

#[test]
fn crash_stop_and_recv_timeout_are_deterministic() {
    // Rank 2 crash-stops at its checkpoint; its neighbour times out on
    // the missing message and everyone else finishes normally.
    let crashes = [(2usize, 10u64)];
    let body = |r: &Rank| {
        let p = r.nprocs();
        r.advance(r.rank() as u64 * 11);
        r.maybe_crash();
        r.send((r.rank() + 1) % p, 1, &[r.rank() as u8; 8]);
        let first = r.recv_timeout((r.rank() + p - 1) % p, 1, r.now() + 500);
        (r.now(), first.map(|v| v[0]))
    };
    let out = twice("crash-stop", || run_crashable(5, CostModel::default(), &crashes, body));
    assert!(out[2].is_none(), "the crashed rank must have no result");
    let (_, from_dead) = out[3].expect("rank 3 survives");
    assert_eq!(from_dead, None, "rank 3 must time out on its dead neighbour");
}

#[test]
fn deadlock_is_detected_and_reported() {
    // All ranks park on a message nobody sends: a diagnostic, not a hang.
    let deadlocked = || {
        run(4, CostModel::default(), |r: &Rank| {
            r.recv((r.rank() + 1) % r.nprocs(), 42);
        });
    };
    let err = std::panic::catch_unwind(deadlocked).expect_err("deadlock must panic");
    let msg = err.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
    assert!(
        msg.contains("deadlock") && msg.contains("4 of 4 ranks parked"),
        "unexpected deadlock diagnostic: {msg:?}"
    );
}

/// Random parameters for the ordering property.
#[derive(Debug)]
struct OrderCase {
    nprocs: usize,
    rounds: u64,
    fanout: usize,
    skew: u64,
}

#[test]
fn message_order_is_fifo_per_source_and_tag() {
    flexio::sim::prop::Runner::new("message_order")
        .cases(24)
        .regressions(include_str!("sim_determinism.proptest-regressions"))
        .run(
            |rng: &mut XorShift64Star| {
                let nprocs = 2 + (rng.next_u64() % 9) as usize; // 2..=10
                                                                // The draw that used to pick a pool width: the pinned
                                                                // seeds keep standing for the cases they were pinned for.
                rng.next_u64();
                OrderCase {
                    nprocs,
                    rounds: 1 + rng.next_u64() % 6,            // 1..=6
                    fanout: 1 + (rng.next_u64() % 3) as usize, // 1..=3
                    skew: rng.next_u64() % 97,
                }
            },
            |c: &OrderCase| {
                let (p, rounds, skew) = (c.nprocs, c.rounds, c.skew);
                let fanout = c.fanout.min(p - 1).max(1);
                let body = move |r: &Rank| {
                    // Seeded per-rank clock skew decorrelates dispatch
                    // order from rank order.
                    r.advance(r.rank() as u64 * skew % 61);
                    for d in 1..=fanout {
                        let dst = (r.rank() + d) % p;
                        for s in 0..rounds {
                            r.advance(skew % (7 + d as u64));
                            r.send(dst, d as u64, &[r.rank() as u8, d as u8, s as u8]);
                        }
                    }
                    let mut log = Vec::new();
                    for d in 1..=fanout {
                        let src = (r.rank() + p - d) % p;
                        for s in 0..rounds {
                            let m = r.recv(src, d as u64);
                            // Per-(src, tag) FIFO: sequence numbers must
                            // arrive in send order.
                            assert_eq!(
                                m,
                                vec![src as u8, d as u8, s as u8],
                                "rank {} saw out-of-order delivery from {src} tag {d}",
                                r.rank()
                            );
                            log.extend(m);
                        }
                    }
                    (r.now(), r.stats(), log)
                };
                twice(&format!("case {c:?}"), || run(p, CostModel::default(), body));
            },
        );
}
