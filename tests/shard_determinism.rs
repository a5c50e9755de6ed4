//! Determinism harness for the sharded host-thread pool (ISSUE 10).
//!
//! The parity suite (`sim_backend_parity.rs`) checks that the pool agrees
//! with the sequential event loop on realistic collective-I/O workloads.
//! This suite attacks the pool itself:
//!
//! * **Run-twice bit-identity under perturbed host scheduling** — the
//!   pool's shard threads are started with seeded random sleeps and the
//!   shard condvars are flooded with spurious wakeups (`run_jittered`),
//!   so host-thread interleaving differs across runs and from the
//!   unjittered pool. Results must not.
//! * **The dispatch fence under spurious wakeups** — a directed
//!   regression asserting at-most-one rank segment in flight while
//!   cross-shard deliveries lower sleeping shards' published mins below
//!   the runner's key.
//! * **Degenerate partitions** — odd shard counts, more shards than
//!   ranks (the pool must clamp), and exactly one rank per shard.
//! * **Cross-shard delivery** — a directed regression for the latent
//!   assumption that message delivery runs on the receiver's host
//!   thread: with one rank per shard, *every* send crosses shards and
//!   must route through the gate inbox, never the sender-local handoff.
//! * **Crash-stop, park timers, and deadlock detection** under shards.
//! * A randomized **message-ordering property** over
//!   `flexio_sim::prop`: per-`(src, tag)` FIFO order and full
//!   bit-identity to the sequential loop across random world sizes,
//!   shard counts, fanouts, and virtual-clock skews (regressions pinned
//!   in `shard_determinism.proptest-regressions`).
//! * The **world-shared "compute once" cell** under the same hostile
//!   interleavings: a fine-grained flexible collective derives its
//!   schedule once per world whichever shard wakes first.

use flexio::core::{ExchangeMode, Hints, MpiFile};
use flexio::hpio::{HpioSpec, TypeStyle};
use flexio::pfs::{Pfs, PfsConfig};
use flexio::sim::{
    run_crashable_on, run_jittered, run_on, Backend, CostModel, Rank, Stats, XorShift64Star,
};
use flexio::types::Datatype;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A workload that crosses shard boundaries in every way the runtime
/// allows: ring point-to-point, collectives, a timed park that expires,
/// and payload-dependent clock advances.
fn mixed(r: &Rank) -> (u64, Stats, Vec<u8>) {
    let p = r.nprocs();
    r.advance((r.rank() as u64 * 37) % 101);
    r.send((r.rank() + 1) % p, 7, &[r.rank() as u8; 24]);
    let got = r.recv((r.rank() + p - 1) % p, 7);
    r.charge_pairs(got.len() as u64);
    // A park deadline that always fires: nobody sends tag 99.
    let none = r.recv_timeout((r.rank() + 1) % p, 99, r.now() + 50);
    assert!(none.is_none(), "tag 99 is never sent");
    r.barrier();
    let seed = r.bcast(0, if r.rank() == 0 { vec![3; 4] } else { vec![] });
    let all = r.allgatherv(&[r.rank() as u8, seed[0], got[0]]);
    (r.now(), r.stats(), all.into_iter().flatten().collect())
}

#[test]
fn jittered_runs_are_bit_identical() {
    if !Backend::event_loop_supported() {
        return;
    }
    // Perturb host scheduling with seeded shard-thread start jitter (up
    // to 200 us): two jittered runs, and the unjittered pool, and the
    // sequential loop must all agree bit for bit.
    for p in [5usize, 12] {
        let baseline = run_on(Backend::EventLoop, p, CostModel::default(), mixed);
        for k in [3usize, 5, 7] {
            for seed in 0..4u64 {
                let a = run_jittered(p, CostModel::default(), k, seed, 200, mixed);
                let b = run_jittered(p, CostModel::default(), k, seed ^ 0xdead, 200, mixed);
                assert_eq!(a, baseline, "p={p} k={k} seed={seed}: jittered run diverges");
                assert_eq!(b, baseline, "p={p} k={k}: second jitter seed diverges");
            }
            let plain = run_on(Backend::Sharded(k), p, CostModel::default(), mixed);
            assert_eq!(plain, baseline, "p={p} k={k}: unjittered pool diverges");
        }
    }
}

#[test]
fn shared_cell_computes_once_under_jitter() {
    if !Backend::event_loop_supported() {
        return;
    }
    // The cell's soundness argument is "dispatch is runner-exclusive":
    // with shard threads racing to start and condvars flooded, still
    // exactly one rank computes and every rank sees that value.
    for k in [1usize, 2, 4, 7] {
        let inits = AtomicUsize::new(0);
        let out = run_jittered(12, CostModel::default(), k, k as u64, 200, |r| {
            r.advance((r.rank() as u64 * 37) % 101);
            let v = r.shared_once(5, || {
                inits.fetch_add(1, Ordering::SeqCst);
                r.rank()
            });
            r.barrier();
            *v
        });
        assert_eq!(inits.load(Ordering::SeqCst), 1, "k={k}");
        // Lowest clock runs first: rank 0 computed it.
        assert_eq!(out, vec![0; 12], "k={k}");
    }
}

#[test]
fn fine_grained_flexible_write_is_jitter_proof() {
    if !Backend::event_loop_supported() {
        return;
    }
    // The engine's use of the cell: 48 ranks, 24 aggregators, 8-byte
    // regions, nine 512-byte cycles, dense exchange. One rank derives the
    // world's schedule; clocks, Stats and the image must not depend on
    // which host thread got there.
    let spec = HpioSpec {
        region_size: 8,
        region_count: 16,
        region_spacing: 128,
        mem_noncontig: true,
        file_noncontig: true,
        nprocs: 48,
    };
    let body = |pfs: std::sync::Arc<Pfs>| {
        move |rank: &Rank| {
            let hints = Hints {
                exchange: ExchangeMode::Alltoallw,
                cb_nodes: Some(24),
                cb_buffer_size: 512,
                ..Hints::default()
            };
            let mut f = MpiFile::open(rank, &pfs, "fine", hints).unwrap();
            let (disp, ftype) = spec.file_view(rank.rank(), TypeStyle::Succinct);
            f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
            let data = spec.make_buffer(rank.rank());
            f.write_all(&data, &spec.mem_type(), spec.mem_count()).unwrap();
            assert_eq!(rank.shared_live(), 1);
            f.close().unwrap();
            (rank.now(), rank.stats())
        }
    };
    let image = |pfs: &std::sync::Arc<Pfs>| {
        let h = pfs.open("fine", usize::MAX - 1);
        let mut out = vec![0u8; h.size() as usize];
        h.read(0, 0, &mut out).unwrap();
        out
    };
    let pfs = Pfs::new(PfsConfig::default());
    let baseline = run_on(Backend::EventLoop, spec.nprocs, CostModel::default(), body(pfs.clone()));
    let want = image(&pfs);
    assert_eq!(spec.verify(&want), Ok(()));
    for k in [1usize, 2, 4, 7] {
        let pfs = Pfs::new(PfsConfig::default());
        let got =
            run_jittered(spec.nprocs, CostModel::default(), k, 0xf1e ^ k as u64, 200, body(pfs.clone()));
        assert_eq!(got, baseline, "k={k}: jittered flexible write diverges");
        assert_eq!(image(&pfs), want, "k={k}: image diverges");
    }
}

#[test]
fn degenerate_partitions_match_event_loop() {
    if !Backend::event_loop_supported() {
        return;
    }
    // (nprocs, shards): more shards than ranks (clamped), exactly one
    // rank per shard, and a lone rank under a wide pool.
    for (p, k) in [(4usize, 7usize), (3, 16), (6, 6), (1, 8)] {
        let ev = run_on(Backend::EventLoop, p, CostModel::default(), mixed);
        let sh = run_on(Backend::Sharded(k), p, CostModel::default(), mixed);
        assert_eq!(ev, sh, "p={p} k={k}: degenerate partition diverges");
    }
}

#[test]
fn cross_shard_sends_route_through_the_inbox() {
    if !Backend::event_loop_supported() {
        return;
    }
    // Two ranks, two shards: every message crosses a shard boundary, and
    // the receiver is already parked when the sender's fiber runs on the
    // *other* host thread. A delivery that touched the receiver's local
    // heap or park table directly (the retired thread-backend assumption)
    // corrupts shard-local state; routed through the gate inbox it must
    // reproduce the sequential hand-off exactly, 64 parks deep.
    let pingpong = |r: &Rank| {
        let mut log = Vec::new();
        for step in 0..64u64 {
            if r.rank() == 0 {
                r.send(1, step, &[step as u8; 16]);
                log.extend(r.recv(1, step));
            } else {
                log.extend(r.recv(0, step));
                r.advance(13);
                r.send(0, step, &[step as u8 ^ 0xa5; 16]);
            }
        }
        (r.now(), r.stats(), log)
    };
    let ev = run_on(Backend::EventLoop, 2, CostModel::default(), pingpong);
    let sh = run_on(Backend::Sharded(2), 2, CostModel::default(), pingpong);
    assert_eq!(ev, sh, "cross-shard ping-pong diverges from the sequential loop");
}

#[test]
fn crash_stop_is_deterministic_under_shards() {
    if !Backend::event_loop_supported() {
        return;
    }
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
    let ev = run_crashable_on(Backend::EventLoop, 5, CostModel::default(), &crashes, body);
    for k in [2usize, 3, 5] {
        let sh = run_crashable_on(Backend::Sharded(k), 5, CostModel::default(), &crashes, body);
        assert_eq!(ev, sh, "k={k}: crash-stop outcome diverges");
    }
    assert!(ev[2].is_none(), "the crashed rank must have no result");
}

#[test]
fn deadlock_is_detected_under_shards() {
    if !Backend::event_loop_supported() {
        return;
    }
    // All ranks park on a message nobody sends; the pool must converge on
    // the same diagnostic the sequential loop raises, not hang.
    let deadlocked = || {
        run_on(Backend::Sharded(3), 4, CostModel::default(), |r: &Rank| {
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

#[test]
fn spurious_condvar_wakeups_cannot_double_dispatch() {
    if !Backend::event_loop_supported() {
        return;
    }
    // The gate's dispatch fence must hold even when `Condvar::wait`
    // returns without a matching notify. `run_jittered` floods every
    // shard condvar with unrequested `notify_all` for the whole run, and
    // this workload manufactures the dangerous window: ranks 0..p-2 park
    // at clock 0, then the last rank's segment fans out cross-shard
    // deliveries whose wake keys sit *below* its own executing key —
    // lowering sleeping shards' published mins mid-segment. A woken
    // shard that trusts the wakeup (instead of re-checking the gate's
    // running fence) dispatches a second segment concurrently with the
    // in-flight one, which the atomic below detects directly.
    use std::sync::atomic::{AtomicUsize, Ordering};
    static IN_SEGMENT: AtomicUsize = AtomicUsize::new(0);
    fn enter() {
        let was = IN_SEGMENT.fetch_add(1, Ordering::SeqCst);
        assert_eq!(was, 0, "two rank segments executed concurrently");
    }
    fn exit() {
        IN_SEGMENT.fetch_sub(1, Ordering::SeqCst);
    }
    let (p, k) = (8usize, 4usize);
    let body = move |r: &Rank| {
        if r.rank() == p - 1 {
            r.advance(1_000_000);
            enter();
            for d in 0..p - 1 {
                r.send(d, 5, &[d as u8; 8]);
                // Hold the segment open in wall time: a wrongly woken
                // receiver shard gets every chance to dispatch while
                // this segment is still in flight.
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            exit();
        } else {
            let got = r.recv(p - 1, 5);
            enter();
            std::thread::sleep(std::time::Duration::from_micros(10));
            exit();
            assert_eq!(got, vec![r.rank() as u8; 8]);
        }
        (r.rank() as u64, r.now())
    };
    let baseline = run_on(Backend::EventLoop, p, CostModel::default(), body);
    for seed in 0..6u64 {
        let j = run_jittered(p, CostModel::default(), k, seed, 100, body);
        assert_eq!(j, baseline, "seed={seed}: run under spurious wakeups diverges");
    }
}

/// Random parameters for the ordering property.
#[derive(Debug)]
struct OrderCase {
    nprocs: usize,
    shards: usize,
    rounds: u64,
    fanout: usize,
    skew: u64,
}

#[test]
fn cross_shard_message_order_matches_event_loop() {
    if !Backend::event_loop_supported() {
        return;
    }
    flexio::sim::prop::Runner::new("cross_shard_message_order")
        .cases(24)
        .regressions(include_str!("shard_determinism.proptest-regressions"))
        .run(
            |rng: &mut XorShift64Star| OrderCase {
                nprocs: 2 + (rng.next_u64() % 9) as usize, // 2..=10
                shards: 1 + (rng.next_u64() % 8) as usize, // 1..=8
                rounds: 1 + rng.next_u64() % 6,            // 1..=6
                fanout: 1 + (rng.next_u64() % 3) as usize, // 1..=3
                skew: rng.next_u64() % 97,
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
                            // arrive in send order on every backend.
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
                let ev = run_on(Backend::EventLoop, p, CostModel::default(), body);
                let sh = run_on(Backend::Sharded(c.shards), p, CostModel::default(), body);
                assert_eq!(ev, sh, "case {c:?}: sharded run diverges from the event loop");
            },
        );
}
