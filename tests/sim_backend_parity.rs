//! Backend determinism regression suite (ISSUE 7 satellite, extended by
//! ISSUE 10 to the sharded host-thread pool).
//!
//! The sharded pool must be a drop-in replacement for the sequential
//! event loop at **every** shard count:
//!
//! * **Determinism by construction** — two event-loop runs of the same
//!   workload are bit-identical in everything: virtual clocks, the full
//!   `Stats` struct (including `bytes_copied`, `overlap_saved_ns`, phase
//!   buckets), read-back buffers, and the bytes on the PFS.
//! * **Shard parity, unconditionally** — the pool serializes dispatch on
//!   the global minimum `(clock, rank)` key (DESIGN.md "Rank runtime"),
//!   so unlike the retired thread-per-rank backend there is no "racy
//!   workload" carve-out: clocks, full `Stats`, read-back bytes, and file
//!   images must match the sequential loop bit for bit at shard counts
//!   {1, 2, 4, 7}, including the paper-scale configuration with several
//!   aggregators racing a shared OST clock that threads could never pin
//!   down.
//! * Phase buckets always sum to each rank's elapsed clock.
//! * The world-shared schedule derivation (one rank derives, every rank
//!   views it) is part of that contract: a fine-grained flexible
//!   configuration with many aggregators runs at every shard count.

use flexio::core::{Engine, ExchangeMode, Hints, MpiFile};
use flexio::hpio::{HpioSpec, TypeStyle};
use flexio::pfs::{Pfs, PfsConfig, PfsCostModel};
use flexio::sim::{run_on, Backend, CostModel, Stats, XorShift64Star};
use flexio::types::Datatype;
use std::sync::Arc;

const BLOCK: u64 = 64;

/// Every pool width the suite exercises against the sequential loop:
/// degenerate (1), even splits (2, 4), and an odd width (7) that leaves
/// unequal shards at every world size used here.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

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

fn read_file(pfs: &Arc<Pfs>, path: &str) -> Vec<u8> {
    let h = pfs.open(path, usize::MAX - 1);
    let mut out = vec![0u8; h.size() as usize];
    h.read(0, 0, &mut out).unwrap();
    out
}

fn step_data(rank: usize, step: u64, len: usize) -> Vec<u8> {
    let mut rng = XorShift64Star::new((rank as u64) << 32 | (step + 1));
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    buf
}

/// Per-rank observation: (final clock, full stats, read-back bytes).
type RankTrace = (u64, Stats, Vec<u8>);

/// One backend run of the parity workload: interleaved-block collective
/// writes then a collective read-back. Returns per-rank traces plus the
/// final file image.
#[allow(clippy::too_many_arguments)]
fn parity_run(
    backend: Backend,
    cost: PfsCostModel,
    engine: Engine,
    nprocs: usize,
    blocks: u64,
    steps: u64,
    cb_nodes: usize,
) -> (Vec<RankTrace>, Vec<u8>) {
    let pfs = pfs_with(cost);
    let pfs2 = Arc::clone(&pfs);
    let out = run_on(backend, nprocs, CostModel::default(), move |rank| {
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

fn assert_phase_sums(out: &[(u64, Stats, Vec<u8>)], label: &str) {
    for (r, (now, s, _)) in out.iter().enumerate() {
        assert_eq!(
            s.phase_ns.iter().sum::<u64>(),
            *now,
            "{label}: rank {r} phase buckets must sum to its clock"
        );
    }
}

#[test]
fn pure_collectives_bit_identical_across_shards() {
    if !Backend::event_loop_supported() {
        return;
    }
    // No file system at all: pure point-to-point and collective traffic,
    // including payload-dependent branches, across every shard boundary.
    let workload = |r: &flexio::sim::Rank| {
        let p = r.nprocs();
        r.send((r.rank() + 1) % p, 1, &[r.rank() as u8; 48]);
        let got = r.recv((r.rank() + p - 1) % p, 1);
        r.charge_pairs(got.len() as u64);
        r.barrier();
        let seed = r.bcast(0, if r.rank() == 0 { vec![9; 8] } else { vec![] });
        let all = r.allgatherv(&[r.rank() as u8, seed[0]]);
        let blocks: Vec<Vec<u8>> = (0..p).map(|d| vec![(r.rank() + d) as u8; 7]).collect();
        let x = r.alltoallv(blocks);
        let g = r.gatherv(0, &x[(r.rank() + 1) % p]);
        let s = r.scatterv(0, if r.rank() == 0 { g } else { Vec::new() });
        let mut img = s;
        img.extend(all.into_iter().flatten());
        (r.now(), r.stats(), img)
    };
    for p in [2usize, 16, 64] {
        let ev = run_on(Backend::EventLoop, p, CostModel::default(), workload);
        for k in SHARD_COUNTS {
            let sh = run_on(Backend::Sharded(k), p, CostModel::default(), workload);
            assert_eq!(ev, sh, "p={p} shards={k}: clocks/stats/bytes diverge");
        }
    }
}

#[test]
fn collective_io_bit_identical_across_shards() {
    if !Backend::event_loop_supported() {
        return;
    }
    // Free and timed PFS cost models, single aggregator (cb 1): the
    // smallest I/O-path configuration, both engines.
    let cases = [(PfsCostModel::free(), 8usize), (PfsCostModel::default(), 6)];
    let cb = 1usize;
    for engine in [Engine::Flexible, Engine::Romio] {
        for (cost, nprocs) in cases {
            let (ev, ev_img) = parity_run(Backend::EventLoop, cost, engine, nprocs, 16, 3, cb);
            assert_phase_sums(&ev, "event loop");
            for k in SHARD_COUNTS {
                let (sh, sh_img) =
                    parity_run(Backend::Sharded(k), cost, engine, nprocs, 16, 3, cb);
                assert_eq!(ev_img, sh_img, "{engine:?} cb={cb} shards={k}: images diverge");
                for r in 0..nprocs {
                    assert_eq!(
                        ev[r], sh[r],
                        "{engine:?} cb={cb} shards={k}: rank {r} (clock, full Stats, \
                         read-back) diverge"
                    );
                }
            }
        }
    }
}

#[test]
fn paper_scale_bit_identical_across_shards() {
    if !Backend::event_loop_supported() {
        return;
    }
    // Timed PFS, several racing aggregators, both engines — the
    // configuration where the retired thread-per-rank backend was *not*
    // clock-deterministic and the old suite had to fall back to
    // order-insensitive work counters. The pool has no such carve-out:
    // the min-gate serializes OST service order exactly as the sequential
    // loop would, so full bit-identity holds at every shard count.
    for engine in [Engine::Flexible, Engine::Romio] {
        let (a, a_img) =
            parity_run(Backend::EventLoop, PfsCostModel::default(), engine, 16, 24, 3, 4);
        let (b, b_img) =
            parity_run(Backend::EventLoop, PfsCostModel::default(), engine, 16, 24, 3, 4);
        assert_eq!(a_img, b_img, "{engine:?}: event-loop file images diverge across runs");
        assert_eq!(a, b, "{engine:?}: event loop not bit-identical across runs");
        assert_phase_sums(&a, "event loop");

        for k in SHARD_COUNTS {
            let (sh, sh_img) =
                parity_run(Backend::Sharded(k), PfsCostModel::default(), engine, 16, 24, 3, 4);
            assert_eq!(a_img, sh_img, "{engine:?} shards={k}: file image diverges");
            for r in 0..16 {
                assert_eq!(
                    a[r], sh[r],
                    "{engine:?} shards={k}: rank {r} not bit-identical to the event loop"
                );
            }
            assert_phase_sums(&sh, "sharded pool");
        }
    }
}

#[test]
fn exchange_modes_identical_across_shards() {
    if !Backend::event_loop_supported() {
        return;
    }
    // Both exchange flavours at every shard count: full bit-identity.
    for exchange in [ExchangeMode::Nonblocking, ExchangeMode::Alltoallw] {
        let run_one = |backend: Backend| {
            let pfs = pfs_with(PfsCostModel::free());
            let pfs2 = Arc::clone(&pfs);
            let out = run_on(backend, 8, CostModel::default(), move |rank| {
                let hints = Hints {
                    exchange,
                    cb_nodes: Some(4),
                    cb_buffer_size: 256,
                    ..Hints::default()
                };
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
        };
        let (ev, ev_img) = run_one(Backend::EventLoop);
        for k in SHARD_COUNTS {
            let (sh, sh_img) = run_one(Backend::Sharded(k));
            assert_eq!(ev_img, sh_img, "{exchange:?} shards={k}: images diverge");
            assert_eq!(ev, sh, "{exchange:?} shards={k}: clocks/stats diverge");
        }
    }
}

#[test]
fn fine_grained_shared_derivation_identical_across_shards() {
    if !Backend::event_loop_supported() {
        return;
    }
    // `fine-512`'s shape at 64 ranks: 8-byte regions, 32 aggregators,
    // nine 512-byte cycles, dense exchange, persistent aligned realms and
    // a second view (a new derivation cut against the first one's
    // realms). Whichever rank the backend runs first derives for the
    // world; every rank must still be charged its own row and column.
    let spec = HpioSpec {
        region_size: 8,
        region_count: 16,
        region_spacing: 128,
        mem_noncontig: true,
        file_noncontig: true,
        nprocs: 64,
    };
    let run_one = |backend: Backend| {
        let pfs = pfs_with(PfsCostModel::default());
        let pfs2 = Arc::clone(&pfs);
        let out = run_on(backend, spec.nprocs, CostModel::default(), move |rank| {
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
                assert_eq!(rank.shared_live(), 1, "one derivation per world and view");
            }
            f.read_all(&mut back, &spec.mem_type(), spec.mem_count()).unwrap();
            f.close().unwrap();
            (rank.now(), rank.stats(), back)
        });
        (out, read_file(&pfs, "fine"))
    };
    let (ev, ev_img) = run_one(Backend::EventLoop);
    assert_phase_sums(&ev, "event loop");
    assert!(ev.iter().all(|(_, s, _)| s.schedule_cache_misses == 2 && s.schedule_cache_hits == 1));
    for k in SHARD_COUNTS {
        let (sh, sh_img) = run_one(Backend::Sharded(k));
        assert_eq!(ev_img, sh_img, "shards={k}: images diverge");
        for r in 0..spec.nprocs {
            assert_eq!(ev[r], sh[r], "shards={k}: rank {r} (clock, full Stats, read-back) diverge");
        }
    }
}
