//! Integration tests for the supporting API surface: darray/subarray
//! datatypes driving collective I/O, Info-string hints, and per-rank
//! cost attribution.

use flexio::core::{hints_from_info, Engine, Hints, MpiFile};
use flexio::pfs::{Pfs, PfsConfig, PfsCostModel};
use flexio::sim::{run, CostModel, Phase};
use flexio::types::{darray, subarray, Datatype, Distribution};
use std::sync::Arc;

fn free_pfs() -> Arc<Pfs> {
    Pfs::new(PfsConfig {
        n_osts: 4,
        stripe_size: 512,
        page_size: 64,
        locking: false,
        lock_expansion: true,
        client_cache: false,
        cost: PfsCostModel::free(),
    })
}

#[test]
fn darray_block_cyclic_collective_write() {
    // 8x8 matrix of 4-byte elements over a 2x2 grid, cyclic(1) rows x
    // block cols: every rank writes its partition collectively; the file
    // must be a complete, correct matrix.
    let (n, elem) = (8u64, 4u64);
    let pfs = free_pfs();
    {
        let pfs = Arc::clone(&pfs);
        run(4, CostModel::free(), move |rank| {
            let coords = [rank.rank() as u64 / 2, rank.rank() as u64 % 2];
            let dt = darray(
                &[n, n],
                &[Distribution::Cyclic(1), Distribution::Block],
                &[2, 2],
                &coords,
                elem,
            );
            let bytes = dt.size();
            let mut f = MpiFile::open(rank, &pfs, "da", Hints::default()).unwrap();
            f.set_view(0, &Datatype::bytes(elem), &dt).unwrap();
            // Element payload = rank id + 1 in every byte.
            let data = vec![rank.rank() as u8 + 1; bytes as usize];
            f.write_all(&data, &Datatype::bytes(bytes), 1).unwrap();
            f.close().unwrap();
        });
    }
    let h = pfs.open("da", 99);
    assert_eq!(h.size(), n * n * elem);
    let mut img = vec![0u8; (n * n * elem) as usize];
    h.read(0, 0, &mut img).unwrap();
    for r in 0..n {
        for c in 0..n {
            // Owner: row cyclic(1) over 2 -> r % 2; col block -> c / 4.
            let owner = (r % 2) * 2 + c / 4;
            for b in 0..elem {
                let off = ((r * n + c) * elem + b) as usize;
                assert_eq!(img[off], owner as u8 + 1, "element ({r},{c}) byte {b}");
            }
        }
    }
}

#[test]
fn subarray_3d_collective_write() {
    // 4x4x4 cube of 1-byte elements split into 8 octants over 8 ranks.
    let pfs = free_pfs();
    {
        let pfs = Arc::clone(&pfs);
        run(8, CostModel::free(), move |rank| {
            let r = rank.rank() as u64;
            let starts = [(r / 4) * 2, ((r / 2) % 2) * 2, (r % 2) * 2];
            let dt = subarray(&[4, 4, 4], &[2, 2, 2], &starts, 1);
            let mut f = MpiFile::open(rank, &pfs, "cube", Hints::default()).unwrap();
            f.set_view(0, &Datatype::bytes(1), &dt).unwrap();
            let data = vec![rank.rank() as u8 + 1; 8];
            f.write_all(&data, &Datatype::bytes(8), 1).unwrap();
            f.close().unwrap();
        });
    }
    let h = pfs.open("cube", 99);
    let mut img = vec![0u8; 64];
    h.read(0, 0, &mut img).unwrap();
    for z in 0..4u64 {
        for y in 0..4u64 {
            for x in 0..4u64 {
                let owner = (z / 2) * 4 + (y / 2) * 2 + x / 2;
                let off = (z * 16 + y * 4 + x) as usize;
                assert_eq!(img[off], owner as u8 + 1, "({z},{y},{x})");
            }
        }
    }
}

#[test]
fn info_hints_drive_collective() {
    // A full configuration expressed as ROMIO info strings.
    let hints = hints_from_info(
        Hints::default(),
        &[
            ("cb_nodes", "2"),
            ("cb_buffer_size", "4096"),
            ("romio_ds_write", "enable"),
            ("ind_wr_buffer_size", "1024"),
            ("striping_unit", "512"),
            ("flexio_pfr", "enable"),
        ],
    )
    .unwrap();
    let pfs = free_pfs();
    let pfs2 = Arc::clone(&pfs);
    run(4, CostModel::free(), move |rank| {
        let mut f = MpiFile::open(rank, &pfs2, "info", hints.clone()).unwrap();
        let bt = Datatype::bytes(32);
        let ft = Datatype::resized(0, 128, bt.clone());
        f.set_view(rank.rank() as u64 * 32, &bt, &ft).unwrap();
        let data = vec![rank.rank() as u8 + 1; 256];
        f.write_all(&data, &Datatype::bytes(256), 1).unwrap();
        f.close().unwrap();
    });
    let h = pfs.open("info", 99);
    let mut img = vec![0u8; h.size() as usize];
    h.read(0, 0, &mut img).unwrap();
    for (i, &b) in img.iter().enumerate() {
        assert_eq!(b, ((i / 32) % 4) as u8 + 1, "byte {i}");
    }
}

#[test]
fn profile_attributes_engine_costs() {
    // The per-rank counters must show the enumerated filetype costing more
    // compute (pair evaluations) than the succinct one — §6.2's MPE
    // attribution, folded over the ranks: `(Σ pairs, max compute ns,
    // Σ bytes sent)`.
    let profile_for = |succinct: bool| {
        let pfs = Pfs::new(PfsConfig::default());
        let stats = run(4, CostModel::default(), move |rank| {
            let hints = Hints { cb_nodes: Some(2), ..Hints::default() };
            let mut f = MpiFile::open(rank, &pfs, "p", hints).unwrap();
            let region = 32u64;
            let stride = 4 * 128i64;
            let ft = if succinct {
                Datatype::resized(0, 512, Datatype::bytes(region))
            } else {
                Datatype::hvector(256, 1, stride, Datatype::bytes(region))
            };
            f.set_view(rank.rank() as u64 * 128, &Datatype::bytes(1), &ft).unwrap();
            let data = vec![1u8; (region * 256) as usize];
            f.write_all(&data, &Datatype::bytes(region * 256), 1).unwrap();
            f.close().unwrap();
            rank.stats()
        });
        (
            stats.iter().map(|s| s.pairs_processed).sum::<u64>(),
            stats.iter().map(|s| s.phase_ns[Phase::Compute as usize]).max().unwrap(),
            stats.iter().map(|s| s.bytes_sent).sum::<u64>(),
        )
    };
    let (succinct_pairs, succinct_compute, succinct_sent) = profile_for(true);
    let (enumerated_pairs, enumerated_compute, _) = profile_for(false);
    assert!(
        enumerated_pairs > succinct_pairs * 2,
        "enumerated {enumerated_pairs} vs succinct {succinct_pairs}"
    );
    assert!(enumerated_compute > succinct_compute);
    // Both moved the same data.
    assert!(succinct_sent > 0);
}

#[test]
fn set_size_and_preallocate_are_collective() {
    let pfs = free_pfs();
    let pfs2 = Arc::clone(&pfs);
    run(3, CostModel::free(), move |rank| {
        let mut f = MpiFile::open(rank, &pfs2, "sz", Hints::default()).unwrap();
        let bt = Datatype::bytes(8);
        f.set_view(0, &bt, &bt).unwrap();
        if rank.rank() == 0 {
            f.write_at(0, &[1u8; 64], &Datatype::bytes(64), 1).unwrap();
        }
        rank.barrier();
        f.preallocate(256);
        assert_eq!(f.size(), 256);
        // Keep the next collective's rank-0 truncate from racing the
        // other ranks' size check above (real threads, shared metadata).
        rank.barrier();
        f.set_size(32);
        assert_eq!(f.size(), 32);
        // Reads past the new EOF return zeros on every rank.
        let mut buf = vec![9u8; 64];
        f.read_at(0, &mut buf, &Datatype::bytes(64), 1).unwrap();
        assert_eq!(&buf[..32], &[1u8; 32]);
        assert_eq!(&buf[32..], &[0u8; 32]);
        f.close().unwrap();
    });
}

#[test]
fn engines_agree_on_darray_pattern() {
    let images: Vec<Vec<u8>> = [Engine::Flexible, Engine::Romio]
        .into_iter()
        .map(|engine| {
            let pfs = free_pfs();
            {
                let pfs = Arc::clone(&pfs);
                run(4, CostModel::free(), move |rank| {
                    let coords = [rank.rank() as u64 / 2, rank.rank() as u64 % 2];
                    let dt = darray(
                        &[8, 8],
                        &[Distribution::Cyclic(2), Distribution::Cyclic(1)],
                        &[2, 2],
                        &coords,
                        2,
                    );
                    let hints = Hints { engine, cb_nodes: Some(2), ..Hints::default() };
                    let mut f = MpiFile::open(rank, &pfs, "x", hints).unwrap();
                    f.set_view(0, &Datatype::bytes(2), &dt).unwrap();
                    let n = dt.size();
                    let data: Vec<u8> =
                        (0..n).map(|i| (rank.rank() as u64 * 60 + i % 59) as u8).collect();
                    f.write_all(&data, &Datatype::bytes(n), 1).unwrap();
                    f.close().unwrap();
                });
            }
            let h = pfs.open("x", 99);
            let mut img = vec![0u8; h.size() as usize];
            h.read(0, 0, &mut img).unwrap();
            img
        })
        .collect();
    assert_eq!(images[0], images[1]);
    assert_eq!(images[0].len(), 128);
}

/// Phase buckets sum to the clock through `sync` and `close` too: on a
/// caching file system both flush dirty pages, and that wait is I/O time.
#[test]
fn phase_buckets_sum_to_the_clock_after_a_flushing_close() {
    for engine in [Engine::Flexible, Engine::Romio] {
        let pfs = Pfs::new(PfsConfig {
            n_osts: 2,
            stripe_size: 4096,
            page_size: 256,
            locking: true,
            lock_expansion: false,
            client_cache: true,
            cost: PfsCostModel::default(),
        });
        let out = run(4, CostModel::default(), move |rank| {
            let hints = Hints { engine, cb_nodes: Some(2), ..Hints::default() };
            let mut f = MpiFile::open(rank, &pfs, "cached", hints).unwrap();
            let block = Datatype::bytes(100);
            f.set_view(rank.rank() as u64 * 100, &Datatype::bytes(1), &Datatype::resized(0, 400, block))
                .unwrap();
            let data = vec![rank.rank() as u8 + 1; 1000];
            f.write_all(&data, &Datatype::bytes(1000), 1).unwrap();
            f.sync().unwrap();
            f.write_all(&data, &Datatype::bytes(1000), 1).unwrap();
            let io_before = rank.stats().phase_ns[2];
            f.close().unwrap();
            (rank.now(), rank.stats().phase_ns, io_before)
        });
        for (r, (clock, phases, _)) in out.iter().enumerate() {
            assert_eq!(phases.iter().sum::<u64>(), *clock, "{engine:?} rank {r}: buckets != clock");
        }
        assert!(
            out.iter().any(|(_, phases, io_before)| phases[2] > *io_before),
            "{engine:?}: no rank flushed at close, the test lost its subject"
        );
    }
}
