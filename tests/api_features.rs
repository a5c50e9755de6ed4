//! Integration tests for the supporting API surface: block-cyclic and
//! subarray datatypes driving collective I/O, `Hints` at the API edge (a full
//! configuration drives a call; an invalid set is refused by `open` and
//! `set_hints` alike and changes nothing), and per-rank cost attribution.

use flexio::core::{Engine, Hints, IoError, MpiFile, PipelineDepth};
use flexio::io::IoMethod;
use flexio::pfs::{Pfs, PfsConfig, PfsCostModel};
use flexio::sim::{run, CostModel, Phase};
use flexio::types::{subarray, Datatype};
use flexio::workload::{checkpoint_spec, eq_padded, read_file, Oracle};
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
            let (pr, pc) = (rank.rank() as u64 / 2, rank.rank() as u64 % 2);
            // Rows pr, pr + 2, pr + 4, pr + 6; in each, half pc of its
            // eight elements.
            let dt = Datatype::resized(
                0,
                n * n * elem,
                Datatype::structure(vec![(
                    ((pr * n + pc * 4) * elem) as i64,
                    1,
                    Datatype::hvector(4, 1, (2 * n * elem) as i64, Datatype::bytes(4 * elem)),
                )]),
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
    // A full configuration: aggregators, buffer and sieving, plus the
    // paper's two hints, alignment and persistent file realms (§6.4).
    let hints = Hints {
        cb_nodes: Some(2),
        cb_buffer_size: 4096,
        io_method: IoMethod::DataSieve { buffer: 1024 },
        fr_alignment: Some(512),
        persistent_file_realms: true,
        ..Hints::default()
    };
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
fn engines_agree_on_darray_pattern() {
    let images: Vec<Vec<u8>> = [Engine::Flexible, Engine::Romio]
        .into_iter()
        .map(|engine| {
            let pfs = free_pfs();
            {
                let pfs = Arc::clone(&pfs);
                run(4, CostModel::free(), move |rank| {
                    let (pr, pc) = (rank.rank() as u64 / 2, rank.rank() as u64 % 2);
                    // Rows cyclic(2), columns cyclic(1) over a 2x2 grid:
                    // elements pc, pc + 2, pc + 4, pc + 6 of a 16-byte
                    // row, in rows 2pr, 2pr + 1, 2pr + 4, 2pr + 5.
                    let row = Datatype::resized(
                        0,
                        16,
                        Datatype::structure(vec![(
                            (pc * 2) as i64,
                            1,
                            Datatype::hvector(4, 1, 4, Datatype::bytes(2)),
                        )]),
                    );
                    let dt = Datatype::resized(
                        0,
                        128,
                        Datatype::hindexed(
                            vec![((pr * 32) as i64, 2), ((pr * 32 + 64) as i64, 2)],
                            row,
                        ),
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

/// Phase buckets sum to the clock through `close` too: on a caching file
/// system it flushes dirty pages, and that wait is I/O time.
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
            f.set_view(
                rank.rank() as u64 * 100,
                &Datatype::bytes(1),
                &Datatype::resized(0, 400, block),
            )
            .unwrap();
            let data = vec![rank.rank() as u8 + 1; 1000];
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

/// One invalid `Hints` per validation rule, for a 4-rank world.
fn invalid_hints() -> Vec<Hints> {
    let d = Hints::default;
    vec![
        Hints { cb_buffer_size: 0, ..d() },
        Hints { cb_nodes: Some(0), ..d() },
        Hints { cb_nodes: Some(5), ..d() },
        Hints { io_method: IoMethod::DataSieve { buffer: 0 }, ..d() },
        Hints {
            io_method: IoMethod::Conditional { extent_threshold: 1 << 10, sieve_buffer: 0 },
            ..d()
        },
        Hints { fr_alignment: Some(0), ..d() },
        Hints { pipeline_depth: PipelineDepth::Fixed(0), ..d() },
        Hints { io_retries: 33, ..d() },
        Hints { watchdog_us: 0, ..d() },
    ]
}

/// `open` refuses every invalid set on every rank with the same
/// `BadHints`, before the file is touched.
#[test]
fn open_rejects_invalid_hints_on_every_rank() {
    for hints in invalid_hints() {
        let pfs = free_pfs();
        let inner = Arc::clone(&pfs);
        let label = format!("{hints:?}");
        let errs = run(4, CostModel::free(), move |rank| {
            MpiFile::open(rank, &inner, "bad", hints.clone()).err()
        });
        assert!(matches!(errs[0], Some(IoError::BadHints(_))), "{label}: got {:?}", errs[0]);
        assert!(errs.iter().all(|e| *e == errs[0]), "{label}: ranks disagree: {errs:?}");
        assert_eq!(pfs.stats().bytes_written, 0, "{label}");
        assert!(read_file(&pfs, "bad").is_empty(), "{label}: the file was written");
    }
}

/// A rejected `set_hints` changes nothing: the file keeps its hints and
/// its cached schedule, so repeating the last write is a cache hit, and
/// the image is the oracle's.
#[test]
fn rejected_set_hints_keeps_the_hints_and_the_schedule() {
    let spec = checkpoint_spec(44, 4, 64, 6, 2);
    let plans = spec.phases[0].plans.clone();
    let hints = Hints { cb_nodes: Some(2), cb_buffer_size: 256, ..Hints::default() };
    let pfs = free_pfs();
    let (inner, rank_plans) = (Arc::clone(&pfs), plans.clone());
    run(4, CostModel::free(), move |rank| {
        let plan = &rank_plans[rank.rank()];
        let mut f = MpiFile::open(rank, &inner, "ckpt", hints.clone()).unwrap();
        f.set_view(plan.disp, &Datatype::bytes(1), &plan.filetype).unwrap();
        f.write_all_at(plan.offset_etypes, &plan.step_buffer(0), &plan.memtype, plan.mem_count)
            .unwrap();
        for bad in invalid_hints() {
            assert!(matches!(f.set_hints(bad), Err(IoError::BadHints(_))));
        }
        assert_eq!(format!("{:?}", f.hints()), format!("{hints:?}"));
        let hits = rank.stats().schedule_cache_hits;
        f.write_all_at(plan.offset_etypes, &plan.step_buffer(1), &plan.memtype, plan.mem_count)
            .unwrap();
        assert_eq!(rank.stats().schedule_cache_hits, hits + 1, "the schedule was dropped");
        f.close().unwrap();
    });
    let mut oracle = Oracle::new();
    for step in 0..2 {
        plans.iter().for_each(|plan| oracle.apply_write(plan, step));
    }
    assert!(eq_padded(&read_file(&pfs, "ckpt"), oracle.image()), "image diverged");
}
