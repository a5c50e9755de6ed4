//! Cross-crate integration tests: both engines, all exchange modes and
//! hint combinations must produce byte-identical, verifier-clean files.

use flexio::core::{Engine, ExchangeMode, Hints, MpiFile};
use flexio::hpio::{HpioSpec, TimeStepSpec, TypeStyle};
use flexio::io::IoMethod;
use flexio::pfs::{Pfs, PfsConfig, PfsCostModel};
use flexio::sim::{run, CostModel};
use flexio::types::{subarray, Datatype};
use flexio::workload::read_file;
use std::sync::Arc;

fn test_pfs(locking: bool, cache: bool) -> Arc<Pfs> {
    Pfs::new(PfsConfig {
        n_osts: 4,
        stripe_size: 1024,
        page_size: 64,
        locking,
        lock_expansion: true,
        client_cache: cache,
        cost: PfsCostModel::free(),
    })
}

/// Run an HPIO collective write under `hints` and verify every stamp.
fn hpio_write_and_verify(spec: HpioSpec, style: TypeStyle, hints: Hints) {
    let pfs = test_pfs(false, false);
    {
        let pfs = Arc::clone(&pfs);
        run(spec.nprocs, CostModel::free(), move |rank| {
            let mut f = MpiFile::open(rank, &pfs, "hpio", hints.clone()).unwrap();
            let (disp, ftype) = spec.file_view(rank.rank(), style);
            let etype = Datatype::bytes(1);
            f.set_view(disp, &etype, &ftype).unwrap();
            let buf = spec.make_buffer(rank.rank());
            f.write_all(&buf, &spec.mem_type(), spec.mem_count()).unwrap();
            f.close().unwrap();
        });
    }
    let img = read_file(&pfs, "hpio");
    if let Err((r, i, want, got)) = spec.verify(&img) {
        panic!("verify failed: rank {r} idx {i} want {want} got {got}");
    }
}

fn small_spec(nprocs: usize) -> HpioSpec {
    HpioSpec {
        region_size: 24,
        region_count: 17,
        region_spacing: 40,
        mem_noncontig: true,
        file_noncontig: true,
        nprocs,
    }
}

#[test]
fn hpio_flexible_succinct() {
    hpio_write_and_verify(small_spec(5), TypeStyle::Succinct, Hints::default());
}

#[test]
fn hpio_flexible_enumerated() {
    hpio_write_and_verify(small_spec(5), TypeStyle::Enumerated, Hints::default());
}

#[test]
fn hpio_romio_engine() {
    let hints = Hints { engine: Engine::Romio, ..Hints::default() };
    hpio_write_and_verify(small_spec(5), TypeStyle::Enumerated, hints);
}

#[test]
fn hpio_alltoallw_exchange() {
    let hints = Hints { exchange: ExchangeMode::Alltoallw, ..Hints::default() };
    hpio_write_and_verify(small_spec(4), TypeStyle::Succinct, hints);
}

#[test]
fn hpio_few_aggregators_small_cb() {
    let hints = Hints { cb_nodes: Some(2), cb_buffer_size: 256, ..Hints::default() };
    hpio_write_and_verify(small_spec(6), TypeStyle::Succinct, hints);
}

#[test]
fn hpio_naive_io_method() {
    let hints = Hints { io_method: IoMethod::Naive, ..Hints::default() };
    hpio_write_and_verify(small_spec(4), TypeStyle::Succinct, hints);
}

#[test]
fn hpio_sieve_io_method() {
    let hints = Hints { io_method: IoMethod::DataSieve { buffer: 300 }, ..Hints::default() };
    hpio_write_and_verify(small_spec(4), TypeStyle::Succinct, hints);
}

#[test]
fn hpio_aligned_realms() {
    let hints = Hints { fr_alignment: Some(1024), ..Hints::default() };
    hpio_write_and_verify(small_spec(4), TypeStyle::Succinct, hints);
}

#[test]
fn hpio_pfr() {
    let hints = Hints { persistent_file_realms: true, ..Hints::default() };
    hpio_write_and_verify(small_spec(4), TypeStyle::Succinct, hints);
}

#[test]
fn hpio_mem_contig_file_noncontig() {
    let spec = HpioSpec { mem_noncontig: false, ..small_spec(4) };
    hpio_write_and_verify(spec, TypeStyle::Succinct, Hints::default());
}

#[test]
fn hpio_mem_noncontig_file_contig() {
    let spec = HpioSpec { file_noncontig: false, ..small_spec(4) };
    hpio_write_and_verify(spec, TypeStyle::Succinct, Hints::default());
}

#[test]
fn engines_byte_identical() {
    // Same workload through both engines: identical file images.
    let spec = small_spec(6);
    let mut images = Vec::new();
    for engine in [Engine::Flexible, Engine::Romio] {
        let pfs = test_pfs(false, false);
        {
            let pfs = Arc::clone(&pfs);
            run(spec.nprocs, CostModel::free(), move |rank| {
                let hints = Hints { engine, cb_nodes: Some(3), ..Hints::default() };
                let mut f = MpiFile::open(rank, &pfs, "x", hints).unwrap();
                let (disp, ftype) = spec.file_view(rank.rank(), TypeStyle::Enumerated);
                f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
                let buf = spec.make_buffer(rank.rank());
                f.write_all(&buf, &spec.mem_type(), spec.mem_count()).unwrap();
                f.close().unwrap();
            });
        }
        images.push(read_file(&pfs, "x"));
    }
    assert_eq!(images[0], images[1]);
}

#[test]
fn collective_read_returns_written_data() {
    let spec = small_spec(4);
    for engine in [Engine::Flexible, Engine::Romio] {
        let pfs = test_pfs(false, false);
        let outs = run(spec.nprocs, CostModel::free(), move |rank| {
            let hints = Hints { engine, cb_buffer_size: 512, ..Hints::default() };
            let mut f = MpiFile::open(rank, &pfs, "rw", hints).unwrap();
            let (disp, ftype) = spec.file_view(rank.rank(), TypeStyle::Succinct);
            f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
            let buf = spec.make_buffer(rank.rank());
            f.write_all(&buf, &spec.mem_type(), spec.mem_count()).unwrap();
            let mut back = vec![0u8; buf.len()];
            f.read_all(&mut back, &spec.mem_type(), spec.mem_count()).unwrap();
            f.close().unwrap();
            (buf, back)
        });
        for (rank, (buf, back)) in outs.into_iter().enumerate() {
            // Compare only the data positions (gaps in the membuffer stay 0).
            let s = spec;
            for i in 0..s.region_count {
                for b in 0..s.region_size {
                    let pos = (i * s.unit() + b) as usize;
                    assert_eq!(buf[pos], back[pos], "engine {engine:?} rank {rank} pos {pos}");
                }
            }
        }
    }
}

#[test]
fn timestep_pattern_with_pfr_and_cache() {
    // The Fig. 7 regime: locking + client cache + PFR + aligned realms.
    let spec = TimeStepSpec { elem_size: 8, elems_per_point: 10, points: 16, steps: 4, nprocs: 4 };
    let pfs = Pfs::new(PfsConfig {
        n_osts: 2,
        stripe_size: 512,
        page_size: 64,
        locking: true,
        lock_expansion: true,
        client_cache: true,
        cost: PfsCostModel::free(),
    });
    {
        let pfs = Arc::clone(&pfs);
        run(spec.nprocs, CostModel::free(), move |rank| {
            let hints = Hints {
                persistent_file_realms: true,
                fr_alignment: Some(512),
                cb_nodes: Some(2),
                ..Hints::default()
            };
            let mut f = MpiFile::open(rank, &pfs, "ts", hints).unwrap();
            for t in 0..spec.steps {
                let (disp, ftype) = spec.file_view(rank.rank(), t);
                f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
                let buf = spec.make_buffer(rank.rank(), t);
                let n = buf.len() as u64;
                if n > 0 {
                    f.write_all(&buf, &Datatype::bytes(n), 1).unwrap();
                } else {
                    f.write_all(&[], &Datatype::bytes(1), 0).unwrap();
                }
            }
            f.close().unwrap();
        });
    }
    let img = read_file(&pfs, "ts");
    if let Err((r, t, i, want, got)) = spec.verify(&img) {
        panic!("verify failed: rank {r} step {t} idx {i} want {want} got {got}");
    }
}

#[test]
fn timestep_pattern_all_fig7_combos() {
    let spec = TimeStepSpec { elem_size: 8, elems_per_point: 7, points: 8, steps: 3, nprocs: 4 };
    for (pfr, align) in [(false, false), (false, true), (true, false), (true, true)] {
        let pfs = Pfs::new(PfsConfig {
            n_osts: 2,
            stripe_size: 256,
            page_size: 32,
            locking: true,
            lock_expansion: true,
            client_cache: true,
            cost: PfsCostModel::free(),
        });
        {
            let pfs = Arc::clone(&pfs);
            run(spec.nprocs, CostModel::free(), move |rank| {
                let hints = Hints {
                    persistent_file_realms: pfr,
                    fr_alignment: Some(if align { 256 } else { 1 }),
                    cb_nodes: Some(2),
                    ..Hints::default()
                };
                let mut f = MpiFile::open(rank, &pfs, "ts", hints).unwrap();
                for t in 0..spec.steps {
                    let (disp, ftype) = spec.file_view(rank.rank(), t);
                    f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
                    let buf = spec.make_buffer(rank.rank(), t);
                    let n = buf.len() as u64;
                    f.write_all(&buf, &Datatype::bytes(n.max(1)), (n > 0) as u64).unwrap();
                }
                f.close().unwrap();
            });
        }
        let img = read_file(&pfs, "ts");
        if let Err(e) = spec.verify(&img) {
            panic!("pfr={pfr} align={align}: verify failed {e:?}");
        }
    }
}

#[test]
fn subarray_2d_tile_write() {
    // 4 ranks each own a quadrant of a 2D matrix.
    let rows = 16u64;
    let cols = 16u64;
    let pfs = test_pfs(false, false);
    {
        let pfs = Arc::clone(&pfs);
        run(4, CostModel::free(), move |rank| {
            let r0 = (rank.rank() as u64 / 2) * (rows / 2);
            let c0 = (rank.rank() as u64 % 2) * (cols / 2);
            let sub = subarray(&[rows, cols], &[rows / 2, cols / 2], &[r0, c0], 1);
            let mut f = MpiFile::open(rank, &pfs, "mat", Hints::default()).unwrap();
            f.set_view(0, &Datatype::bytes(1), &sub).unwrap();
            let n = (rows / 2) * (cols / 2);
            let data = vec![rank.rank() as u8 + 1; n as usize];
            f.write_all(&data, &Datatype::bytes(n), 1).unwrap();
            f.close().unwrap();
        });
    }
    let img = read_file(&pfs, "mat");
    assert_eq!(img.len() as u64, rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let quad = (r / 8) * 2 + c / 8;
            assert_eq!(img[(r * cols + c) as usize], quad as u8 + 1, "({r},{c})");
        }
    }
}

#[test]
fn repeated_collectives_interleave_with_independents() {
    let pfs = test_pfs(false, false);
    let pfs2 = Arc::clone(&pfs);
    run(3, CostModel::free(), move |rank| {
        let bt = Datatype::bytes(10);
        let ft = Datatype::resized(0, 30, bt.clone());
        let mut f = MpiFile::open(rank, &pfs2, "mix", Hints::default()).unwrap();
        f.set_view(rank.rank() as u64 * 10, &bt, &ft).unwrap();
        // Collective write, independent patch, collective read.
        let data = vec![rank.rank() as u8 + 10; 60];
        f.write_all(&data, &Datatype::bytes(60), 1).unwrap();
        if rank.rank() == 0 {
            f.write_at(1, &[99u8; 10], &Datatype::bytes(10), 1).unwrap();
        }
        rank.barrier();
        let mut back = vec![0u8; 60];
        f.read_all(&mut back, &Datatype::bytes(60), 1).unwrap();
        f.close().unwrap();
        if rank.rank() == 0 {
            assert_eq!(&back[10..20], &[99u8; 10]);
            assert_eq!(&back[0..10], &[10u8; 10]);
        }
    });
}
