//! Pipelined-engine tests: pipelining the buffer cycles must never change
//! the bytes on disk or the deterministic work counters — only the
//! virtual time. The serial engine (`PipelineDepth::Fixed(1)`) must hide
//! nothing, and the pipelined engine (the default, `auto`) must harvest
//! measurable overlap on cycle-rich workloads.

use flexio::core::{Hints, MpiFile, PipelineDepth};
use flexio::pfs::{Pfs, PfsConfig, PfsCostModel};
use flexio::sim::{run, CostModel, Stats};
use flexio::types::Datatype;
use flexio::workload::{read_file, step_data};
use std::sync::Arc;

const BLOCK: u64 = 64;

const PIPELINED: PipelineDepth = PipelineDepth::Auto;
const SERIAL: PipelineDepth = PipelineDepth::Fixed(1);

fn test_pfs() -> Arc<Pfs> {
    Pfs::new(PfsConfig {
        n_osts: 4,
        stripe_size: 1024,
        page_size: 64,
        locking: false,
        lock_expansion: false,
        client_cache: false,
        cost: PfsCostModel::free(),
    })
}

fn timed_pfs() -> Arc<Pfs> {
    Pfs::new(PfsConfig {
        n_osts: 4,
        stripe_size: 1024,
        page_size: 64,
        locking: false,
        lock_expansion: false,
        client_cache: false,
        cost: PfsCostModel::default(),
    })
}

/// Interleaved-block workload: write `steps` collective calls of fresh
/// data, then read the last step back, returning each rank's final
/// virtual clock, stats, and read-back buffer. With `uncached` every
/// write follows a `set_hints` of the same hints, which drops the cached
/// schedule, so every call derives it afresh.
fn roundtrip(
    pfs: &Arc<Pfs>,
    path: &str,
    (nprocs, blocks, steps): (usize, u64, u64),
    hints: Hints,
    uncached: bool,
) -> Vec<(u64, Stats, Vec<u8>)> {
    let pfs = Arc::clone(pfs);
    let path = path.to_string();
    run(nprocs, CostModel::default(), move |rank| {
        let mut f = MpiFile::open(rank, &pfs, &path, hints.clone()).unwrap();
        let block = Datatype::bytes(BLOCK);
        let ftype = Datatype::resized(0, nprocs as u64 * BLOCK, block);
        f.set_view(rank.rank() as u64 * BLOCK, &Datatype::bytes(1), &ftype).unwrap();
        let len = (blocks * BLOCK) as usize;
        for s in 0..steps {
            if uncached {
                f.set_hints(hints.clone()).unwrap();
            }
            let data = step_data(rank.rank(), s, len);
            f.write_all(&data, &Datatype::bytes(len as u64), 1).unwrap();
        }
        let mut back = vec![0u8; len];
        f.read_all(&mut back, &Datatype::bytes(len as u64), 1).unwrap();
        f.close().unwrap();
        (rank.now(), rank.stats(), back)
    })
}

#[test]
fn pipelined_byte_identical_to_serial() {
    // Replayed or re-derived schedule: the pipelined and serial engines
    // must produce byte-identical file images, and the read path must
    // return byte-identical user buffers.
    let (nprocs, blocks, steps) = (8, 24, 3);
    for uncached in [false, true] {
        let image = |pipeline_depth: PipelineDepth| {
            let pfs = test_pfs();
            let hints = Hints {
                pipeline_depth,
                cb_nodes: Some(4),
                cb_buffer_size: 256, // several cycles per call
                ..Hints::default()
            };
            let out = roundtrip(&pfs, "pipe", (nprocs, blocks, steps), hints, uncached);
            (read_file(&pfs, "pipe"), out)
        };
        let (img_p, out_p) = image(PIPELINED);
        let (img_s, out_s) = image(SERIAL);
        assert_eq!(img_p, img_s, "file images diverge (uncached={uncached})");
        for r in 0..nprocs {
            assert_eq!(
                out_p[r].2, out_s[r].2,
                "rank {r} read buffers diverge (uncached={uncached})"
            );
            let want = step_data(r, steps - 1, (blocks * BLOCK) as usize);
            assert_eq!(out_p[r].2, want, "rank {r} read wrong bytes");
        }
    }
}

#[test]
fn pipelined_counters_match_serial() {
    // Pipelining reorders virtual time, never work: pairs, copies,
    // messages, and payload bytes must be identical per rank.
    let (nprocs, blocks, steps) = (8, 24, 3);
    let stats = |pipeline_depth: PipelineDepth| {
        let pfs = test_pfs();
        let hints =
            Hints { pipeline_depth, cb_nodes: Some(4), cb_buffer_size: 256, ..Hints::default() };
        roundtrip(&pfs, "cnt", (nprocs, blocks, steps), hints, false)
    };
    let pipelined = stats(PIPELINED);
    let serial = stats(SERIAL);
    for r in 0..nprocs {
        let (p, s) = (&pipelined[r].1, &serial[r].1);
        assert_eq!(p.pairs_processed, s.pairs_processed, "rank {r} pairs");
        assert_eq!(p.memcpy_bytes, s.memcpy_bytes, "rank {r} copies");
        assert_eq!(p.msgs_sent, s.msgs_sent, "rank {r} messages");
        assert_eq!(p.bytes_sent, s.bytes_sent, "rank {r} payload");
    }
}

#[test]
fn serial_engine_never_overlaps() {
    // `PipelineDepth::Fixed(1)` is the strictly serial engine: no
    // virtual time may be reported as hidden, on any rank, either
    // direction.
    let pfs = timed_pfs();
    let hints = Hints {
        pipeline_depth: SERIAL,
        cb_nodes: Some(4),
        cb_buffer_size: 256,
        ..Hints::default()
    };
    let out = roundtrip(&pfs, "ser", (8, 24, 3), hints, false);
    for (r, (_, s, _)) in out.iter().enumerate() {
        assert_eq!(s.overlap_saved_ns, 0, "rank {r} overlapped in serial mode");
    }
}

#[test]
fn pipelined_saves_time_single_aggregator() {
    // One aggregator over a timed PFS is fully deterministic (no shared
    // OST clocks between concurrent aggregators): the pipelined engine
    // must finish strictly earlier than the serial engine and report the
    // hidden time, while the per-phase buckets still sum to elapsed
    // wall-clock on the aggregator.
    let elapsed = |pipeline_depth: PipelineDepth| {
        let pfs = timed_pfs();
        let hints = Hints {
            pipeline_depth,
            cb_nodes: Some(1),
            cb_buffer_size: 512, // many fill/drain cycles
            ..Hints::default()
        };
        let out = roundtrip(&pfs, "sav", (4, 16, 2), hints, false);
        let now_max = out.iter().map(|(now, _, _)| *now).max().unwrap();
        let saved: u64 = out.iter().map(|(_, s, _)| s.overlap_saved_ns).sum();
        (now_max, saved)
    };
    let (t_pipe, saved_pipe) = elapsed(PIPELINED);
    let (t_serial, saved_serial) = elapsed(SERIAL);
    assert_eq!(saved_serial, 0);
    assert!(saved_pipe > 0, "pipelined run hid no time");
    assert!(t_pipe < t_serial, "pipelined {t_pipe} ns not faster than serial {t_serial} ns");
}

#[test]
fn cached_replay_pipelines_identically() {
    // A schedule-cache hit must not change what the pipeline overlaps:
    // steps 2..N (replayed) still hide I/O time, and the bytes stay right.
    let pfs = timed_pfs();
    let hints = Hints {
        cb_nodes: Some(1),
        cb_buffer_size: 512,
        persistent_file_realms: true,
        ..Hints::default()
    };
    let (nprocs, blocks, steps) = (4, 16, 3);
    let out = roundtrip(&pfs, "rep", (nprocs, blocks, steps), hints, false);
    let agg = &out[0].1; // rank 0 is the single aggregator
    assert_eq!(agg.schedule_cache_misses, 1);
    assert!(agg.schedule_cache_hits >= steps, "replays must hit");
    assert!(agg.overlap_saved_ns > 0, "replayed cycles must still overlap");
    for (r, (_, _, back)) in out.iter().enumerate() {
        let want = step_data(r, steps - 1, (blocks * BLOCK) as usize);
        assert_eq!(*back, want, "rank {r} read wrong bytes after replay");
    }
}
