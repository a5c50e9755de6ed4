//! A collective write's sieve pre-read is charged below the file size its
//! ranks agreed on at the start of the call, and nowhere else (DESIGN "Who
//! moves a byte").
//!
//! On the flexible engine's direct path a pre-read moves no bytes, so no
//! image oracle sees one that was wrongly skipped: this test counts them.
//! Two calls, each its own world, both engines, the client cache off and
//! on, one aggregator with one buffer cycle, so that each call sieves one
//! span. Call 1 writes an interleaved pattern into a fresh file; call 2
//! writes another that overlaps call 1's end and runs past it. From the
//! OST service log the test sums each call's pre-read bytes — the
//! flexible engine's `PreRead` records, the `Read` records of ROMIO's
//! integrated sieve, the `Fill` records of a client cache — and holds
//! them to the part of the span below call 1's end, computed from the
//! segments: call 1 pre-reads nothing. The unclipped count is the whole
//! span, page-rounded through a cache, and the image is held to the
//! oracle too: a clip too low writes zeros over call 1's bytes in ROMIO's
//! whole-buffer write-back.

use flexio::core::{Engine, Hints, MpiFile, PipelineDepth};
use flexio::hpio::{HpioSpec, TypeStyle};
use flexio::io::IoMethod;
use flexio::pfs::{
    log_ost_service, take_ost_logs, OstKind, OstLog, OstRecord, Pfs, PfsConfig, PfsCostModel,
};
use flexio::sim::{run, CostModel};
use flexio::types::Datatype;
use flexio::workload::read_file;
use std::sync::{Arc, Mutex};

const NPROCS: usize = 4;
const PAGE: u64 = 64;
/// Every rank writes `REGION` bytes of each `STRIDE`, `REPS` times, at
/// `base + rank · 16`: the four ranks leave a 4-byte hole in every 16.
const REGION: u64 = 12;
const STRIDE: u64 = 64;
const REPS: u64 = 20;
/// Where each call's pattern starts: call 2 overlaps call 1's last 276
/// bytes, and its holes fall on call 1's bytes.
const BASES: [u64; 2] = [0, 1000];

/// The file segments `rank` writes in the call at `base`.
fn segments(base: u64, rank: usize) -> impl Iterator<Item = (u64, u64)> {
    (0..REPS).map(move |i| (base + rank as u64 * 16 + i * STRIDE, REGION))
}

/// The bytes `rank` writes in call `call`.
fn payload(call: usize, rank: usize) -> Vec<u8> {
    (0..REPS * REGION).map(|i| (1 + call * 101 + rank * 37 + i as usize) as u8).collect()
}

/// The one sieve span of the call at `base`: its first byte to its last.
fn span(base: u64) -> (u64, u64) {
    let segs: Vec<(u64, u64)> = (0..NPROCS).flat_map(|r| segments(base, r)).collect();
    let lo = segs.iter().map(|s| s.0).min().unwrap();
    let hi = segs.iter().map(|s| s.0 + s.1).max().unwrap();
    (lo, hi)
}

/// The bytes a pre-read of `[lo, hi)` is charged below `eof`: direct, the
/// bytes themselves; through a client cache, the pages that start below
/// it (every page of the span is missing: the cache is empty at open).
fn charged_below(eof: u64, (lo, hi): (u64, u64), cached: bool) -> u64 {
    if cached {
        let pages = (lo / PAGE..hi.div_ceil(PAGE)).filter(|p| p * PAGE < eof);
        pages.count() as u64 * PAGE
    } else {
        hi.min(eof).saturating_sub(lo)
    }
}

/// A file system of `cfg` with a service log. Every test here builds its
/// file systems through this: logs are registered process-wide, and
/// tests run on parallel threads.
fn logged(cfg: PfsConfig) -> (Arc<Pfs>, Arc<OstLog>) {
    static BUILDING: Mutex<()> = Mutex::new(());
    let _one = BUILDING.lock().unwrap();
    log_ost_service();
    let pfs = Pfs::new(cfg);
    let mut logs = take_ost_logs();
    assert_eq!(logs.len(), 1, "one file system, one log");
    (pfs, logs.pop().unwrap())
}

/// A file system of four OSTs with a service log; locks and a client cache
/// iff `cached`.
fn logged_pfs(cached: bool) -> (Arc<Pfs>, Arc<OstLog>) {
    logged(PfsConfig {
        n_osts: 4,
        stripe_size: 1024,
        page_size: PAGE,
        locking: cached,
        lock_expansion: cached,
        client_cache: cached,
        cost: PfsCostModel::default(),
    })
}

/// Run both calls; the OST records of each call's world, and the image.
fn two_calls(engine: Engine, cached: bool) -> ([Vec<OstRecord>; 2], Vec<u8>) {
    let (pfs, log) = logged_pfs(cached);
    let hints = Hints {
        engine,
        cb_nodes: Some(1),
        cb_buffer_size: 1 << 20,
        io_method: IoMethod::DataSieve { buffer: 512 << 10 },
        ..Hints::default()
    };
    let mut per_call = [Vec::new(), Vec::new()];
    for (call, &base) in BASES.iter().enumerate() {
        let (pfs, hints) = (Arc::clone(&pfs), hints.clone());
        let before = log.records().len();
        run(NPROCS, CostModel::default(), move |rank| {
            let mut f = MpiFile::open(rank, &pfs, "agreed", hints.clone()).unwrap();
            let ftype = Datatype::resized(0, STRIDE, Datatype::bytes(REGION));
            f.set_view(base + rank.rank() as u64 * 16, &Datatype::bytes(1), &ftype).unwrap();
            let data = payload(call, rank.rank());
            f.write_all(&data, &Datatype::bytes(data.len() as u64), 1).unwrap();
            f.close().unwrap();
        });
        per_call[call] = log.records()[before..].to_vec();
    }
    (per_call, read_file(&pfs, "agreed"))
}

/// The bytes both calls leave, call 2's over call 1's.
fn oracle() -> Vec<u8> {
    let mut img = vec![0u8; span(BASES[1]).1 as usize];
    for (call, &base) in BASES.iter().enumerate() {
        for r in 0..NPROCS {
            let data = payload(call, r);
            for ((off, len), bytes) in segments(base, r).zip(data.chunks(REGION as usize)) {
                img[off as usize..(off + len) as usize].copy_from_slice(bytes);
            }
        }
    }
    img
}

fn pre_read_bytes(records: &[OstRecord]) -> u64 {
    let pre_read = |k| matches!(k, OstKind::PreRead | OstKind::Read | OstKind::Fill);
    records.iter().filter(|r| pre_read(r.kind)).map(|r| r.bytes).sum()
}

/// Every configuration: the engine, and whether a client cache is on.
fn configs() -> impl Iterator<Item = (Engine, bool)> {
    [Engine::Flexible, Engine::Romio].into_iter().flat_map(|e| [(e, false), (e, true)])
}

#[test]
fn a_pre_read_is_charged_below_the_size_agreed_on_entry() {
    let call1_end = span(BASES[0]).1;
    let call2 = span(BASES[1]);
    assert!(call2.0 < call1_end && call1_end < call2.1, "call 2 overlaps call 1's end and past it");
    for (engine, cached) in configs() {
        let label = format!("{engine:?}, client cache {cached}");
        let ([first, second], _) = two_calls(engine, cached);
        assert_eq!(pre_read_bytes(&first), 0, "{label}: call 1 wrote a fresh file");
        let want = charged_below(call1_end, call2, cached);
        assert_eq!(pre_read_bytes(&second), want, "{label}: call 2");
        // Unclipped, the pre-read was the whole span: 1 276 bytes direct,
        // 21 pages through the cache.
        assert!(want < charged_below(u64::MAX, call2, cached), "{label}: nothing clipped");
    }
}

#[test]
fn call_2_keeps_call_1s_bytes_in_its_gaps() {
    for (engine, cached) in configs() {
        let (_, image) = two_calls(engine, cached);
        assert!(
            image == oracle(),
            "{engine:?}, client cache {cached}: the image is not the oracle's"
        );
    }
}

/// A client cache fills a page at or past the clip without a request, but
/// from the image, not with zeros: unaligned realms share pages, and the
/// write-back stores whole pages, so a zeroed page would write zeros over
/// the bytes another aggregator flushed into it in the same call.
#[test]
fn a_cached_page_two_realms_share_keeps_both_realms_bytes() {
    for engine in [Engine::Flexible, Engine::Romio] {
        for spacing in [8, 13] {
            let spec = HpioSpec {
                region_size: 24,
                region_count: 17,
                region_spacing: spacing,
                mem_noncontig: false,
                file_noncontig: true,
                nprocs: 3,
            };
            let (pfs, _) = logged_pfs(true);
            let hints = Hints { engine, cb_nodes: Some(2), ..Hints::default() };
            let pfs2 = Arc::clone(&pfs);
            run(spec.nprocs, CostModel::default(), move |rank| {
                let mut f = MpiFile::open(rank, &pfs2, "shared", hints.clone()).unwrap();
                let (disp, ftype) = spec.file_view(rank.rank(), TypeStyle::Succinct);
                f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
                f.write_all(&spec.make_buffer(rank.rank()), &spec.mem_type(), spec.mem_count())
                    .unwrap();
                f.close().unwrap();
            });
            let verdict = spec.verify(&read_file(&pfs, "shared"));
            assert_eq!(verdict, Ok(()), "{engine:?}, region spacing {spacing}");
        }
    }
}

/// ROMIO's sieving read blocks inside each write cycle: where a write's
/// span holds bytes already, its pipeline is nearly flat past depth 2. On
/// A6's workload overwriting a file that holds every byte, depth 4 buys
/// ROMIO under 4 % over depth 2 at either aggregator count (1.3 % at 4,
/// and at 8 it loses 5 %). A6 itself writes a fresh file, where nothing is
/// pre-read and depth 4 buys 26 %.
#[test]
fn romio_overwriting_its_bytes_gains_little_past_depth_2() {
    let spec = HpioSpec { region_count: 1024, nprocs: 16, ..HpioSpec::fig4(512) };
    for aggs in [4, 8] {
        let overwrite_ns = |depth| {
            let (pfs, _) = logged(PfsConfig::default());
            let hints = Hints {
                engine: Engine::Romio,
                cb_nodes: Some(aggs),
                cb_buffer_size: 256 << 10,
                pipeline_depth: depth,
                ..Hints::default()
            };
            let mut spans = Vec::new();
            for _ in 0..2 {
                let (pfs, hints) = (Arc::clone(&pfs), hints.clone());
                let ends = run(spec.nprocs, CostModel::default(), move |rank| {
                    let mut f = MpiFile::open(rank, &pfs, "overwrite", hints.clone()).unwrap();
                    let (disp, ftype) = spec.file_view(rank.rank(), TypeStyle::Succinct);
                    f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
                    let data = spec.make_buffer(rank.rank());
                    rank.barrier();
                    let start = rank.now();
                    f.write_all(&data, &spec.mem_type(), spec.mem_count()).unwrap();
                    let end = rank.now();
                    f.close().unwrap();
                    (start, end)
                });
                let start = ends.iter().map(|e| e.0).max().unwrap();
                spans.push(ends.iter().map(|e| e.1).max().unwrap() - start);
            }
            spans[1]
        };
        let (two, four) =
            (overwrite_ns(PipelineDepth::Fixed(2)), overwrite_ns(PipelineDepth::Fixed(4)));
        assert!(two < four + four / 25, "{aggs} aggs: depth 4 at {four} ns, depth 2 at {two} ns");
    }
}
