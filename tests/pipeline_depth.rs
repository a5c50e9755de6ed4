//! Pipeline-depth tests: whatever depth the engine runs at — serial,
//! classic double buffering, deep fixed pipelines, or adaptive — the bytes
//! on disk and the deterministic work counters must be identical; only
//! virtual time may move. Property-tested over random filetypes, world
//! sizes, aggregator counts, and depths against the depth-1 oracle, plus
//! charge-sequence fixtures pinning `PipelineDepth::Fixed(2)` to the
//! double-buffered engine and `Fixed(1)` to the serial engine, number for
//! number.

use flexio::core::{aggregator_ranks, ExchangeMode, Hints, MpiFile, PipelineDepth};
use flexio::hpio::{HpioSpec, TypeStyle};
use flexio::pfs::{Pfs, PfsConfig, PfsCostModel};
use flexio::sim::prop::Runner;
use flexio::sim::{run, CostModel, Phase, Stats, XorShift64Star};
use flexio::types::{Datatype, Dt};
use flexio::workload::{read_file, run_tiled, step_data, Call, FileWorld, Io, TiledShape, Timing};
use std::sync::Arc;

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

/// How each rank's filetype tiles the file in the property workload.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Classic interleaved blocks: rank r owns bytes `[rB, (r+1)B)` of
    /// every round of `nprocs·B`.
    Tiled,
    /// Each rank's block has a hole: an indexed type writing the first
    /// half and the last quarter of its `B` bytes.
    Split,
    /// Two half-blocks a block apart (hvector), rounds of `2·nprocs·B`.
    Strided,
}

/// One randomly generated collective workload plus the depth under test.
#[derive(Debug, Clone)]
struct Workload {
    nprocs: usize,
    /// Bytes per filetype block; always a multiple of 8.
    block: u64,
    /// Filetype repetitions written per collective call.
    reps: u64,
    steps: u64,
    aggs: usize,
    cb: usize,
    exchange: ExchangeMode,
    shape: Shape,
    depth: PipelineDepth,
}

fn random_workload(rng: &mut XorShift64Star) -> Workload {
    let nprocs = 2 + (rng.next_u64() % 7) as usize; // 2..=8
    Workload {
        nprocs,
        block: 8 * (1 + rng.next_u64() % 12), // 8..=96
        reps: 4 + rng.next_u64() % 29,        // 4..=32
        steps: 1 + rng.next_u64() % 2,
        aggs: 1 + (rng.next_u64() as usize) % nprocs,
        cb: [128, 256, 512, 1024][(rng.next_u64() % 4) as usize],
        exchange: if rng.next_u64().is_multiple_of(2) {
            ExchangeMode::Nonblocking
        } else {
            ExchangeMode::Alltoallw
        },
        shape: [Shape::Tiled, Shape::Split, Shape::Strided][(rng.next_u64() % 3) as usize],
        depth: match rng.next_u64() % 6 {
            0..=4 => PipelineDepth::Fixed(2 + (rng.next_u64() % 5) as u32), // 2..=6
            _ => PipelineDepth::Auto,
        },
    }
}

/// `(displacement for rank, filetype, data bytes per repetition)`.
fn filetype(w: &Workload, rank: usize) -> (u64, Dt, u64) {
    let (b, p, r) = (w.block, w.nprocs as u64, rank as u64);
    match w.shape {
        Shape::Tiled => (r * b, Datatype::resized(0, p * b, Datatype::bytes(b)), b),
        Shape::Split => {
            let inner = Datatype::indexed(
                vec![(0, b / 2), (3 * (b as i64) / 4, b / 4)],
                Datatype::bytes(1),
            );
            (r * b, Datatype::resized(0, p * b, inner), 3 * b / 4)
        }
        Shape::Strided => {
            let inner = Datatype::hvector(2, 1, b as i64, Datatype::bytes(b / 2));
            (2 * r * b, Datatype::resized(0, 2 * p * b, inner), b)
        }
    }
}

/// Each rank's `(elapsed, stats, read-back)` after a roundtrip.
type RankOutcome = (u64, Stats, Vec<u8>);

/// Run `w` at pipeline depth `depth`: `steps` collective writes of fresh
/// data, then read the last step back. Returns the final file image and
/// each rank's outcome.
fn roundtrip(w: &Workload, depth: PipelineDepth) -> (Vec<u8>, Vec<RankOutcome>) {
    let pfs = timed_pfs();
    let hints = Hints {
        pipeline_depth: depth,
        cb_nodes: Some(w.aggs),
        cb_buffer_size: w.cb,
        exchange: w.exchange,
        ..Hints::default()
    };
    let w = w.clone();
    let inner = Arc::clone(&pfs);
    let out = run(w.nprocs, CostModel::default(), move |rank| {
        let mut f = MpiFile::open(rank, &inner, "depth", hints.clone()).unwrap();
        let (disp, ftype, per_rep) = filetype(&w, rank.rank());
        f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
        let len = (w.reps * per_rep) as usize;
        for s in 0..w.steps {
            let data = step_data(rank.rank(), s, len);
            f.write_all(&data, &Datatype::bytes(len as u64), 1).unwrap();
        }
        let mut back = vec![0u8; len];
        f.read_all(&mut back, &Datatype::bytes(len as u64), 1).unwrap();
        f.close().unwrap();
        (rank.now(), rank.stats(), back)
    });
    (read_file(&pfs, "depth"), out)
}

/// The tentpole property: any depth, fixed 2..=6 or auto, is
/// indistinguishable from the serial (depth 1) oracle in everything but
/// virtual time — byte-identical file image and read-back, identical
/// overlap-exclusive counters, and phase buckets that still sum to each
/// rank's elapsed clock.
#[test]
fn any_depth_matches_serial_oracle() {
    Runner::new("any_depth_matches_serial_oracle")
        .cases(16)
        .regressions(include_str!("pipeline_depth.proptest-regressions"))
        .run(random_workload, |w| {
            let (img_d, out_d) = roundtrip(w, w.depth);
            let (img_1, out_1) = roundtrip(w, PipelineDepth::Fixed(1));
            assert_eq!(img_d, img_1, "file image diverges from the depth-1 oracle");
            for r in 0..w.nprocs {
                let (now, d, s) = (&out_d[r].0, &out_d[r].1, &out_1[r].1);
                assert_eq!(out_d[r].2, out_1[r].2, "rank {r} read-back diverges");
                let want = step_data(r, w.steps - 1, out_d[r].2.len());
                assert_eq!(out_d[r].2, want, "rank {r} read wrong bytes");
                assert_eq!(d.pairs_processed, s.pairs_processed, "rank {r} pairs");
                assert_eq!(d.memcpy_bytes, s.memcpy_bytes, "rank {r} copy bytes");
                assert_eq!(d.msgs_sent, s.msgs_sent, "rank {r} messages");
                assert_eq!(d.bytes_sent, s.bytes_sent, "rank {r} payload bytes");
                assert_eq!(
                    d.schedule_cache_misses, s.schedule_cache_misses,
                    "rank {r} cache misses"
                );
                assert_eq!(d.phase_ns.iter().sum::<u64>(), *now, "rank {r} phase sum");
                assert_eq!(out_1[r].1.overlap_saved_ns, 0, "oracle must not overlap");
                assert_eq!(out_1[r].1.derive_overlap_saved_ns, 0, "oracle derive overlap");
            }
        });
}

/// The workload every charge fixture below runs: the single-aggregator
/// interleaved-block pattern `results/ablation_pipeline.txt` was measured
/// with, shrunk to test scale (4 ranks, 16 blocks of 64 B, 2 writes + 1
/// read, 512 B collective buffer, timed PFS).
fn fixture_run(hints: Hints) -> Vec<(u64, Stats)> {
    let shape = TiledShape { nprocs: 4, block: 64, reps: 16, steps: 2 };
    let out = run_tiled(&timed_pfs(), "fix", shape, &hints, true);
    assert!(out.outcomes.iter().flatten().all(|r| r.is_ok()), "fixture op failed");
    out.clocks.into_iter().zip(out.stats).collect()
}

/// Per-rank `(clock, phase buckets, hidden ns, pairs, copy bytes,
/// messages, payload bytes)`.
type ChargeRow = (u64, [u64; 3], u64, u64, u64, u64, u64);

fn assert_charges(got: &[(u64, Stats)], want: &[ChargeRow], label: &str) {
    for (r, ((now, s), (w_now, w_phase, w_saved, w_pairs, w_copy, w_msgs, w_bytes))) in
        got.iter().zip(want).enumerate()
    {
        assert_eq!(*now, *w_now, "{label}: rank {r} clock");
        assert_eq!(s.phase_ns, *w_phase, "{label}: rank {r} phase buckets");
        assert_eq!(s.overlap_saved_ns, *w_saved, "{label}: rank {r} hidden ns");
        assert_eq!(s.pairs_processed, *w_pairs, "{label}: rank {r} pairs");
        assert_eq!(s.memcpy_bytes, *w_copy, "{label}: rank {r} copy bytes");
        assert_eq!(s.msgs_sent, *w_msgs, "{label}: rank {r} messages");
        assert_eq!(s.bytes_sent, *w_bytes, "{label}: rank {r} payload bytes");
        assert_eq!(s.derive_overlap_saved_ns, 0, "{label}: rank {r} derive overlap");
    }
}

// Both tables were harvested on cc3b7af, the last commit with a packed
// staging path, in a scratch clone whose only edit switched these tests
// from that path to the default one: they are the run path's charges as
// that commit computed them, not this tree's — except for one deliberate
// move since. The `allgatherv` became Bruck's log-step round: at four
// ranks two steps instead of a ring's three hops, so each of the three
// metadata exchanges sends one message fewer a rank (39 → 36 and 31 → 28,
// bytes unchanged) and every clock and Comm bucket is 144 000 ns lower;
// Compute, Io, pairs and the hidden ns did not move. Work counters are
// depth-invariant; rank 0 is the aggregator.

/// Per-rank charge sequence of the double-buffered (depth 2) engine on
/// the fixture workload.
const PR2_FIXTURE: [ChargeRow; 4] = [
    (2_890_544, [13_296, 1_167_008, 1_710_240], 262_584, 98, 3_072, 36, 3_720),
    (2_894_544, [4_080, 2_890_464, 0], 0, 34, 0, 28, 2_696),
    (2_898_544, [4_080, 2_894_464, 0], 0, 34, 0, 28, 2_696),
    (2_834_544, [4_080, 2_830_464, 0], 0, 34, 0, 28, 2_696),
];

/// The serial engine's charge sequence on the same workload.
const SERIAL_FIXTURE: [ChargeRow; 4] = [
    (3_153_128, [13_296, 1_167_008, 1_972_824], 0, 98, 3_072, 36, 3_720),
    (3_157_128, [4_080, 3_153_048, 0], 0, 34, 0, 28, 2_696),
    (3_161_128, [4_080, 3_157_048, 0], 0, 34, 0, 28, 2_696),
    (3_097_128, [4_080, 3_093_048, 0], 0, 34, 0, 28, 2_696),
];

#[test]
fn depth_2_replays_pr2_charge_sequence() {
    let out = fixture_run(Hints {
        pipeline_depth: PipelineDepth::Fixed(2),
        cb_nodes: Some(1),
        cb_buffer_size: 512,
        ..Hints::default()
    });
    assert_charges(&out, &PR2_FIXTURE, "depth 2");
    // Double buffering hides time on the aggregator, and every rank
    // finishes strictly before the serial engine does.
    assert!(PR2_FIXTURE[0].2 > 0);
    for (p, s) in PR2_FIXTURE.iter().zip(&SERIAL_FIXTURE) {
        assert!(p.0 < s.0, "depth 2 at {} ns, serial at {} ns", p.0, s.0);
    }
}

#[test]
fn depth_1_replays_serial_charge_sequence() {
    let out = fixture_run(Hints {
        pipeline_depth: PipelineDepth::Fixed(1),
        cb_nodes: Some(1),
        cb_buffer_size: 512,
        ..Hints::default()
    });
    assert_charges(&out, &SERIAL_FIXTURE, "depth 1");
}

#[test]
fn depth_watermark_respects_the_cap() {
    let stats = |depth| {
        fixture_run(Hints {
            pipeline_depth: depth,
            cb_nodes: Some(1),
            cb_buffer_size: 512,
            ..Hints::default()
        })
    };
    for (depth, cap) in
        [(PipelineDepth::Fixed(1), 1), (PipelineDepth::Fixed(2), 2), (PipelineDepth::Fixed(4), 4)]
    {
        let out = stats(depth);
        let deepest = out.iter().map(|(_, s)| s.pipeline_depth_used).max().unwrap();
        assert!(deepest <= cap, "{depth:?} exceeded its cap: reached {deepest}");
        assert!(deepest >= 1, "{depth:?} recorded no pipeline depth at all");
        let saved: u64 = out.iter().map(|(_, s)| s.overlap_saved_ns).sum();
        if cap == 1 {
            assert_eq!(saved, 0, "the serial engine must hide nothing");
        } else {
            assert!(saved > 0, "{depth:?} hid no time on a cycle-rich workload");
            let end = out.iter().map(|(now, _)| *now).max().unwrap();
            let serial_end = SERIAL_FIXTURE.iter().map(|row| row.0).max().unwrap();
            assert!(end < serial_end, "{depth:?}: {end} ns, serial {serial_end} ns");
        }
    }
    // On this workload the I/O dwarfs the exchange, so auto must go
    // beyond classic double buffering on the aggregator.
    let out = stats(PipelineDepth::Auto);
    let deepest = out.iter().map(|(_, s)| s.pipeline_depth_used).max().unwrap();
    assert!(deepest > 2, "auto depth never exceeded double buffering ({deepest})");
}

#[test]
fn derive_overlap_needs_a_deep_pipeline_and_a_miss() {
    let stats = |depth| {
        fixture_run(Hints {
            pipeline_depth: depth,
            cb_nodes: Some(1),
            cb_buffer_size: 512,
            ..Hints::default()
        })
    };
    // Depths 1 and 2 must stay bit-identical to the reference engines, so
    // the derive never overlaps there (the fixtures above also pin this).
    for depth in [PipelineDepth::Fixed(1), PipelineDepth::Fixed(2)] {
        let out = stats(depth);
        assert!(out.iter().all(|(_, s)| s.derive_overlap_saved_ns == 0), "{depth:?}");
    }
    // Deep and auto pipelines hide derivation behind the first exchange
    // on a miss; replays (cache hits) have nothing left to hide, so the
    // counter stops growing after the first call of each direction.
    for depth in [PipelineDepth::Fixed(4), PipelineDepth::Auto] {
        let out = stats(depth);
        let total: u64 = out.iter().map(|(_, s)| s.derive_overlap_saved_ns).sum();
        assert!(total > 0, "{depth:?} hid no derivation time");
    }
}

/// `fine-512`'s shape at 128 ranks: 8-byte regions 136 bytes apart,
/// interleaved across ranks, 64 aggregators, 512-byte buffer cycles, on the
/// default file system (8 OSTs, 2 MiB stripes), so the whole 272 KiB file
/// lies in one stripe. With `read`, the same ranks read the file back in a
/// second world instead, after a depth-1 world has written it. Returns each
/// rank's clock and stats in the timed world.
fn fine_world(depth: PipelineDepth, read: bool) -> Vec<(u64, Stats)> {
    let spec = HpioSpec {
        region_size: 8,
        region_count: 16,
        region_spacing: 128,
        mem_noncontig: true,
        file_noncontig: true,
        nprocs: 128,
    };
    let pfs = Pfs::new(PfsConfig::default());
    let world = |depth, read| {
        let hints = Hints {
            cb_nodes: Some(64),
            cb_buffer_size: 512,
            exchange: ExchangeMode::Alltoallw,
            pipeline_depth: depth,
            ..Hints::default()
        };
        let inner = Arc::clone(&pfs);
        run(spec.nprocs, CostModel::default(), move |rank| {
            let r = rank.rank();
            let mut f = MpiFile::open(rank, &inner, "fine", hints.clone()).unwrap();
            let (disp, ftype) = spec.file_view(r, TypeStyle::Succinct);
            f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
            let (memtype, count, data) = (spec.mem_type(), spec.mem_count(), spec.make_buffer(r));
            if read {
                let mut back = vec![0u8; data.len()];
                f.read_all(&mut back, &memtype, count).unwrap();
                assert_eq!(back, data, "rank {r}: read-back differs");
            } else {
                f.write_all(&data, &memtype, count).unwrap();
            }
            let out = (rank.now(), rank.stats());
            f.close().unwrap();
            out
        })
    };
    if read {
        world(PipelineDepth::Fixed(1), false);
    }
    world(depth, read)
}

/// The write side of `auto` is bounded by `MAX_INFLIGHT` alone. 64
/// aggregators over one stripe get a stripe-width share of one in-flight
/// write; held to it, an aggregator would reach the OST again only after
/// its previous write was done, leaving idle gaps no peer's request fits.
/// Deeper write-behind fills them.
#[test]
fn auto_write_depth_is_not_held_to_a_stripe_share() {
    let deepest = |out: &[(u64, Stats)]| out.iter().map(|(_, s)| s.pipeline_depth_used).max();
    let slowest = |out: &[(u64, Stats)]| out.iter().map(|(now, _)| *now).max().unwrap();
    let (auto, two) =
        (fine_world(PipelineDepth::Auto, false), fine_world(PipelineDepth::Fixed(2), false));
    assert!(deepest(&auto) >= Some(3), "auto stayed at depth {:?}", deepest(&auto));
    assert!(
        slowest(&auto) < slowest(&two),
        "auto ends at {} ns, fixed depth 2 at {} ns",
        slowest(&auto),
        slowest(&two)
    );
}

/// The read side of `auto` keeps the stripe-width bound, `1 + 2·n_osts /
/// n_aggregators` buffers (at least 2): a prefetch takes OST time ahead of
/// peers' demand reads.
#[test]
fn auto_read_depth_keeps_the_stripe_share() {
    let (n_osts, n_aggs) = (PfsConfig::default().n_osts, 64);
    let bound = 1 + (2 * n_osts / n_aggs).max(1) as u64;
    let out = fine_world(PipelineDepth::Auto, true);
    let deepest = out.iter().map(|(_, s)| s.pipeline_depth_used).max().unwrap();
    assert!((2..=bound).contains(&deepest), "auto read reached depth {deepest}, bound {bound}");
}

/// A read pipeline can hide an aggregator's whole read: its prefetches
/// complete behind the distribution of earlier buffers, so its `Io` phase
/// bucket stays 0 and the time is in `overlap_saved_ns` instead. The
/// smallest HPIO read world found where that happens: 9 ranks, 5
/// aggregators (ranks 0, 1, 3, 5, 7), 384 regions of 8 KiB each, `bench
/// read`'s populate-then-read sequence under `new+struct`. Every
/// aggregator reads a non-empty realm here, and a pure client never
/// touches the file, so it has nothing to hide.
#[test]
fn hidden_read_io_is_counted_as_overlap_saved() {
    let spec = HpioSpec { region_count: 384, nprocs: 9, ..HpioSpec::fig4(8192) };
    let aggs = 5;
    let pfs = Pfs::new(PfsConfig::default());
    let hpio_world = |hints: &Hints, cost, timing, read: bool| {
        let mut world = FileWorld::new(&pfs, "r", hints, timing);
        world.cost = cost;
        world.run(
            spec.nprocs,
            1,
            |r| Some(spec.file_view(r, TypeStyle::Succinct)),
            |r, _| {
                let io = if read {
                    Io::Read(spec.buffer_span() as usize)
                } else {
                    Io::Write(spec.make_buffer(r))
                };
                Call::new(io, spec.mem_type(), spec.mem_count())
            },
        )
    };
    let hints = Hints { cb_nodes: Some(aggs), ..Hints::default() };
    hpio_world(&hints, CostModel::free(), Timing::Untimed, false);
    let s = hpio_world(&hints, CostModel::default(), Timing::Whole, true);
    assert!(s.err().is_none());
    let io = |st: &Stats| st.phase_ns[Phase::Io as usize];
    let agg_ranks = aggregator_ranks(aggs, spec.nprocs);
    for (r, st) in s.stats.iter().enumerate() {
        if agg_ranks.contains(&r) {
            assert!(io(st) + st.overlap_saved_ns > 0, "aggregator {r} shows no read time");
        } else {
            assert_eq!(st.overlap_saved_ns, 0, "pure client {r} hid I/O it never issued");
        }
    }
    assert!(
        agg_ranks.iter().any(|&r| io(&s.stats[r]) == 0 && s.stats[r].overlap_saved_ns > 0),
        "no aggregator's read is wholly hidden any more: pick a shape where one is"
    );
}
