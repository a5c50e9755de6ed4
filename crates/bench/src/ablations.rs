//! The design-choice studies DESIGN.md calls out (A1, A3, A4, A6–A8). A4 and
//! A6–A8 assert their own byte-identity and shape claims while they run: a
//! clean exit is itself evidence.

use crate::report::{row, Report};
use crate::worlds::{hpio, locking_pfs, mbps};
use crate::Args;
use flexio_core::{BalancedLoad, Engine, EvenAar, Hints, PipelineDepth, RealmAssigner};
use flexio_hpio::{HpioSpec, TypeStyle};
use flexio_io::IoMethod;
use flexio_pfs::{FaultPlan, Pfs, PfsConfig, PfsCostModel};
use flexio_types::Datatype;
use flexio_workload::{
    read_file, run_crash_checkpoint, step_data, Call, CrashScenario, FileWorld, Io, TiledShape,
    Timing,
};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

/// A1 (§5.3): request-metadata volume and datatype-processing work —
/// fully flattened access (`M` pairs, old engine) vs flattened filetype
/// (`D` pairs, new engine) with succinct and enumerated types. Per region
/// count: metadata bytes on the wire (payload bytes minus data bytes) and
/// offset/length pairs evaluated.
pub(crate) fn a1(args: &Args, r: &mut Report) {
    let nprocs = args.nprocs_or(if args.paper { 64 } else { 16 });
    let counts = if args.paper { [256, 1024, 4096, 16384] } else { [64, 256, 1024, 4096] };
    r.section("regions,variant,wire_bytes_total,metadata_bytes,pairs_processed");
    for m in counts {
        let spec = HpioSpec { region_count: m, nprocs, ..HpioSpec::fig4(16) };
        for (name, engine, style) in [
            ("old(flattened-access)", Engine::Romio, TypeStyle::Enumerated),
            ("new+vector(D=M)", Engine::Flexible, TypeStyle::Enumerated),
            ("new+struct(D=1)", Engine::Flexible, TypeStyle::Succinct),
        ] {
            let hints = Hints { engine, cb_nodes: Some((nprocs / 2).max(1)), ..Hints::default() };
            let pfs = Pfs::new(PfsConfig::default());
            // Every message of the world is counted, so no barrier adds any.
            let s = hpio(FileWorld::new(&pfs, "meta", &hints, Timing::Untimed), spec, style, false);
            let bytes = s.sum(|s| s.bytes_sent);
            let meta = bytes.saturating_sub(spec.aggregate_bytes());
            row!(r; m, name, bytes, meta, s.sum(|s| s.pairs_processed));
        }
    }
    r.note("Expected shape: metadata bytes grow with M for the old engine and for new+vector,");
    r.note("but stay flat for new+struct; pairs processed are highest for new+vector");
    r.note("(O(M*A) on the client side).");
}

/// A3 (§7 future work): load-balanced realm assignment vs the even
/// aggregate-access-region split, on sparse clustered accesses. Every
/// rank writes one stripe-aligned cluster near the start of the file;
/// rank 0 also writes a single straggler byte far away, which stretches
/// the AAR so the even split leaves all real data in one realm.
pub(crate) fn a3(args: &Args, r: &mut Report) {
    let cluster: u64 = if args.paper { 2 << 20 } else { 256 << 10 };
    r.section("nprocs,assigner,mbps:2");
    // `--nprocs N` narrows the sweep to the one requested world size.
    for nprocs in args.nprocs.map_or(vec![4, 8, 16], |n| vec![n]) {
        let straggler = cluster * nprocs as u64 * 64; // sparse tail
        for (name, assigner) in [
            ("even-aar", Arc::new(EvenAar) as Arc<dyn RealmAssigner>),
            ("balanced-load", Arc::new(BalancedLoad) as Arc<dyn RealmAssigner>),
        ] {
            let hints = Hints {
                realm_assigner: Some(assigner),
                cb_nodes: Some(nprocs),
                ..Hints::default()
            };
            let pfs = Pfs::new(PfsConfig {
                stripe_size: cluster,
                page_size: 4096,
                ..PfsConfig::default()
            });
            // The one world whose ranks do not share a view shape: rank 0's
            // filetype has the straggler byte, everyone else's is one cluster.
            let rank0 = vec![(0, cluster), (straggler as i64, 1)];
            let view = |rank: usize| match rank {
                0 => (0, Datatype::hindexed(rank0.clone(), Datatype::bytes(1))),
                _ => (rank as u64 * cluster, Datatype::bytes(cluster)),
            };
            let len = |rank: usize| cluster as usize + (rank == 0) as usize;
            let s = FileWorld::new(&pfs, "a3", &hints, Timing::Untimed).run(
                nprocs,
                1,
                |rank| Some(view(rank)),
                |rank, _| Call::contiguous(Io::Write(vec![7u8; len(rank)])),
            );
            assert!(s.err().is_none() && s.close.iter().all(Result::is_ok), "A3 world failed");
            row!(r; nprocs, name, mbps(cluster * nprocs as u64 + 1, s.call_ns[0]));
        }
    }
    r.note("Expected shape: balanced-load spreads the clusters over all aggregators while");
    r.note("even-aar funnels them through one; the gap grows with nprocs.");
}

/// A4: the exchange-schedule cache on the steady-state checkpoint pattern
/// — persistent file realms, one fixed block-cyclic view, 32 time steps
/// each overwriting the checkpoint region with fresh data. Call 1 derives
/// the schedule; calls 2..N replay it on a hit. The uncached ("off") arm
/// calls `set_hints` with the same hints before every step, which drops
/// the schedule, so every call derives as call 1 does. Per step:
/// offset/length pairs processed and virtual wall-clock for both arms;
/// the final images must be byte-identical.
///
/// Paper scale: 64 clients, 32 aggregators, 2 MiB stripes, 100 × 32 B
/// elements per point, 2048 points per rank.
pub(crate) fn a4(args: &Args, r: &mut Report) {
    const STEPS: u64 = 32;
    // `slice`: bytes of one rank's slice inside a point; `points`:
    // block-cyclic points per rank in the checkpoint region.
    let (nprocs, slice, points, stripe): (usize, u64, u64, u64) =
        if args.paper { (64, 3200, 2048, 2 << 20) } else { (16, 3200, 256, 512 << 10) };
    let nprocs = args.nprocs_or(nprocs);
    let aggs = (nprocs / 2).max(1);
    let hints = Hints {
        persistent_file_realms: true,
        fr_alignment: Some(stripe),
        cb_nodes: Some(aggs),
        io_method: IoMethod::DataSieve { buffer: 512 << 10 },
        ..Hints::default()
    };
    // Rank `r` owns the `slice` at `r * slice` of every point.
    let shape = TiledShape { nprocs, block: slice, reps: points, steps: STEPS };
    // Each arm checks its image and keeps only a digest of it, so the
    // first arm's image is gone before the second arm writes its own.
    let checkpoint = |uncached: bool| {
        let pfs = locking_pfs(stripe);
        let s = FileWorld::new(&pfs, "ckpt", &hints, Timing::EachCall).run(
            nprocs,
            STEPS,
            |rank| Some(shape.view(rank)),
            |rank, step| Call { hints: uncached.then(|| hints.clone()), ..shape.write(rank, step) },
        );
        assert!(s.err().is_none(), "fault-free checkpoint failed: {:?}", s.err());
        let image = read_file(&pfs, "ckpt");
        // The surviving checkpoint must be the last step's data.
        for rank in 0..nprocs {
            let want = step_data(rank, STEPS - 1, (slice * points) as usize);
            for (p, want) in want.chunks(slice as usize).enumerate() {
                let at = (p * nprocs + rank) * slice as usize;
                assert!(&image[at..at + slice as usize] == want, "rank {rank} point {p} corrupted");
            }
        }
        let mut digest = DefaultHasher::new();
        image.hash(&mut digest);
        (s, digest.finish())
    };
    let (on, digest_on) = checkpoint(false);
    let (off, digest_off) = checkpoint(true);
    assert!(digest_on == digest_off, "cache changed the bytes on disk");

    r.note(&format!(
        "{STEPS}-step checkpoint overwrite, {nprocs} clients, {aggs} aggregators, PFR + aligned realms"
    ));
    r.section("step,pairs_cache_on,pairs_cache_off,ms_cache_on:3,ms_cache_off:3");
    let ms = |ns: u64| ns as f64 / 1e6;
    for s in 0..STEPS as usize {
        row!(r; s + 1, on.call_pairs[s], off.call_pairs[s], ms(on.call_ns[s]), ms(off.call_ns[s]));
    }
    let steady = |v: &[u64]| v[1..].iter().sum::<u64>() as f64 / (v.len() - 1) as f64;
    let phases = |name: &str, v: &[u64], unit: f64| {
        (name.to_string(), vec![v[0] as f64 / unit, steady(v) / unit])
    };
    r.table(
        "Exchange-schedule cache ablation",
        "phase",
        &["call 1".to_string(), "calls 2..N (avg)".to_string()],
        &[
            phases("pairs on", &on.call_pairs, 1.0),
            phases("pairs off", &off.call_pairs, 1.0),
            phases("ms on", &on.call_ns, 1e6),
            phases("ms off", &off.call_ns, 1e6),
        ],
    );
    let (on_pairs, off_pairs) = (&on.call_pairs, &off.call_pairs);
    assert_eq!(on_pairs[0], off_pairs[0], "call 1 must charge identically with the cache armed");
    assert!(steady(on_pairs) < steady(off_pairs), "steady-state pairs must drop with the cache on");
    let speedup = steady(&off.call_ns) / steady(&on.call_ns);
    r.heading(&format!("steady-state virtual-time speedup: {speedup:.3}x"));
    r.note("file images byte-identical: yes");
}

/// A6: pipeline depth 1 (serial), 2 (classic double buffering), 4 and
/// auto (per-cycle adaptation from the measured I/O:exchange ratio) for
/// both engines on the shared `CycleDriver` core. Reports the slowest
/// rank's collective-write time, the I/O and derivation time hidden, the
/// deepest pipeline any rank reached and the PFS-side peak of outstanding
/// nonblocking ops; every engine × depth combination must leave a
/// byte-identical file image.
///
/// The workload is E1's with 512 B regions, and a small collective buffer
/// to force many buffer cycles per call — the regime double buffering
/// targets (one cycle has nothing to overlap with). Paper scale: 64
/// procs, 4096 regions, aggregators {8, 32}. Default scale: 16 procs,
/// 1024 regions, aggregators {4, 8}.
pub(crate) fn a6(args: &Args, r: &mut Report) {
    let (nprocs, agg_counts) = args.world(if args.paper { (64, [8, 32]) } else { (16, [4, 8]) });
    let regions = if args.paper { 4096 } else { 1024 };
    r.note(&format!(
        "E1 workload: {nprocs} procs, {regions} regions of 512 B, spacing 128 B, cb 256 KiB"
    ));
    let spec = HpioSpec { region_count: regions, nprocs, ..HpioSpec::fig4(512) };
    // Every arm must leave the image the first one left.
    let mut first_image = None;
    let depths = [
        ("depth-1", PipelineDepth::Fixed(1)),
        ("depth-2", PipelineDepth::Fixed(2)),
        ("depth-4", PipelineDepth::Fixed(4)),
        ("auto", PipelineDepth::Auto),
    ];
    r.section(
        "aggs,engine,depth,ns,mbps:2,hidden_ns,derive_hidden_ns,depth_used,nb_inflight_peak,\
         bytes_copied",
    );
    for aggs in agg_counts {
        for &(ename, engine) in &args.engines {
            let (mut auto_bw, mut best_fixed) = (0.0, (0.0f64, ""));
            for &(name, depth) in &depths {
                let hints = Hints {
                    engine,
                    cb_nodes: Some(aggs),
                    cb_buffer_size: 256 << 10,
                    pipeline_depth: depth,
                    ..Hints::default()
                };
                let pfs = Pfs::new(PfsConfig::default());
                let world = FileWorld::new(&pfs, "pipeline", &hints, Timing::Whole);
                let s = hpio(world, spec, TypeStyle::Succinct, false);
                let image = read_file(&pfs, "pipeline");
                let first = first_image.get_or_insert_with(|| image.clone());
                assert!(*first == image, "file images diverge at {ename} {name}, {aggs} aggs");
                let bw = mbps(spec.aggregate_bytes(), s.span_ns);
                row!(r;
                    aggs, ename, name, s.span_ns, bw,
                    s.sum(|s| s.overlap_saved_ns),
                    s.sum(|s| s.derive_overlap_saved_ns),
                    s.stats.iter().map(|s| s.pipeline_depth_used).max().unwrap_or(0),
                    pfs.stats().nb_inflight_peak,
                    s.sum(|s| s.bytes_copied),
                );
                if name == "auto" {
                    auto_bw = bw;
                } else if bw > best_fixed.0 {
                    best_fixed = (bw, name);
                }
            }
            // Auto depth is a measured guess, not a search over depths, so
            // it may trail the best fixed depth a little; 1 % allows the
            // charges that move service order at the shared OSTs (DESIGN
            // "Determinism"), not run-to-run noise — there is none.
            let (best_bw, best) = best_fixed;
            assert!(
                auto_bw >= 0.99 * best_bw,
                "{ename}: auto depth ({auto_bw:.2} MB/s) more than 1 % behind fixed {best} \
                 ({best_bw:.2} MB/s) at {aggs} aggs"
            );
        }
    }
    let title = "pipeline depth — I/O bandwidth (MB/s)";
    r.pivot(title, None, "aggs", &["engine", "depth"], "mbps");
    r.heading("file images byte-identical across engines and depths at every aggregator count");
    r.note("auto depth within 1 % of the best fixed depth, or above it, for every engine");
}

/// A7 — fault injection on a tiled collective-write workload.
///
/// 1. **Transient faults**: slowdown vs per-request OST error rate, with
///    the retry loop off (`Hints::io_retries` 0: the collective aborts on
///    the first fault via the error agreement) and on (default budget,
///    backoff charged in virtual time).
/// 2. **Straggler OST**: slowdown vs straggler severity with static
///    realms and with persistent file realms plus EWMA-driven realm
///    rebalancing, which splits the slow realm and spreads the
///    straggler's stripes over neighbouring aggregators.
///
/// Every arm must leave a byte-identical file image: the fault model
/// perturbs time and outcomes, never data.
pub(crate) fn a7(args: &Args, r: &mut Report) {
    const BLOCK: u64 = 64 << 10;
    // Later steps see realms the earlier steps' detections already
    // rebalanced.
    const STEPS: u64 = 4;
    // Realms must be I/O-dominated: the detector's per-cycle heartbeat is
    // an allgather (~log2 p x net latency), so each aggregator serves at
    // least 1 MiB per collective call.
    let reps = if args.paper { 16 } else { 8 };
    // `--nprocs N` rescales the world; aggregator counts then track the
    // process count so one OST per aggregator stays meaningful.
    let (nprocs, agg_counts) = args.world(if args.paper { (64, [8, 32]) } else { (16, [4, 8]) });
    r.note(&format!(
        "tiled workload: {nprocs} procs x {reps} blocks of 64 KiB x {STEPS} steps; \
         one OST per aggregator"
    ));
    // The steps under `plan`: the sample, the image they left, and the
    // faults the plan injected (the image probe's included, as it may
    // draw one).
    let run = |aggs: usize, plan: Option<FaultPlan>, rebalance: bool, io_retries: u32| {
        let span = nprocs as u64 * BLOCK * reps;
        // The stripe is the realm block, so a straggler OST maps to
        // exactly one slow aggregator.
        let cfg = PfsConfig {
            n_osts: aggs,
            stripe_size: span / aggs as u64,
            page_size: 4096,
            locking: false,
            lock_expansion: false,
            client_cache: false,
            cost: PfsCostModel::default(),
        };
        let pfs = plan.map_or_else(|| Pfs::new(cfg), |p| Pfs::with_faults(cfg, p));
        let hints = Hints {
            cb_nodes: Some(aggs),
            cb_buffer_size: (span / aggs as u64 / 4) as usize,
            persistent_file_realms: rebalance,
            fr_alignment: Some(4096),
            io_retries,
            retry_backoff_us: 100,
            ..Hints::default()
        };
        let shape = TiledShape { nprocs, block: BLOCK, reps, steps: STEPS };
        let s = FileWorld::new(&pfs, "a7", &hints, Timing::EachCall).run(
            nprocs,
            STEPS,
            |rank| Some(shape.view(rank)),
            |rank, step| shape.write(rank, step),
        );
        let clean = s.err().is_some() || s.close.iter().all(Result::is_ok);
        assert!(clean, "close failed after clean writes");
        let total_ns: u64 = s.call_ns.iter().sum();
        let image = read_file(&pfs, "a7");
        (s, total_ns, image, pfs.stats().faults_injected)
    };

    let aggs = agg_counts[0];
    let (_, oracle_ns, oracle_image, _) = run(aggs, None, false, 4);
    r.heading(&format!("panel 1: transient faults at {aggs} aggregators"));
    r.section("rate,io_retries,outcome,ns,slowdown:3,retries,faults_injected");
    let rates = [0.002, 0.01, 0.05, 0.1];
    let mut series =
        vec![("no-retry".to_string(), Vec::new()), ("retry-4".to_string(), Vec::new())];
    for rate in rates {
        for (si, retries) in [0u32, 4].into_iter().enumerate() {
            let (s, ns, image, faults) =
                run(aggs, Some(FaultPlan::transient(0xa7, rate)), false, retries);
            assert!(image == oracle_image, "transient faults changed bytes");
            let retried = s.sum(|s| s.io_retries);
            assert!(retried <= faults, "retry ledger exceeds injected faults");
            let slowdown = ns as f64 / oracle_ns as f64;
            let outcome = if s.err().is_none() { "ok" } else { "aborted" };
            row!(r; rate, retries, outcome, ns, slowdown, retried, faults);
            if let Some(e) = s.err() {
                r.note(&format!("  -> error({e})"));
            }
            // An aborted collective is not a data point on the slowdown
            // curve; plot it as 0 so the gap is visible in the table.
            series[si].1.push(if s.err().is_none() { slowdown } else { 0.0 });
        }
    }
    let title = format!("A7.1 transient-fault slowdown, {aggs} aggs (0 = aborted)");
    r.table(&title, "rate", &rates.map(|r| r.to_string()), &series);

    r.heading("panel 2: persistent straggler OST 0");
    r.section("aggs,multiplier,mode,ns,last_step_ns,slowdown:3,degraded_cycles,realms_rebalanced");
    for aggs in agg_counts {
        let (_, oracle_ns, oracle_image, _) = run(aggs, None, true, 4);
        for m in [2.0, 4.0, 8.0, 16.0] {
            let mut static_ns = u64::MAX;
            for (mode, rebalance) in [("static", false), ("rebalance", true)] {
                let (s, ns, image, _) = run(aggs, Some(FaultPlan::straggler(0, m)), rebalance, 4);
                assert!(image == oracle_image, "straggler run changed bytes");
                assert!(s.err().is_none(), "straggler-only plan must not error");
                // The EWMA detector deliberately ignores mild stragglers
                // (below its 2x threshold), and the adaptive pipeline
                // already hides moderate latency within one aggregator,
                // so a strict win is required once the straggler is
                // severe enough to exceed both defences.
                if rebalance && m >= 16.0 {
                    assert!(
                        ns < static_ns,
                        "aggs {aggs} x{m}: rebalancing ({ns}) not faster than static ({static_ns})"
                    );
                } else if !rebalance {
                    static_ns = ns;
                }
                row!(r;
                    aggs, m, mode, ns, *s.call_ns.last().unwrap(),
                    ns as f64 / oracle_ns as f64,
                    s.sum(|s| s.degraded_cycles),
                    s.sum(|s| s.realms_rebalanced),
                );
            }
        }
    }
    r.pivot("A7.2 straggler slowdown, {} aggs", Some("aggs"), "multiplier", &["mode"], "slowdown");
}

/// Clean generations committed before A8's crash generation: one, so the
/// aborted arms have an old epoch to fall back to.
const CLEAN_EPOCHS: u64 = 1;

/// What A8 reads off one crash-checkpoint run.
struct CrashSample {
    /// Slowest surviving rank's clock in the crash generation.
    gen_ns: u64,
    /// Generation the header names after everything settled.
    committed: Option<u64>,
    recovered: u64,
    rebalanced: u64,
    survivors: usize,
}

fn crash_sample(scn: &CrashScenario) -> CrashSample {
    let out = run_crash_checkpoint(scn);
    let last = out.epochs.last().expect("crash generation ran");
    let recs: Vec<_> = last.iter().flatten().collect();
    CrashSample {
        gen_ns: recs.iter().map(|r| r.clock).max().unwrap_or(0),
        committed: out.committed,
        recovered: recs.iter().map(|r| r.stats.ranks_recovered).max().unwrap_or(0),
        rebalanced: recs.iter().map(|r| r.stats.realms_rebalanced).max().unwrap_or(0),
        survivors: out.survivors.len(),
    }
}

/// A8 — crash recovery on the crash-checkpoint workload family
/// (`flexio_workload::run_crash_checkpoint`: clean epoch-committed
/// generations, then one generation with a seeded victim crash).
///
/// 1. **Crash point**: slowdown of the crash generation (slowest
///    survivor's virtual clock vs the same generation run fault-free) as
///    the crash time sweeps from collective entry to three-quarters
///    through the run, with recovery on (`recover`: the survivors detect,
///    re-elect aggregators, re-partition, and replay to a published
///    survivor checkpoint) and off (`abort`: the same detection, then the
///    agreed `RanksFailed` verdict — the cost of *failing cleanly*).
/// 2. **Watchdog**: recovery slowdown at a mid-run crash vs
///    `Hints::watchdog_us`. Detection latency is the watchdog deadline,
///    so the curve is linear in the timeout until replay cost dominates.
///
/// Every recovered arm must publish the crash generation as a survivor
/// checkpoint; every aborted arm must leave the previous generation
/// committed. Both are asserted, so the ablation doubles as a smoke test
/// of the commit protocol at bench scale.
///
/// Paper scale: 32 procs, aggregators {4, 16}. Default: 8 procs, {2, 4}.
pub(crate) fn a8(args: &Args, r: &mut Report) {
    let (block, reps): (u64, u64) = if args.paper { (4096, 8) } else { (1024, 4) };
    // `--nprocs N` rescales the world; aggregator counts track it.
    let (nprocs, agg_counts) = args.world(if args.paper { (32, [4, 16]) } else { (8, [2, 4]) });
    let watchdog_us = 200_000u64;
    let scenario = |aggs: usize, at_ns: u64, recovery: bool, watchdog_us: u64| CrashScenario {
        seed: 0xA8,
        nprocs,
        block,
        reps,
        clean_epochs: CLEAN_EPOCHS,
        aggs,
        victim: nprocs / 2,
        at_ns,
        recovery,
        watchdog_us,
        torn_rate: 0.0,
    };
    // Fault-free reference: the crash time past any checkpoint, so the
    // victim survives and the generation publishes in full.
    let reference = |aggs: usize| crash_sample(&scenario(aggs, u64::MAX / 2, true, watchdog_us));
    r.note(&format!(
        "crash-checkpoint workload: {nprocs} procs x {reps} tiles of {block} B, \
         {CLEAN_EPOCHS} clean epoch(s) then a mid-world victim crash"
    ));

    r.heading(&format!("panel 1: crash point sweep at watchdog {watchdog_us} us"));
    r.section(
        "aggs,frac,at_ns,mode,gen_ns,slowdown:3,survivors,ranks_recovered,realms_rebalanced,\
         committed",
    );
    for aggs in agg_counts {
        let base = reference(aggs);
        assert_eq!(base.committed, Some(CLEAN_EPOCHS), "reference run must publish");
        assert_eq!(base.survivors, nprocs, "reference run must keep every rank");
        for frac in [0.0, 0.25, 0.5, 0.75] {
            let at_ns = (base.gen_ns as f64 * frac) as u64;
            for (mode, recovery) in [("recover", true), ("abort", false)] {
                let s = crash_sample(&scenario(aggs, at_ns, recovery, watchdog_us));
                assert_eq!(s.survivors, nprocs - 1, "frac {frac}: the victim must die");
                if recovery {
                    assert_eq!(s.committed, Some(CLEAN_EPOCHS), "recovered arm must publish");
                    assert_eq!(s.recovered, 1, "one dead peer counted");
                } else {
                    let old = Some(CLEAN_EPOCHS - 1);
                    assert_eq!(s.committed, old, "aborted arm must keep the old epoch");
                }
                row!(r;
                    aggs, frac, at_ns, mode, s.gen_ns,
                    s.gen_ns as f64 / base.gen_ns as f64,
                    s.survivors, s.recovered, s.rebalanced,
                    format!("{:?}", s.committed),
                );
            }
        }
    }
    let title = "A8.1 crash-generation slowdown, {} aggs";
    r.pivot(title, Some("aggs"), "frac", &["mode"], "slowdown");

    r.heading("panel 2: watchdog sweep, mid-run crash, recovery on");
    r.section("aggs,watchdog_us,gen_ns,slowdown:3,realms_rebalanced");
    for aggs in agg_counts {
        let base = reference(aggs);
        for wd in [10_000u64, 50_000, 200_000, 1_000_000] {
            let s = crash_sample(&scenario(aggs, base.gen_ns / 2, true, wd));
            assert_eq!(s.committed, Some(CLEAN_EPOCHS), "recovered arm must publish");
            row!(r; aggs, wd, s.gen_ns, s.gen_ns as f64 / base.gen_ns as f64, s.rebalanced);
        }
    }
    let title = "A8.2 recovery slowdown vs watchdog timeout (mid-run crash), one column per aggs";
    r.pivot(title, None, "watchdog_us", &["aggs"], "slowdown");
}
