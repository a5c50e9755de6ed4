//! Persistent realms keep their locks: what the flexible engine's *ahead*
//! realm-chunk request (DESIGN "Lock requests: ordinary and ahead") buys
//! end to end, and what becomes of such a lock when its realm set is
//! replaced.
//!
//! * With persistent, stripe-aligned realms the run's clock is a function
//!   of its work, not of which aggregator reaches the lock manager first:
//!   skewing the ranks' start by at most δ moves the slowest rank's end by
//!   at most δ (+ ε, below). This is ROADMAP item 9's time-shift relation
//!   in its first instance. Asked ordinarily, which grants expand is
//!   decided by arrival order, and the end is a draw.
//! * Asked ahead, a persistent, stripe-aligned realm chunk is granted once
//!   and never revoked, call after call, in both directions; asked
//!   ordinarily, the same realms lose locks to each other. These are exact
//!   counts per call, which the golden rows do not carry.
//! * A straggler rebalance or a crash recovery replaces the realm set
//!   while the old owners still hold ahead locks on the old chunks. Nothing
//!   releases those: the new owner's request conflicts with them and
//!   cancels them through the lock manager's ordinary path — revocation,
//!   victim flush, invalidation — and the bytes come out right.

use flexio::core::{Engine, Hints, MpiFile, PipelineDepth};
use flexio::hpio::TimeStepSpec;
use flexio::io::IoMethod;
use flexio::pfs::{FaultPlan, Pfs, PfsConfig, PfsCostModel, StatsSnapshot};
use flexio::sim::prop::Runner;
use flexio::sim::{run, run_crashable, CostModel, XorShift64Star};
use flexio::types::Datatype;
use flexio::workload::{read_file, run_tiled, TiledShape};
use std::sync::{Arc, OnceLock};

// ---- arrival order does not move the clock ----------------------------------

/// `timestep-locks-64`'s shape at a sixteenth of its size: 16 ranks, 8
/// aggregators, eight steps into a 3.1 MiB file of fifty 64 KiB stripes
/// over 8 OSTs; locks, lock expansion, a client cache, data sieving,
/// persistent realms aligned to the stripe (seven stripes each, so every
/// aggregator shares every OST with its neighbours).
const SKEW_SPEC: TimeStepSpec =
    TimeStepSpec { elem_size: 32, elems_per_point: 100, points: 128, steps: 8, nprocs: 16 };
const SKEW_STRIPE: u64 = 64 << 10;

/// The largest start skew drawn, ns (the benchmark-scale experiment's
/// 0.6 ms).
const MAX_DELTA_NS: u64 = 600_000;

/// What the bound allows beyond the skew itself. Everything between a
/// rank's start and its end is max-plus in the ranks' clocks — messages,
/// collectives, lock grants of disjoint ahead extents — so a start moved
/// by at most δ moves every later event by at most δ; the one exception is
/// an OST's queue, which serves requests in arrival order: a skewed start
/// can swap two aggregators' requests at an OST they share, and the one
/// that lost its place waits one request longer than it did unskewed (or,
/// having gained one, shorter). ε is that: one stripe-sized request's
/// service time at an OST (request + seek + 64 KiB at the OST's rate,
/// 286 µs). The largest excursions seen over 512 cases under the pinned
/// seed are +69 µs and −84 µs.
fn epsilon_ns() -> u64 {
    let c = PfsCostModel::default();
    c.request_ns + c.seek_ns + (SKEW_STRIPE as f64 * c.ns_per_byte) as u64
}

/// One run with every rank's start delayed by its entry of `skews`.
/// Returns the slowest rank's end, the file system's counters and the
/// image.
fn skewed_timesteps(skews: &[u64]) -> (u64, StatsSnapshot, Vec<u8>) {
    let spec = SKEW_SPEC;
    let pfs = Pfs::new(PfsConfig {
        stripe_size: SKEW_STRIPE,
        page_size: 4096,
        locking: true,
        lock_expansion: true,
        client_cache: true,
        ..PfsConfig::default()
    });
    let hints = Hints {
        persistent_file_realms: true,
        fr_alignment: Some(SKEW_STRIPE),
        cb_nodes: Some(8),
        io_method: IoMethod::DataSieve { buffer: 512 << 10 },
        ..Hints::default()
    };
    let ends = run(spec.nprocs, CostModel::default(), |rank| {
        // Compute charged before `open`: the rank simply arrives late.
        rank.advance(skews[rank.rank()]);
        let mut f = MpiFile::open(rank, &pfs, "ts", hints.clone()).unwrap();
        for t in 0..spec.steps {
            let (disp, ftype) = spec.file_view(rank.rank(), t);
            f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
            let buf = spec.make_buffer(rank.rank(), t);
            f.write_all(&buf, &Datatype::bytes(buf.len() as u64), 1).unwrap();
        }
        f.close().unwrap();
        rank.now()
    });
    let stats = pfs.stats();
    (ends.into_iter().max().unwrap(), stats, read_file(&pfs, "ts"))
}

#[test]
fn start_skew_moves_the_end_by_no_more_than_the_skew() {
    static UNSKEWED: OnceLock<u64> = OnceLock::new();
    let draw = |rng: &mut XorShift64Star| -> Vec<u64> {
        let delta = rng.next_u64() % (MAX_DELTA_NS + 1);
        (0..SKEW_SPEC.nprocs).map(|_| rng.next_u64() % (delta + 1)).collect()
    };
    Runner::new("start_skew_moves_the_end_by_no_more_than_the_skew").run(draw, |skews| {
        let base = *UNSKEWED.get_or_init(|| skewed_timesteps(&[0; SKEW_SPEC.nprocs]).0);
        let (end, stats, image) = skewed_timesteps(skews);
        assert_eq!(stats.lock_revocations, 0, "a realm lock was lost to arrival order");
        assert_eq!(stats.lock_grants, 8, "one grant per aggregator, whoever came first");
        assert_eq!(SKEW_SPEC.verify(&image), Ok(()));
        let delta = *skews.iter().max().unwrap();
        let eps = epsilon_ns();
        assert!(
            end + eps >= base && end <= base + delta + eps,
            "unskewed end {base}, skewed by at most {delta}: end {end} is outside \
             [{}, {}]",
            base - eps,
            base + delta + eps
        );
    });
}

// ---- granted once, never revoked --------------------------------------------

/// The Fig. 6/7 time-step shape under locks, lock expansion and a client
/// cache, data sieving on (as in the paper's PFR experiment, §6.4: the
/// aggregator writes one contiguous sieve span per cycle, so the lock
/// manager sees realm-shaped extents). `read` first writes the file in a
/// world of its own (its close drops every lock) and then counts the
/// traffic of eight collective reads through the same views. Returns the
/// file system's counters after the first counted call and after the last
/// — a rank reads the former behind a barrier, before any rank can be past
/// the second call's metadata allgather.
fn timestep_lock_traffic(
    spec: TimeStepSpec,
    stripe: u64,
    aggs: usize,
    pfr: bool,
    align: bool,
    read: bool,
) -> (StatsSnapshot, StatsSnapshot) {
    let pfs = Pfs::new(PfsConfig {
        n_osts: 4,
        stripe_size: stripe,
        page_size: 64,
        locking: true,
        lock_expansion: true,
        client_cache: true,
        cost: PfsCostModel::default(),
    });
    let hints = Hints {
        persistent_file_realms: pfr,
        fr_alignment: Some(if align { stripe } else { 1 }),
        cb_nodes: Some(aggs),
        io_method: IoMethod::DataSieve { buffer: 512 << 10 },
        ..Hints::default()
    };
    let world = |read: bool| {
        run(spec.nprocs, CostModel::default(), |rank| {
            let mut f = MpiFile::open(rank, &pfs, "ts", hints.clone()).unwrap();
            let mut after_first = None;
            for t in 0..spec.steps {
                let (disp, ftype) = spec.file_view(rank.rank(), t);
                f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
                let mut buf = spec.make_buffer(rank.rank(), t);
                let n = buf.len() as u64;
                let (memtype, count) = (Datatype::bytes(n.max(1)), (n > 0) as u64);
                if read {
                    let want = std::mem::replace(&mut buf, vec![0u8; n as usize]);
                    f.read_all(&mut buf, &memtype, count).unwrap();
                    assert_eq!(buf, want, "rank {} step {t}: read-back differs", rank.rank());
                } else {
                    f.write_all(&buf, &memtype, count).unwrap();
                }
                if t == 0 {
                    rank.barrier();
                    after_first = Some(pfs.stats());
                }
            }
            f.close().unwrap();
            after_first.unwrap()
        })
    };
    let mut base = StatsSnapshot::default();
    if read {
        world(false);
        base = pfs.stats();
    }
    let firsts = world(read);
    assert!(firsts.iter().all(|s| *s == firsts[0]), "ranks saw different call-1 counters");
    let since = |s: StatsSnapshot| StatsSnapshot {
        lock_grants: s.lock_grants - base.lock_grants,
        lock_revocations: s.lock_revocations - base.lock_revocations,
        ..s
    };
    (since(firsts[0]), since(pfs.stats()))
}

#[test]
fn fig7_shape_pfr_plus_alignment_minimizes_lock_traffic() {
    // §6.4: PFR + aligned realms => a realm's lock, once granted, is never
    // revoked; shifting unaligned realms => ping-pong. Stripe == slice
    // size: each step's realm shift crosses exactly one stripe, so every
    // other configuration must re-lock — unaligned PFR at its realm
    // boundaries, the per-call realms wherever the expanding grants of a
    // call's first arrivals reached.
    let spec = TimeStepSpec { elem_size: 32, elems_per_point: 16, points: 64, steps: 8, nprocs: 8 };
    let revocations =
        |pfr, align| timestep_lock_traffic(spec, 512, 4, pfr, align, false).1.lock_revocations;
    assert_eq!(revocations(true, true), 0, "pfr + aligned realms lost a lock");
    let worst = revocations(false, false);
    assert!(worst > 0, "the shifting-unaligned regime must revoke locks");
    assert!(revocations(true, false) > 0, "unaligned persistent realms share boundary stripes");
    assert!(revocations(false, true) > 0, "per-call realms ask ordinarily: grants grow, then fall");
}

/// A geometry in which the persistent realms' period covers the file and
/// the aggregate access region's ends stay inside one stripe over all
/// eight steps (as at the benchmark's scale: 2 MiB stripes against a
/// 3 200 B step), so that an aggregator's realm chunk is the same
/// stripe-rounded extent in every call: 4 aggregators × 64 KiB realms of
/// eight 8 KiB stripes over a 256 KiB file, all four holding data.
const ONCE_SPEC: TimeStepSpec =
    TimeStepSpec { elem_size: 32, elems_per_point: 16, points: 64, steps: 8, nprocs: 8 };
const ONCE_STRIPE: u64 = 8192;
const ONCE_AGGS: usize = 4;

#[test]
fn fig7_shape_pfr_aligned_locks_are_granted_once() {
    // What the flexible write driver's `issue` says of its realm-chunk
    // lock: one grant per aggregator that holds data, all of them in
    // call 1, none revoked in eight calls.
    let (first, last) = timestep_lock_traffic(ONCE_SPEC, ONCE_STRIPE, ONCE_AGGS, true, true, false);
    assert_eq!((first.lock_grants, first.lock_revocations), (ONCE_AGGS as u64, 0));
    assert_eq!((last.lock_grants, last.lock_revocations), (ONCE_AGGS as u64, 0));
    // Nothing was flushed before close, nothing refilled: every cached
    // page lived through all eight calls.
    assert_eq!(last.flush_bytes, ONCE_SPEC.file_bytes());
    // The same realms asked for ordinarily (no PFR) lose locks to each
    // other, call after call.
    let (_, no_pfr) = timestep_lock_traffic(ONCE_SPEC, ONCE_STRIPE, ONCE_AGGS, false, true, false);
    assert!(no_pfr.lock_revocations > 0 && no_pfr.lock_grants > ONCE_AGGS as u64);
}

#[test]
fn fig7_shape_pfr_aligned_read_locks_are_granted_once() {
    // The read direction's twin (the read driver's `issue`): the file is
    // written, then read back in eight collective calls.
    let (first, last) = timestep_lock_traffic(ONCE_SPEC, ONCE_STRIPE, ONCE_AGGS, true, true, true);
    assert_eq!((first.lock_grants, first.lock_revocations), (ONCE_AGGS as u64, 0));
    assert_eq!((last.lock_grants, last.lock_revocations), (ONCE_AGGS as u64, 0));
}

// ---- a replaced realm set's old locks ---------------------------------------

/// A straggler rebalance moves realm boundaries inside a stripe the old
/// owner holds ahead. The geometry is `tests/fault_injection.rs`'s
/// `rebalance_converges_in_one_detection` — three aggregators, one 8 KiB
/// stripe and one OST each, OST 0 eight times slower — with the lock
/// manager on: after the first call aggregator 0 keeps a quarter of its
/// stripe and the other two own the rest of it.
#[test]
fn a_rebalanced_realm_cancels_the_old_owners_ahead_lock() {
    let cfg = PfsConfig {
        n_osts: 3,
        stripe_size: 8192,
        page_size: 64,
        locking: true,
        lock_expansion: true,
        client_cache: false, // the detector times OST I/O; a cache would hide it
        cost: PfsCostModel::default(),
    };
    let hints = Hints {
        engine: Engine::Flexible,
        cb_nodes: Some(3),
        cb_buffer_size: 2048,
        persistent_file_realms: true,
        fr_alignment: Some(2048),
        pipeline_depth: PipelineDepth::Fixed(1),
        ..Hints::default()
    };
    let shape = TiledShape { nprocs: 6, block: 64, reps: 64, steps: 4 };
    let work = |pfs: Arc<Pfs>| {
        let out = run_tiled(&pfs, "slow", shape, &hints, false);
        assert!(out.outcomes.iter().all(|results| results.iter().all(|r| r.is_ok())));
        let rebalanced: u64 = out.sum(|s| s.realms_rebalanced);
        let stats = pfs.stats();
        (read_file(&pfs, "slow"), rebalanced, stats)
    };
    let (image, rebalanced, stats) = work(Pfs::with_faults(cfg, FaultPlan::straggler(0, 8.0)));
    let (oracle, none, calm) = work(Pfs::new(cfg));
    // Undisturbed: one stripe, one ahead grant each, for all four calls.
    assert_eq!((none, calm.lock_grants, calm.lock_revocations), (0, 3, 0));
    // Rebalanced once; from then on stripe 0 has three owners, and each
    // one's request cancels the holder before it.
    assert_eq!(rebalanced, shape.nprocs as u64, "expected one collective rebalance");
    assert!(stats.lock_revocations > 0, "the old owner's lock on stripe 0 was never cancelled");
    assert_eq!(image, oracle, "a cancelled ahead lock cost bytes");
}

/// A crash recovery drops the realm set and re-partitions over the
/// survivors while the dead aggregator still holds its realm ahead — with
/// the only copy of what it wrote there in its client cache. Four ranks,
/// all aggregators, 2 KiB realms of four stripes; rank 1 dies between the
/// two calls; the three survivors' new realms are 3 KiB, so rank 0's grows
/// over the dead rank's.
#[test]
fn a_recovered_realm_cancels_the_dead_owners_ahead_lock() {
    const NPROCS: usize = 4;
    const BLOCK: u64 = 64;
    const REPS: u64 = 32;
    const VICTIM: usize = 1;
    let tile_byte = |rank: usize, gen: u64, i: u64| (rank as u64 * 61 + gen * 17 + i * 3 + 1) as u8;
    let pfs = Pfs::with_faults(
        PfsConfig {
            n_osts: 4,
            stripe_size: 512,
            page_size: 64,
            locking: true,
            lock_expansion: true,
            client_cache: true,
            cost: PfsCostModel::default(),
        },
        FaultPlan::default(),
    );
    let hints = Hints {
        persistent_file_realms: true,
        fr_alignment: Some(512),
        crash_recovery: true,
        watchdog_us: 200_000,
        ..Hints::default()
    };
    let out = run_crashable(NPROCS, CostModel::default(), &[(VICTIM, 500_000_000)], |rank| {
        let me = rank.rank();
        let mut f = MpiFile::open(rank, &pfs, "ck", hints.clone()).unwrap();
        let ftype = Datatype::resized(0, NPROCS as u64 * BLOCK, Datatype::bytes(BLOCK));
        f.set_view(me as u64 * BLOCK, &Datatype::bytes(1), &ftype).unwrap();
        let len = REPS * BLOCK;
        for gen in 0..2u64 {
            let data: Vec<u8> = (0..len).map(|i| tile_byte(me, gen, i)).collect();
            f.write_all(&data, &Datatype::bytes(len), 1).unwrap();
            // The first call is milliseconds; the crash time falls in this
            // pause, so the victim dies at the second call's entry.
            rank.advance_to(1_000_000_000);
        }
        // No `close`: it barriers, and a peer is dead.
    });
    assert!(out[VICTIM].is_none(), "the victim must have crashed");
    assert!(out.iter().enumerate().all(|(r, o)| r == VICTIM || o.is_some()));

    // Call 1: four realms, four ahead grants. Call 2, over the survivors:
    // rank 0's realm [0, 3072) conflicts with the dead rank's [2048, 4096)
    // and cancels it — the one revocation of the run — rank 2's is new
    // ([3072, 6144)), rank 3's old lock still covers its realm.
    let stats = pfs.stats();
    assert_eq!((stats.lock_grants, stats.lock_revocations), (6, 1));
    assert_eq!(stats.flush_bytes, 2048, "the cancellation flushes the dead rank's dirty realm");

    // Survivors' tiles carry the second call's data, the victim's the
    // first's — including those that sat in its cache when it died.
    let image = read_file(&pfs, "ck");
    assert_eq!(image.len() as u64, NPROCS as u64 * BLOCK * REPS);
    for (off, &got) in image.iter().enumerate() {
        let (tile, i) = (off as u64 / BLOCK, off as u64 % BLOCK);
        let owner = (tile % NPROCS as u64) as usize;
        let gen = u64::from(owner != VICTIM);
        let want = tile_byte(owner, gen, tile / NPROCS as u64 * BLOCK + i);
        assert_eq!(got, want, "byte {off} (rank {owner}'s tile {})", tile / NPROCS as u64);
    }
}
