//! Shape tests: the paper's qualitative performance claims must hold in
//! the simulator (who wins, in which regime) — these are the invariants
//! the figure harnesses rely on, checked at miniature scale so they run
//! in CI time.

use flexio::core::{BalancedLoad, Engine, EvenAar, Hints, MpiFile, RealmAssigner};
use flexio::hpio::{HpioSpec, TimeStepSpec, TypeStyle};
use flexio::io::IoMethod;
use flexio::pfs::{Pfs, PfsConfig, PfsCostModel, StatsSnapshot};
use flexio::sim::{run, CostModel};
use flexio::types::Datatype;
use std::sync::Arc;

/// Run an HPIO write and return the max completion time across ranks (ns).
fn hpio_time(spec: HpioSpec, style: TypeStyle, hints: Hints, pfs: &Arc<Pfs>, path: &str) -> u64 {
    let pfs = Arc::clone(pfs);
    let path = path.to_string();
    let times = run(spec.nprocs, CostModel::default(), move |rank| {
        let mut f = MpiFile::open(rank, &pfs, &path, hints.clone()).unwrap();
        let (disp, ftype) = spec.file_view(rank.rank(), style);
        f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
        let buf = spec.make_buffer(rank.rank());
        let t0 = rank.now();
        f.write_all(&buf, &spec.mem_type(), spec.mem_count()).unwrap();
        let t = rank.now() - t0;
        f.close().unwrap();
        rank.allreduce_max(t)
    });
    times[0]
}

fn default_pfs() -> Arc<Pfs> {
    Pfs::new(PfsConfig::default())
}

#[test]
fn fig4_shape_struct_processes_fewer_pairs_than_vector() {
    // §6.2: succinct filetypes let processing skip whole datatypes; the
    // enumerated vector type must be evaluated pair by pair.
    let spec = HpioSpec {
        region_size: 64,
        region_count: 512,
        region_spacing: 128,
        mem_noncontig: true,
        file_noncontig: true,
        nprocs: 8,
    };
    let pairs = |style: TypeStyle| {
        let pfs = default_pfs();
        let out = run(spec.nprocs, CostModel::default(), move |rank| {
            let hints = Hints { cb_nodes: Some(4), ..Hints::default() };
            let mut f = MpiFile::open(rank, &pfs, "f", hints).unwrap();
            let (disp, ftype) = spec.file_view(rank.rank(), style);
            f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
            let buf = spec.make_buffer(rank.rank());
            f.write_all(&buf, &spec.mem_type(), spec.mem_count()).unwrap();
            f.close().unwrap();
            rank.stats().pairs_processed
        });
        out.iter().sum::<u64>()
    };
    let succinct = pairs(TypeStyle::Succinct);
    let enumerated = pairs(TypeStyle::Enumerated);
    assert!(
        enumerated > succinct * 3,
        "enumerated={enumerated} should be >> succinct={succinct}"
    );
}

#[test]
fn fig4_shape_new_struct_beats_new_vector_at_small_regions() {
    // Small regions => datatype processing dominates => struct wins.
    let spec = HpioSpec {
        region_size: 16,
        region_count: 1024,
        region_spacing: 128,
        mem_noncontig: true,
        file_noncontig: true,
        nprocs: 8,
    };
    let hints = Hints { cb_nodes: Some(4), ..Hints::default() };
    let t_struct = hpio_time(spec, TypeStyle::Succinct, hints.clone(), &default_pfs(), "a");
    let t_vector = hpio_time(spec, TypeStyle::Enumerated, hints, &default_pfs(), "b");
    assert!(
        t_struct < t_vector,
        "struct {t_struct} should beat vector {t_vector}"
    );
}

#[test]
fn fig4_shape_old_metadata_volume_exceeds_new_struct() {
    // §5.3: the old engine ships M offset/length pairs; the new engine
    // ships the D-pair filetype. With a succinct type, bytes on the wire
    // for metadata differ by orders of magnitude.
    let spec = HpioSpec {
        region_size: 16,
        region_count: 2048,
        region_spacing: 64,
        mem_noncontig: true,
        file_noncontig: true,
        nprocs: 4,
    };
    let sent_bytes = |engine: Engine, style: TypeStyle| {
        let pfs = default_pfs();
        let out = run(spec.nprocs, CostModel::default(), move |rank| {
            // Zero-byte payload isolation: measure a *tiny* region so data
            // bytes are negligible next to metadata.
            let hints = Hints { engine, cb_nodes: Some(4), ..Hints::default() };
            let mut f = MpiFile::open(rank, &pfs, "f", hints).unwrap();
            let (disp, ftype) = spec.file_view(rank.rank(), style);
            f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
            let buf = spec.make_buffer(rank.rank());
            f.write_all(&buf, &spec.mem_type(), spec.mem_count()).unwrap();
            f.close().unwrap();
            rank.stats().bytes_sent
        });
        out.iter().sum::<u64>()
    };
    let old = sent_bytes(Engine::Romio, TypeStyle::Enumerated);
    let new_struct = sent_bytes(Engine::Flexible, TypeStyle::Succinct);
    // Both move the same data; the old engine adds 16 B * M of metadata.
    let data = spec.aggregate_bytes();
    let old_meta = old.saturating_sub(data);
    let new_meta = new_struct.saturating_sub(data);
    assert!(
        old_meta > new_meta * 4,
        "old metadata {old_meta} should dwarf new+struct {new_meta}"
    );
}

#[test]
fn fig5_shape_sieve_wins_small_extent_naive_wins_large() {
    // §6.3: conditional data sieving — the datatype extent decides.
    let mk_spec = |region: u64, extent: u64, nprocs: usize| HpioSpec {
        region_size: region,
        region_count: 64,
        region_spacing: extent - region,
        mem_noncontig: false,
        file_noncontig: true,
        nprocs,
    };
    let time_with = |spec: HpioSpec, method: IoMethod, path: &str| {
        let hints = Hints { io_method: method, cb_nodes: Some(2), ..Hints::default() };
        hpio_time(spec, TypeStyle::Succinct, hints, &default_pfs(), path)
    };
    // 1 KiB extent, 50% useful: sieve should win.
    let spec_small = mk_spec(512, 1024, 4);
    let sieve_small = time_with(spec_small, IoMethod::DataSieve { buffer: 512 << 10 }, "s1");
    let naive_small = time_with(spec_small, IoMethod::Naive, "n1");
    assert!(
        sieve_small < naive_small,
        "1K extent: sieve {sieve_small} should beat naive {naive_small}"
    );
    // 64 KiB extent, 50% useful: naive should win.
    let spec_large = mk_spec(32 << 10, 64 << 10, 4);
    let sieve_large = time_with(spec_large, IoMethod::DataSieve { buffer: 512 << 10 }, "s2");
    let naive_large = time_with(spec_large, IoMethod::Naive, "n2");
    assert!(
        naive_large < sieve_large,
        "64K extent: naive {naive_large} should beat sieve {sieve_large}"
    );
    // The conditional picks the winner in both regimes.
    let cond = IoMethod::Conditional { extent_threshold: 16 << 10, sieve_buffer: 512 << 10 };
    let cond_small = time_with(spec_small, cond, "c1");
    let cond_large = time_with(spec_large, cond, "c2");
    assert!(cond_small <= naive_small);
    assert!(cond_large <= sieve_large);
}

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
        fr_alignment: align.then_some(stripe),
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
    let spec = TimeStepSpec {
        elem_size: 32,
        elems_per_point: 16,
        points: 64,
        steps: 8,
        nprocs: 8,
    };
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
    // What `flexible.rs::issue_write` says of its realm-chunk lock: one
    // grant per aggregator that holds data, all of them in call 1, none
    // revoked in eight calls.
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
    // The read direction's twin (`issue_read`): the file is written, then
    // read back in eight collective calls.
    let (first, last) = timestep_lock_traffic(ONCE_SPEC, ONCE_STRIPE, ONCE_AGGS, true, true, true);
    assert_eq!((first.lock_grants, first.lock_revocations), (ONCE_AGGS as u64, 0));
    assert_eq!((last.lock_grants, last.lock_revocations), (ONCE_AGGS as u64, 0));
}

#[test]
fn fig7_shape_pfr_alignment_fastest_overall() {
    // Data sieving is always on in the paper's PFR experiment (§6.4): the
    // aggregator writes one contiguous sieve span per cycle, so the lock
    // manager sees realm-shaped extents. Realm boundaries shift by one
    // slice per step, so unaligned configurations keep crossing stripes.
    let spec = TimeStepSpec {
        elem_size: 32,
        elems_per_point: 16,
        points: 64,
        steps: 8,
        nprocs: 8,
    };
    let time_for = |pfr: bool, align: bool| {
        // Stripe == slice size: each step's realm shift crosses exactly
        // one stripe, so unaligned/shifting configurations must re-lock.
        let pfs = Pfs::new(PfsConfig {
            n_osts: 4,
            stripe_size: 512,
            page_size: 64,
            locking: true,
            lock_expansion: true,
            client_cache: true,
            cost: PfsCostModel::default(),
        });
        let out = run(spec.nprocs, CostModel::default(), move |rank| {
            let hints = Hints {
                persistent_file_realms: pfr,
                fr_alignment: align.then_some(512),
                cb_nodes: Some(4),
                io_method: IoMethod::DataSieve { buffer: 512 << 10 },
                ..Hints::default()
            };
            let mut f = MpiFile::open(rank, &pfs, "ts", hints).unwrap();
            let t0 = rank.now();
            for t in 0..spec.steps {
                let (disp, ftype) = spec.file_view(rank.rank(), t);
                f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
                let buf = spec.make_buffer(rank.rank(), t);
                let n = buf.len() as u64;
                f.write_all(&buf, &Datatype::bytes(n.max(1)), (n > 0) as u64).unwrap();
            }
            let elapsed = rank.now() - t0;
            f.close().unwrap();
            rank.allreduce_max(elapsed)
        });
        out[0]
    };
    // Best-of-3, like the paper's best-of-5 on a shared file system.
    let both = (0..3).map(|_| time_for(true, true)).min().unwrap();
    let neither = (0..3).map(|_| time_for(false, false)).min().unwrap();
    assert!(
        both < neither,
        "pfr+align {both} should beat neither {neither}"
    );
}

#[test]
fn ablation_balanced_realms_beat_even_on_clustered_access() {
    // §7 future work: sparse clusters make the even AAR split imbalanced.
    // Each rank's data is one stripe-sized cluster near the file start;
    // a single straggler byte at 1 GiB stretches the AAR so the even
    // split leaves all real data in aggregator 0's realm. Locking and
    // client caching are off: the claim under test is aggregator load
    // balance, and DLM revocation timing (±1.5 ms per event, wall-clock
    // service order dependent) would otherwise drown the signal.
    let nprocs = 4;
    let cluster: u64 = 64 << 10; // = one stripe (custom small-stripe fs)
    let time_with = |assigner: Arc<dyn RealmAssigner>| {
        let pfs = Pfs::new(PfsConfig {
            n_osts: 4,
            stripe_size: 64 << 10,
            page_size: 4096,
            locking: false,
            lock_expansion: false,
            client_cache: false,
            ..PfsConfig::default()
        });
        let out = run(nprocs, CostModel::default(), move |rank| {
            let hints = Hints {
                realm_assigner: Some(Arc::clone(&assigner)),
                cb_nodes: Some(4),
                ..Hints::default()
            };
            let mut f = MpiFile::open(rank, &pfs, "cl", hints).unwrap();
            let bt = Datatype::bytes(1);
            if rank.rank() == 0 {
                let ft = Datatype::hindexed(
                    vec![(0, cluster), (64 << 20, 1)],
                    Datatype::bytes(1),
                );
                f.set_view(0, &bt, &ft).unwrap();
                let data = vec![7u8; cluster as usize + 1];
                let t0 = rank.now();
                f.write_all(&data, &Datatype::bytes(cluster + 1), 1).unwrap();
                let el = rank.now() - t0;
                f.close().unwrap();
                rank.allreduce_max(el)
            } else {
                let ft = Datatype::bytes(cluster);
                f.set_view(rank.rank() as u64 * cluster, &bt, &ft).unwrap();
                let data = vec![7u8; cluster as usize];
                let t0 = rank.now();
                f.write_all(&data, &Datatype::bytes(cluster), 1).unwrap();
                let el = rank.now() - t0;
                f.close().unwrap();
                rank.allreduce_max(el)
            }
        });
        out[0]
    };
    let even = time_with(Arc::new(EvenAar));
    let balanced = time_with(Arc::new(BalancedLoad));
    assert!(
        balanced < even,
        "balanced {balanced} should beat even {even} on clustered access"
    );
}
