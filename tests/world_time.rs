//! Virtual time belongs to a world (DESIGN "Virtual-time model"): every
//! world's ranks start at 0, and so does every OST the world finds — the
//! first collective open of a newer world (`Pfs::enter_world`) idles
//! them. Neither an earlier world nor set-up done outside any world on a
//! bare handle (a pre-sizing write, a `read_file` probe) queues work
//! ahead of it.
//!
//! What a Lustre client keeps — seek positions, locks, caches — persists.
//! The set-up's handles are never closed, so their locks and dirty pages
//! stay until a world revokes them; a world closes its file and so leaves
//! none. Two worlds are therefore compared only where they start from the
//! same lock and cache state: both right after the set-up, or both right
//! after a world.
//!
//! The same collective write-then-read world runs four times on one file
//! system with locks, lock expansion and client caches on, for both
//! engines: after the set-up, after the set-up again, and twice straight
//! after itself. Each pair must give every rank the same clock and the
//! same `Stats`, and book the same OST requests, seeks, lock revocations
//! and cache fills.

use flexio::core::{Engine, Hints, MpiFile};
use flexio::hpio::{HpioSpec, TypeStyle};
use flexio::pfs::{Pfs, PfsConfig, StatsSnapshot};
use flexio::sim::{run, CostModel, Stats};
use flexio::types::Datatype;
use flexio::workload::read_file;
use std::sync::Arc;

const PATH: &str = "world-time";

/// Interleaved 1000-byte regions: every aggregator window has partial
/// pages, so the cached write fills and the locks expand and revoke.
const SPEC: HpioSpec = HpioSpec {
    region_size: 1000,
    region_count: 24,
    region_spacing: 24,
    mem_noncontig: true,
    file_noncontig: true,
    nprocs: 8,
};

fn locking_pfs() -> Arc<Pfs> {
    Pfs::new(PfsConfig {
        stripe_size: 16 << 10,
        page_size: 4096,
        locking: true,
        lock_expansion: true,
        client_cache: true,
        ..PfsConfig::default()
    })
}

/// Out-of-world set-up on a bare handle: a pre-sizing write of the whole
/// file at time 0, as the bench's E2 does, then a `read_file` probe.
fn set_up(pfs: &Arc<Pfs>) {
    let h = pfs.open(PATH, usize::MAX - 2);
    h.write(0, 0, &vec![0xAA; (SPEC.aggregate_bytes() + 4096) as usize]).unwrap();
    let _ = read_file(pfs, PATH);
}

/// One world: open, view, write the stamped buffer, read it back, close.
/// Returns every rank's clock and counters, and the OST requests, seeks,
/// lock revocations and cache fills the world booked on the file system.
fn world(pfs: &Arc<Pfs>, engine: Engine) -> (Vec<(u64, Stats)>, [u64; 4]) {
    let counts = |s: StatsSnapshot| [s.ost_requests, s.seeks, s.lock_revocations, s.cache_fills];
    let before = counts(pfs.stats());
    let hints = Hints { engine, cb_nodes: Some(3), cb_buffer_size: 8 << 10, ..Hints::default() };
    let per_rank = run(SPEC.nprocs, CostModel::default(), |rank| {
        let mut f = MpiFile::open(rank, pfs, PATH, hints.clone()).unwrap();
        let (disp, ftype) = SPEC.file_view(rank.rank(), TypeStyle::Succinct);
        f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
        let data = SPEC.make_buffer(rank.rank());
        f.write_all(&data, &SPEC.mem_type(), SPEC.mem_count()).unwrap();
        let mut back = vec![0u8; data.len()];
        f.read_all(&mut back, &SPEC.mem_type(), SPEC.mem_count()).unwrap();
        assert_eq!(back, data, "rank {}: read-back differs", rank.rank());
        f.close().unwrap();
        (rank.now(), rank.stats())
    });
    (per_rank, std::array::from_fn(|i| counts(pfs.stats())[i] - before[i]))
}

#[test]
fn identical_worlds_in_sequence_see_the_same_file_system() {
    for engine in [Engine::Flexible, Engine::Romio] {
        let pfs = locking_pfs();
        set_up(&pfs);
        let first = world(&pfs, engine);
        set_up(&pfs);
        let after_set_up = world(&pfs, engine);
        let third = world(&pfs, engine);
        let fourth = world(&pfs, engine);
        assert!(first.0.iter().all(|&(clock, _)| clock > 0), "{engine:?}: a world took no time");
        assert!(first.1[2] > 0 && first.1[3] > 0, "{engine:?}: no revocation or no cache fill");
        assert_eq!(
            after_set_up, first,
            "{engine:?}: the first world or the set-up reached the next world"
        );
        assert_eq!(fourth, third, "{engine:?}: a world paid the one before it");
        assert_eq!(SPEC.verify(&read_file(&pfs, PATH)), Ok(()), "{engine:?}");
    }
}
