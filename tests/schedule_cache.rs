//! Exchange-schedule & flatten cache tests: replayed schedules must move
//! exactly the bytes a fresh derivation would move, the first call must
//! charge exactly what a call after `set_hints` charges, and
//! repeat calls under persistent file realms must charge measurably less.

use flexio::core::engine::ExchangeSchedule;
use flexio::core::{Hints, MpiFile};
use flexio::pfs::{Pfs, PfsConfig, PfsCostModel};
use flexio::sim::{run, CostModel, Stats};
use flexio::types::{flatten_shared, Datatype};
use flexio::workload::{checkpoint_spec, eq_padded, read_file, step_data, Oracle};
use std::sync::Arc;

const BLOCK: u64 = 64;

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

/// Checkpoint-overwrite workload: one interleaved view set once, then
/// `steps` collective writes of fresh data to the same region — the
/// steady-state pattern the schedule cache is built for. With `uncached`
/// every write follows a `set_hints` of the same hints, which drops the
/// cached schedule. Returns each rank's per-call cumulative [`Stats`]
/// snapshots (one *before* the first call, then one after each call).
fn checkpoint_write(
    pfs: &Arc<Pfs>,
    path: &str,
    (nprocs, blocks, steps): (usize, u64, u64),
    hints: Hints,
    uncached: bool,
) -> Vec<Vec<Stats>> {
    let pfs = Arc::clone(pfs);
    let path = path.to_string();
    run(nprocs, CostModel::default(), move |rank| {
        let mut f = MpiFile::open(rank, &pfs, &path, hints.clone()).unwrap();
        let block = Datatype::bytes(BLOCK);
        let ftype = Datatype::resized(0, nprocs as u64 * BLOCK, block);
        f.set_view(rank.rank() as u64 * BLOCK, &Datatype::bytes(1), &ftype).unwrap();
        let len = (blocks * BLOCK) as usize;
        let mut snaps = vec![rank.stats()];
        for s in 0..steps {
            if uncached {
                f.set_hints(hints.clone()).unwrap();
            }
            let data = step_data(rank.rank(), s, len);
            f.write_all(&data, &Datatype::bytes(len as u64), 1).unwrap();
            snaps.push(rank.stats());
        }
        f.close().unwrap();
        snaps
    })
}

fn pairs_per_call(snaps: &[Stats]) -> Vec<u64> {
    snaps.windows(2).map(|w| w[1].pairs_processed - w[0].pairs_processed).collect()
}

#[test]
fn cached_replay_byte_identical_to_uncached() {
    // Same data sequence with the schedule replayed and with `set_hints`
    // dropping it before every call: the final file images must match
    // byte for byte (calls 2..N replay the cached schedule against fresh
    // user buffers).
    let (nprocs, blocks, steps) = (8, 24, 6);
    let image = |uncached: bool| {
        let pfs = test_pfs();
        checkpoint_write(&pfs, "ckpt", (nprocs, blocks, steps), Hints::default(), uncached);
        read_file(&pfs, "ckpt")
    };
    let cached = image(false);
    let uncached = image(true);
    assert_eq!(cached.len(), uncached.len());
    assert_eq!(cached, uncached, "cached replay changed the bytes on disk");
    // And both must hold the *last* step's stamps in the right slots.
    for r in 0..nprocs {
        let want = step_data(r, steps - 1, (blocks * BLOCK) as usize);
        for b in 0..blocks {
            let off = (b * nprocs as u64 * BLOCK + r as u64 * BLOCK) as usize;
            let src = (b * BLOCK) as usize;
            assert_eq!(
                &cached[off..off + BLOCK as usize],
                &want[src..src + BLOCK as usize],
                "rank {r} block {b} corrupted"
            );
        }
    }
}

#[test]
fn first_call_pairs_match_cache_off() {
    // Call 1 is always a miss: it must charge exactly what a call whose
    // schedule `set_hints` has just dropped charges — the uncached arm,
    // now that the cache has no off switch — on every rank (the probe is
    // only paid on hits). Both count one miss and no hit.
    let (nprocs, blocks) = (8, 16);
    let hints = Hints { persistent_file_realms: true, cb_nodes: Some(4), ..Hints::default() };
    let stats_for = |uncached: bool| {
        checkpoint_write(&test_pfs(), "one", (nprocs, blocks, 1), hints.clone(), uncached)
    };
    let on = stats_for(false);
    let off = stats_for(true);
    for r in 0..nprocs {
        assert_eq!(
            pairs_per_call(&on[r]),
            pairs_per_call(&off[r]),
            "rank {r}: first-call pair charges differ with the schedule kept"
        );
        for last in [on[r].last().unwrap(), off[r].last().unwrap()] {
            assert_eq!(last.schedule_cache_hits, 0, "rank {r}: a single call cannot hit");
            assert_eq!(last.schedule_cache_misses, 1, "rank {r}: call 1 derives");
        }
    }
}

#[test]
fn later_calls_charge_fewer_pairs_under_pfr() {
    // The tentpole claim: with persistent file realms and a fixed view,
    // calls 2..N skip the whole stream re-derivation and charge only the
    // metadata exchange plus one probe pair.
    let (nprocs, blocks, steps) = (8, 24, 5);
    let pfs = test_pfs();
    let hints = Hints { persistent_file_realms: true, cb_nodes: Some(4), ..Hints::default() };
    let snaps = checkpoint_write(&pfs, "pfr", (nprocs, blocks, steps), hints, false);
    for (r, snap) in snaps.iter().enumerate() {
        let per_call = pairs_per_call(snap);
        assert_eq!(per_call.len(), steps as usize);
        for (i, &p) in per_call.iter().enumerate().skip(1) {
            assert!(
                p < per_call[0],
                "rank {r} call {}: {p} pairs, not below first-call {}",
                i + 1,
                per_call[0]
            );
        }
        let last = snap.last().unwrap();
        assert_eq!(last.schedule_cache_misses, 1, "rank {r}: only call 1 derives");
        assert_eq!(last.schedule_cache_hits, steps - 1, "rank {r}: calls 2..N must hit");
    }
}

#[test]
fn view_change_invalidates_schedule() {
    // set_view drops the cached schedule: a shifted view must re-derive
    // (miss), not replay stale windows.
    let nprocs = 4;
    let pfs = test_pfs();
    let stats = run(nprocs, CostModel::default(), move |rank| {
        let f_hints = Hints { persistent_file_realms: true, ..Hints::default() };
        let mut f = MpiFile::open(rank, &pfs, "mv", f_hints).unwrap();
        let block = Datatype::bytes(BLOCK);
        let ftype = Datatype::resized(0, nprocs as u64 * BLOCK, block);
        let data = step_data(rank.rank(), 0, (4 * BLOCK) as usize);
        for step in 0..2u64 {
            let disp = step * nprocs as u64 * 4 * BLOCK + rank.rank() as u64 * BLOCK;
            f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
            f.write_all(&data, &Datatype::bytes(data.len() as u64), 1).unwrap();
        }
        f.close().unwrap();
        rank.stats()
    });
    for s in &stats {
        assert_eq!(s.schedule_cache_hits, 0, "shifted view must not hit");
        assert_eq!(s.schedule_cache_misses, 2);
    }
}

#[test]
fn read_replay_returns_correct_bytes() {
    // The schedule is direction-agnostic: a read with the same view and
    // extent replays the schedule derived by the write, and repeated reads
    // hit again. Every replay must scatter the right bytes.
    let (nprocs, blocks) = (8, 16);
    let pfs = test_pfs();
    let hints = Hints { persistent_file_realms: true, cb_nodes: Some(4), ..Hints::default() };
    let stats = {
        let pfs = Arc::clone(&pfs);
        run(nprocs, CostModel::default(), move |rank| {
            let mut f = MpiFile::open(rank, &pfs, "rd", hints.clone()).unwrap();
            let block = Datatype::bytes(BLOCK);
            let ftype = Datatype::resized(0, nprocs as u64 * BLOCK, block);
            f.set_view(rank.rank() as u64 * BLOCK, &Datatype::bytes(1), &ftype).unwrap();
            let want = step_data(rank.rank(), 0, (blocks * BLOCK) as usize);
            f.write_all(&want, &Datatype::bytes(want.len() as u64), 1).unwrap();
            for _ in 0..2 {
                let mut got = vec![0u8; want.len()];
                f.read_all(&mut got, &Datatype::bytes(want.len() as u64), 1).unwrap();
                assert_eq!(got, want, "rank {} read back wrong bytes", rank.rank());
            }
            f.close().unwrap();
            rank.stats()
        })
    };
    for s in &stats {
        assert_eq!(s.schedule_cache_misses, 1, "only the write derives");
        assert_eq!(s.schedule_cache_hits, 2, "both reads replay the schedule");
    }
}

#[test]
fn repeated_set_view_hits_flatten_cache() {
    // Equal filetypes flatten once per file: the second set_view of a
    // structurally equal type shares the Arc'd FlatType and charges a
    // single probe pair instead of D. The file owns its flattenings: the
    // same type's first view on a second file is a miss charged D pairs,
    // and a host-side `flatten_shared` inside the rank warms no file.
    let nprocs = 4;
    let pfs = test_pfs();
    // `k` blocks of BLOCK bytes per rank per tile: D = k pairs.
    let mk = move |k: u64| {
        let blocks =
            Datatype::hvector(k, 1, (nprocs as u64 * BLOCK) as i64, Datatype::bytes(BLOCK));
        Datatype::resized(0, k * nprocs as u64 * BLOCK, blocks)
    };
    let stats = run(nprocs, CostModel::default(), move |rank| {
        // (hit, pairs charged) of one set_view.
        let view = |f: &mut MpiFile, t: &Datatype| {
            let before = rank.stats();
            f.set_view(rank.rank() as u64 * BLOCK, &Datatype::bytes(1), t).unwrap();
            let after = rank.stats();
            (
                after.flatten_cache_hits > before.flatten_cache_hits,
                after.pairs_processed - before.pairs_processed,
            )
        };
        let mut f = MpiFile::open(rank, &pfs, "fl", Hints::default()).unwrap();
        let first = view(&mut f, &mk(2));
        // A *new* but structurally equal Datatype value: content hit.
        let repeat = view(&mut f, &mk(2));
        let mut g = MpiFile::open(rank, &pfs, "fl2", Hints::default()).unwrap();
        let second_file = view(&mut g, &mk(2));
        flatten_shared(&mk(3));
        let after_shared = view(&mut g, &mk(3));
        f.close().unwrap();
        g.close().unwrap();
        [first, repeat, second_file, after_shared]
    });
    for views in &stats {
        let [first, repeat, second_file, after_shared] = *views;
        assert_eq!(first, (false, 2), "a type's first view on a file is a miss charged D pairs");
        assert_eq!(repeat, (true, 1), "a flatten hit charges one probe pair");
        assert_eq!(second_file, (false, 2), "another file's flattening is not this file's");
        assert_eq!(after_shared, (false, 3), "flatten_shared warms no file's cache");
    }
}

#[test]
fn cache_disabled_never_counts() {
    // `set_hints` before every call is the uncached arm: it never counts a
    // hit, every call counts one miss and charges the full derivation, so
    // under PFR with a fixed view every call does identical work.
    let (nprocs, blocks, steps) = (4, 8, 3);
    let hints = Hints { persistent_file_realms: true, ..Hints::default() };
    let snaps = checkpoint_write(&test_pfs(), "off", (nprocs, blocks, steps), hints, true);
    for (r, snap) in snaps.iter().enumerate() {
        let per_call = pairs_per_call(snap);
        assert!(per_call.windows(2).all(|w| w[0] == w[1]), "rank {r}: {per_call:?}");
        for (call, w) in snap.windows(2).enumerate() {
            let misses = w[1].schedule_cache_misses - w[0].schedule_cache_misses;
            let hits = w[1].schedule_cache_hits - w[0].schedule_cache_hits;
            assert_eq!((misses, hits), (1, 0), "rank {r} call {}", call + 1);
        }
    }
}

/// The cycle order a derivation picks depends on how the file is striped
/// (DESIGN "Buffer-cycle order across OSTs"), so the striping is part of
/// the world-shared derivation's cell: two files viewed alike in one
/// world but striped differently keep one derivation each. Four writers
/// of six 64-byte tiles, two aggregators in 128-byte windows: on 4 OSTs
/// of 64-byte stripes the second realm runs rotated by a window, on one
/// OST in file order (`schedule.rs`'s
/// `the_two_striping_worlds_shape_reorders_on_four_osts_only`).
#[test]
fn files_striped_differently_keep_their_own_derivations() {
    let spec = checkpoint_spec(5, 4, 64, 6, 1);
    let phase = spec.phases[0].clone();
    let hints = Hints { cb_nodes: Some(2), cb_buffer_size: 128, ..Hints::default() };
    let striped = PfsConfig { n_osts: 4, stripe_size: 64, page_size: 16, ..PfsConfig::default() };
    let pfs = [Pfs::new(striped), Pfs::new(PfsConfig { n_osts: 1, ..striped })];
    let (inner, plans) = (pfs.clone(), phase.plans.clone());
    run(phase.nprocs, CostModel::default(), move |rank| {
        let plan = &plans[rank.rank()];
        let mut files: Vec<MpiFile> = inner
            .iter()
            .map(|pfs| MpiFile::open(rank, pfs, "ckpt", hints.clone()).unwrap())
            .collect();
        for f in &mut files {
            f.set_view(plan.disp, &Datatype::bytes(1), &plan.filetype).unwrap();
            f.write_all_at(plan.offset_etypes, &plan.step_buffer(0), &plan.memtype, plan.mem_count)
                .unwrap();
        }
        assert_eq!(ExchangeSchedule::derivations_live(rank), 2, "one derivation per striping");
        files.into_iter().for_each(|f| f.close().unwrap());
    });
    let mut oracle = Oracle::new();
    phase.plans.iter().for_each(|plan| oracle.apply_write(plan, 0));
    for pfs in &pfs {
        assert!(
            eq_padded(&read_file(pfs, "ckpt"), oracle.image()),
            "{:?}: image diverged",
            pfs.config()
        );
    }
}
