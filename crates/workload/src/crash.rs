//! Crash-checkpoint scenario family: seeded rank crashes inside an
//! epoch-committed checkpoint sequence, plus its verification battery.
//!
//! The scenario is the checkpoint/restart loop an epoch-commit protocol
//! exists for. `clean_epochs` generations write the interleaved tile
//! image into alternating shadow slot files ([`epoch::slot_path`]) and
//! publish each one through the double-slot header
//! ([`epoch::commit_epoch`], rank 0, after a barrier proves every
//! writer's data is durably down). Then one more generation runs with a
//! seeded crash armed: the victim rank dies at its first crash
//! checkpoint at or past the drawn virtual time.
//!
//! * With `flexio_crash_recovery=enable`, the survivors detect the
//!   death, re-form, replay, and complete; the epoch is published as a
//!   *survivor checkpoint* — its survivor tiles byte-identical to a
//!   fault-free run over the surviving ranks (the victim's tile range is
//!   dead state and is masked out of every comparison).
//! * With recovery disabled, every survivor returns the *same*
//!   [`IoError::RanksFailed`] verdict — collective error agreement, not
//!   a hang — the epoch is never published, and the header still names
//!   the previous generation, whose slot file the crashed run never
//!   touched.
//!
//! Either way a restart family — a fresh world over the survivors —
//! reads the header, opens the named slot, and sees a complete old or
//! new checkpoint, never a torn mix. That is the property the
//! crash-point fuzz axis (`tests/workload_fuzz.rs`) drives across drawn
//! crash times, victims, world sizes, and torn-header rates.

use crate::epoch;
use crate::gen::{coin, range};
use crate::oracle::{eq_padded, Oracle};
use crate::spec::{partition_plans, tile_plans};
use crate::tiled::read_file;
use flexio_core::{Engine, Hints, IoError, MpiFile};
use flexio_pfs::{FaultPlan, FileHandle, Pfs, PfsConfig, PfsCostModel, PfsErrorKind};
use flexio_sim::{run_crashable, CostModel, Phase, Stats, XorShift64Star};
use flexio_types::Datatype;
use std::sync::Arc;

/// Checkpoint-family base name; slots are `ckpt.slot{0,1}`, the header
/// is `ckpt.epoch`.
const BASE: &str = "ckpt";
/// Client id of the out-of-world commit/probe handle on the header file
/// (far above any rank id; `usize::MAX - 1` is taken by [`read_file`]).
const COMMIT_CLIENT: usize = usize::MAX - 2;
/// Base client id for per-rank header reads in the restart world.
const HDR_CLIENT_BASE: usize = 1 << 40;

/// One drawn crash-checkpoint case: the checkpoint shape, the crash
/// event, and the recovery switches.
#[derive(Debug, Clone)]
pub struct CrashScenario {
    /// Seed for tile data (and the PFS fault plan).
    pub seed: u64,
    /// World size of every write generation.
    pub nprocs: usize,
    /// Bytes per interleaved tile.
    pub block: u64,
    /// Tiles per rank per generation.
    pub reps: u64,
    /// Generations committed cleanly before the crash generation.
    pub clean_epochs: u64,
    /// `cb_nodes` for every collective.
    pub aggs: usize,
    /// Rank killed in the crash generation.
    pub victim: usize,
    /// Virtual time past which the victim's next crash checkpoint is
    /// fatal (a time past the run's end means the victim survives).
    pub at_ns: u64,
    /// `flexio_crash_recovery`.
    pub recovery: bool,
    /// `flexio_watchdog_us`.
    pub watchdog_us: u64,
    /// Torn-write rate for the PFS plan (tears the header publishes and
    /// the data path; retries heal both).
    pub torn_rate: f64,
}

impl CrashScenario {
    /// Total data bytes of one generation's tile image.
    pub fn image_bytes(&self) -> u64 {
        self.nprocs as u64 * self.block * self.reps
    }

    fn hints(&self) -> Hints {
        Hints {
            engine: Engine::Flexible,
            cb_nodes: Some(self.aggs),
            cb_buffer_size: 1024,
            crash_recovery: self.recovery,
            watchdog_us: self.watchdog_us,
            io_retries: 12,
            retry_backoff_us: 20,
            ..Hints::default()
        }
    }

    fn fault_plan(&self) -> FaultPlan {
        FaultPlan { seed: self.seed, torn_rate: self.torn_rate, ..FaultPlan::default() }
    }
}

/// What one rank of one world produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankRecord {
    /// Final virtual clock.
    pub clock: u64,
    /// Counter snapshot.
    pub stats: Stats,
    /// The collective's outcome.
    pub outcome: Result<(), IoError>,
}

/// One generation's per-rank records; `None` marks a crash-stopped rank.
pub type WorldResult = Vec<Option<RankRecord>>;

/// The restart family's results: per-rank header verdicts, records, and
/// the slot bytes each reader brought back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartResult {
    /// Committed generation each reader recovered from the header.
    pub gens: Vec<Option<u64>>,
    /// Per-rank clock/stats/outcome.
    pub records: Vec<RankRecord>,
    /// Per-rank slot read-backs (contiguous partition, in rank order).
    pub read_backs: Vec<Vec<u8>>,
}

/// Everything one crash-checkpoint run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashOutcome {
    /// Per-generation worlds, the crash generation last.
    pub epochs: Vec<WorldResult>,
    /// Ranks alive after the crash generation, ascending.
    pub survivors: Vec<usize>,
    /// Generation the header names after everything settled.
    pub committed: Option<u64>,
    /// Raw bytes of the committed generation's slot file (empty when no
    /// generation was ever committed).
    pub committed_image: Vec<u8>,
    /// The restart family's results.
    pub restart: RestartResult,
}

/// Draw one crash-checkpoint case. Shrinking lands near the floors:
/// fewer ranks, smaller tiles, zero clean epochs, an entry-time crash.
pub fn generate_crash(rng: &mut XorShift64Star) -> CrashScenario {
    let nprocs = range(rng, 2, 6) as usize;
    CrashScenario {
        seed: rng.next_u64(),
        nprocs,
        block: 8 * range(rng, 1, 8),
        reps: range(rng, 1, 8),
        clean_epochs: range(rng, 0, 3),
        aggs: 1 + (rng.next_u64() as usize) % nprocs,
        victim: (rng.next_u64() as usize) % nprocs,
        at_ns: range(rng, 0, 2_000_000),
        recovery: coin(rng),
        watchdog_us: 200_000,
        torn_rate: if coin(rng) { (rng.next_u64() % 200) as f64 / 1000.0 } else { 0.0 },
    }
}

/// The engine-free expected tile image of generation `gen`, restricted
/// to the given writers (pass all ranks for a full checkpoint, the
/// survivors for a survivor checkpoint).
pub fn expected_epoch_image(scn: &CrashScenario, gen: u64, writers: &[usize]) -> Vec<u8> {
    let plans = tile_plans(scn.seed, scn.nprocs, scn.block, scn.reps);
    let mut o = Oracle::new();
    for &r in writers {
        o.apply_write(&plans[r], gen);
    }
    o.image().to_vec()
}

/// Publish `gen` on the header, retrying torn publishes until the
/// record lands whole. Returns the completion time.
fn commit_retrying(hdr: &FileHandle, mut t: u64, gen: u64) -> u64 {
    for _ in 0..64 {
        match epoch::commit_epoch(hdr, t, gen) {
            Ok(fin) => return fin,
            Err(e) => {
                assert_eq!(e.kind, PfsErrorKind::TornWrite, "header path only tears");
                t = e.at;
            }
        }
    }
    panic!("epoch {gen} publish failed to land within 64 retries");
}

/// Run one crash-checkpoint case end to end: clean generations, the
/// crash generation, the commit decision, and the restart family.
pub fn run_crash_checkpoint(scn: &CrashScenario) -> CrashOutcome {
    assert!(scn.victim < scn.nprocs, "victim must be a world rank");
    let pfs = Pfs::with_faults(
        PfsConfig {
            n_osts: 4,
            stripe_size: 512,
            page_size: 64,
            locking: false,
            lock_expansion: false,
            client_cache: false,
            cost: PfsCostModel::default(),
        },
        scn.fault_plan(),
    );
    let plans = Arc::new(tile_plans(scn.seed, scn.nprocs, scn.block, scn.reps));
    let hints = scn.hints();

    let mut epochs: Vec<WorldResult> = Vec::new();
    let mut committed: Option<u64> = None;
    for gen in 0..=scn.clean_epochs {
        let crash_world = gen == scn.clean_epochs;
        let schedule = if crash_world { vec![(scn.victim, scn.at_ns)] } else { Vec::new() };
        let path = epoch::slot_path(BASE, gen);
        let inner = Arc::clone(&pfs);
        let plans = Arc::clone(&plans);
        let hints = hints.clone();
        let per = run_crashable(scn.nprocs, CostModel::default(), &schedule, move |rank| {
            let p = &plans[rank.rank()];
            let mut f = MpiFile::open(rank, &inner, &path, hints.clone())
                .expect("hints validated by construction");
            f.set_view(p.disp, &Datatype::bytes(1), &p.filetype)
                .expect("tile filetype must form a valid view");
            let outcome = f.write_all_at(0, &p.step_buffer(gen), &p.memtype, p.mem_count);
            // Clean generations publish in-world: the barrier proves
            // every writer's data is durably down, then rank 0 commits.
            // The crash world must not barrier — a dead peer would hang
            // it — so its commit decision moves to the driver, over the
            // survivor verdict. (No `close()` either: it barriers too.)
            if !crash_world {
                outcome.as_ref().expect("clean generation writes must succeed");
                rank.barrier();
                if rank.rank() == 0 {
                    let hdr = inner.open(&epoch::header_path(BASE), COMMIT_CLIENT);
                    let t0 = rank.now();
                    rank.advance_to(commit_retrying(&hdr, t0, gen));
                    rank.note_phase(Phase::Io, rank.now() - t0);
                }
            }
            (rank.now(), rank.stats(), outcome)
        });
        if !crash_world {
            committed = Some(gen);
        }
        epochs.push(
            per.into_iter()
                .map(|r| r.map(|(clock, stats, outcome)| RankRecord { clock, stats, outcome }))
                .collect(),
        );
    }

    let gen = scn.clean_epochs;
    let last = epochs.last().expect("at least the crash generation ran");
    let survivors: Vec<usize> = (0..scn.nprocs).filter(|&r| last[r].is_some()).collect();
    let all_ok = survivors
        .iter()
        .all(|&r| matches!(last[r], Some(RankRecord { outcome: Ok(()), .. })));
    if all_ok {
        // Every rank that finished, finished clean — either nobody died
        // (full checkpoint) or the survivors recovered and completed
        // (survivor checkpoint). Publish the generation.
        let hdr = pfs.open(&epoch::header_path(BASE), COMMIT_CLIENT);
        let t0 = survivors
            .iter()
            .map(|&r| last[r].as_ref().expect("survivor record").clock)
            .max()
            .unwrap_or(0);
        commit_retrying(&hdr, t0, gen);
        committed = Some(gen);
    }

    // Restart family: a fresh world over the survivors recovers the
    // committed generation from the header and collectively reads its
    // slot file with a contiguous partition.
    let readers = survivors.len();
    let rplans =
        Arc::new(partition_plans(0, readers, scn.image_bytes().max(1), 1));
    let inner = Arc::clone(&pfs);
    // The reader world may be smaller than the writer world: clamp the
    // aggregator hint to it (cb_nodes must not exceed the world size).
    let hints2 = Hints { cb_nodes: Some(scn.aggs.min(readers)), ..hints.clone() };
    let per = run_crashable(readers, CostModel::default(), &[], move |rank| {
        let hdr = inner.open(&epoch::header_path(BASE), HDR_CLIENT_BASE + rank.rank());
        let t0 = rank.now();
        let (t, hdr_gen) = epoch::read_committed(&hdr, t0).expect("header reads are fault-free");
        rank.advance_to(t);
        rank.note_phase(Phase::Io, rank.now() - t0);
        let (outcome, back) = match hdr_gen {
            None => (Ok(()), Vec::new()),
            Some(g) => {
                let p = &rplans[rank.rank()];
                let mut f =
                    MpiFile::open(rank, &inner, &epoch::slot_path(BASE, g), hints2.clone())
                        .expect("hints validated by construction");
                f.set_view(p.disp, &Datatype::bytes(1), &p.filetype)
                    .expect("partition filetype must form a valid view");
                let mut back = vec![0u8; p.buf_len()];
                let outcome = f.read_all_at(0, &mut back, &p.memtype, p.mem_count);
                (outcome, back)
            }
        };
        (rank.now(), rank.stats(), outcome, hdr_gen, back)
    });
    let mut restart =
        RestartResult { gens: Vec::new(), records: Vec::new(), read_backs: Vec::new() };
    for r in per {
        let (clock, stats, outcome, hdr_gen, back) = r.expect("no crashes in the restart world");
        restart.gens.push(hdr_gen);
        restart.records.push(RankRecord { clock, stats, outcome });
        restart.read_backs.push(back);
    }

    let committed_image =
        committed.map(|g| read_file(&pfs, &epoch::slot_path(BASE, g))).unwrap_or_default();
    CrashOutcome { epochs, survivors, committed, committed_image, restart }
}

/// Assert `image` carries generation `gen`'s tile bytes for every rank
/// in `writers` (other ranks' tile ranges are dead state and ignored).
pub fn assert_writer_tiles(scn: &CrashScenario, gen: u64, writers: &[usize], image: &[u8]) {
    let plans = tile_plans(scn.seed, scn.nprocs, scn.block, scn.reps);
    for &r in writers {
        let data = plans[r].step_buffer(gen);
        for k in 0..scn.reps {
            let off = (k * scn.nprocs as u64 * scn.block + r as u64 * scn.block) as usize;
            let want = &data[(k * scn.block) as usize..((k + 1) * scn.block) as usize];
            let got: Vec<u8> = (0..scn.block as usize)
                .map(|i| image.get(off + i).copied().unwrap_or(0))
                .collect();
            assert_eq!(got, want, "rank {r} tile {k} diverged (gen {gen})");
        }
    }
}

/// Run one case twice and check the full battery: determinism, phase-sum
/// invariants, survivor byte-identity (masked to survivor tiles),
/// counter agreement, collective error agreement with recovery off, and
/// the old-or-new-never-torn restart property.
pub fn verify_crash_checkpoint(scn: &CrashScenario) -> CrashOutcome {
    let out = run_crash_checkpoint(scn);
    assert_eq!(out, run_crash_checkpoint(scn), "crash scenario must be deterministic");

    let gen = scn.clean_epochs;
    let last = &out.epochs[gen as usize];
    let victim_died = last[scn.victim].is_none();
    let everyone: Vec<usize> = (0..scn.nprocs).collect();

    // Phase buckets sum to the clock on every record of every world —
    // detection timeouts and commit publishes included.
    for (wi, world) in out.epochs.iter().enumerate() {
        for (r, rec) in world.iter().enumerate() {
            let Some(rec) = rec else {
                assert!(wi as u64 == gen && r == scn.victim, "only the victim may die");
                continue;
            };
            assert_eq!(
                rec.stats.phase_ns.iter().sum::<u64>(),
                rec.clock,
                "gen {wi} rank {r}: phase buckets must sum to the clock"
            );
        }
    }

    if victim_died {
        let expect_survivors: Vec<usize> =
            everyone.iter().copied().filter(|&r| r != scn.victim).collect();
        assert_eq!(out.survivors, expect_survivors);
        if scn.recovery {
            assert_eq!(out.committed, Some(gen), "recovered generation must publish");
            let mut counters = None;
            for &r in &out.survivors {
                let rec = last[r].as_ref().expect("survivor record");
                assert_eq!(rec.outcome, Ok(()), "survivor {r} must complete after recovery");
                assert_eq!(rec.stats.ranks_recovered, 1, "survivor {r} must count the dead peer");
                assert!(rec.stats.realms_rebalanced >= 1, "survivor {r} must re-partition");
                let pair = (rec.stats.ranks_recovered, rec.stats.realms_rebalanced);
                assert_eq!(
                    *counters.get_or_insert(pair),
                    pair,
                    "survivor {r}: recovery counters must agree across survivors"
                );
            }
            // Survivor byte-identity: the committed slot carries exactly
            // what a fault-free run over the survivors would have written
            // in every survivor-owned range.
            assert_writer_tiles(scn, gen, &out.survivors, &out.committed_image);
        } else {
            for &r in &out.survivors {
                let rec = last[r].as_ref().expect("survivor record");
                assert_eq!(
                    rec.outcome,
                    Err(IoError::RanksFailed(vec![scn.victim])),
                    "survivor {r}: same agreed verdict everywhere, not a hang"
                );
                assert_eq!(rec.stats.ranks_recovered, 0, "recovery is off");
            }
            assert_eq!(out.committed, gen.checked_sub(1), "crashed generation never publishes");
            if let Some(old) = out.committed {
                // Old-or-new: the previous generation's slot file was
                // never touched by the crashed run; it reads complete.
                let want = expected_epoch_image(scn, old, &everyone);
                assert!(eq_padded(&out.committed_image, &want), "old epoch read torn");
            }
        }
    } else {
        // The drawn crash time lay past the run's last checkpoint: a
        // clean run, published in full.
        assert_eq!(out.survivors, everyone);
        assert_eq!(out.committed, Some(gen));
        let want = expected_epoch_image(scn, gen, &everyone);
        assert!(eq_padded(&out.committed_image, &want), "clean generation diverged");
    }

    // Restart: every reader recovers the same committed generation, the
    // collective read succeeds, and the reassembled partition matches
    // the committed slot byte for byte (zeros past EOF) — so a restart
    // observes a complete old or new checkpoint, never a torn mix.
    for (r, g) in out.restart.gens.iter().enumerate() {
        assert_eq!(*g, out.committed, "restart rank {r}: header verdict");
    }
    for (r, rec) in out.restart.records.iter().enumerate() {
        assert_eq!(rec.outcome, Ok(()), "restart rank {r} read failed");
        assert_eq!(
            rec.stats.phase_ns.iter().sum::<u64>(),
            rec.clock,
            "restart rank {r}: phase buckets must sum to the clock"
        );
    }
    if out.committed.is_some() {
        let reassembled: Vec<u8> = out.restart.read_backs.concat();
        assert!(
            eq_padded(&reassembled, &out.committed_image),
            "restart readers must see the committed slot exactly"
        );
        if victim_died && scn.recovery {
            assert_writer_tiles(scn, gen, &out.survivors, &reassembled);
        }
    } else {
        assert!(out.restart.read_backs.concat().is_empty());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_scenario() -> CrashScenario {
        CrashScenario {
            seed: 0xC4A5,
            nprocs: 4,
            block: 32,
            reps: 3,
            clean_epochs: 2,
            aggs: 2,
            victim: 1,
            at_ns: 0,
            recovery: true,
            watchdog_us: 200_000,
            torn_rate: 0.0,
        }
    }

    #[test]
    fn entry_crash_recovers_and_publishes_survivor_checkpoint() {
        let out = verify_crash_checkpoint(&base_scenario());
        assert_eq!(out.committed, Some(2));
        assert_eq!(out.survivors, vec![0, 2, 3]);
    }

    #[test]
    fn entry_crash_without_recovery_keeps_the_old_epoch() {
        let scn = CrashScenario { recovery: false, ..base_scenario() };
        let out = verify_crash_checkpoint(&scn);
        assert_eq!(out.committed, Some(1), "crashed generation must not publish");
    }

    #[test]
    fn crash_past_the_run_end_is_a_clean_run() {
        let scn = CrashScenario { at_ns: u64::MAX / 2, ..base_scenario() };
        let out = verify_crash_checkpoint(&scn);
        assert_eq!(out.survivors.len(), 4);
        assert_eq!(out.committed, Some(2));
    }

    #[test]
    fn first_ever_epoch_crash_without_recovery_leaves_nothing_committed() {
        let scn = CrashScenario { clean_epochs: 0, recovery: false, ..base_scenario() };
        let out = verify_crash_checkpoint(&scn);
        assert_eq!(out.committed, None);
        assert!(out.committed_image.is_empty());
    }

    #[test]
    fn torn_header_publishes_heal_under_retry() {
        let scn = CrashScenario { torn_rate: 0.3, ..base_scenario() };
        let out = verify_crash_checkpoint(&scn);
        assert_eq!(out.committed, Some(2));
    }

    #[test]
    fn generator_is_deterministic_and_in_bounds() {
        let a = generate_crash(&mut XorShift64Star::new(7));
        let b = generate_crash(&mut XorShift64Star::new(7));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        for seed in 0..32 {
            let s = generate_crash(&mut XorShift64Star::new(seed));
            assert!(s.victim < s.nprocs);
            assert!(s.aggs >= 1 && s.aggs <= s.nprocs);
            assert!((0.0..1.0).contains(&s.torn_rate));
        }
    }
}
