//! Crash-checkpoint scenario family: seeded rank crashes inside an
//! epoch-committed checkpoint sequence, plus its verification battery.
//!
//! The scenario is the checkpoint/restart loop an epoch-commit protocol
//! exists for. `clean_epochs` generations write the interleaved tile
//! image into alternating shadow slot files ([`epoch::slot_path`]); then
//! one more generation runs with a seeded crash armed: the victim rank
//! dies at its first crash checkpoint at or past the drawn virtual time.
//! Every generation runs the same rank body (open, view, one collective
//! write), and the driver decides each commit after the world returns:
//! it publishes the generation through the double-slot header
//! ([`epoch::commit_epoch`]) iff every rank that finished it finished
//! clean — the world's return proves every writer's data is down.
//!
//! * With `Hints::crash_recovery` on, the survivors detect the
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
//! Either way the driver reads the header, and a restart world over the
//! survivors ([`FileWorld`], the one executor) reads the named slot and
//! sees a complete old or new checkpoint, never a torn mix. That is the
//! property the crash-point fuzz axis (`tests/workload_fuzz.rs`) drives
//! across drawn crash times, victims, world sizes, and torn-header rates.

use crate::epoch;
use crate::gen::{coin, range};
use crate::oracle::{eq_padded, Oracle};
use crate::runner::{Call, FileWorld, Io, PhaseResult, Timing};
use crate::spec::{partition_plans, tile_plans};
use crate::tiled::read_file;
use flexio_core::{Engine, Hints, IoError, MpiFile};
use flexio_pfs::{FaultPlan, Pfs, PfsConfig, PfsCostModel, PfsErrorKind};
use flexio_sim::{run_crashable, CostModel, Stats, XorShift64Star};
use flexio_types::Datatype;
use std::sync::Arc;

/// Checkpoint-family base name; slots are `ckpt.slot{0,1}`, the header
/// is `ckpt.epoch`.
const BASE: &str = "ckpt";
/// Client id of the out-of-world handle that publishes and reads the
/// header (far above any rank id; `usize::MAX - 1` is [`read_file`]'s).
const COMMIT_CLIENT: usize = usize::MAX - 2;

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
    /// `Hints::crash_recovery`.
    pub recovery: bool,
    /// `Hints::watchdog_us`.
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

    /// A fresh file system under the case's torn-write plan.
    fn pfs(&self) -> Arc<Pfs> {
        let plan = FaultPlan { seed: self.seed, torn_rate: self.torn_rate, ..FaultPlan::default() };
        Pfs::with_faults(
            PfsConfig {
                n_osts: 4,
                stripe_size: 512,
                page_size: 64,
                locking: false,
                lock_expansion: false,
                client_cache: false,
                cost: PfsCostModel::default(),
            },
            plan,
        )
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
    /// The restart world over the survivors: one collective read of the
    /// committed slot, its read-backs the partition in rank order (an
    /// empty result when nothing was ever committed).
    pub restart: PhaseResult,
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

/// Publish `gen` on the header out of any world at t = 0, like
/// [`read_file`], retrying torn publishes until the record lands whole.
/// Call only once generation `gen`'s world has returned: every writer's
/// data is then down.
fn publish(pfs: &Arc<Pfs>, gen: u64) {
    let hdr = pfs.open(&epoch::header_path(BASE), COMMIT_CLIENT);
    let mut t = 0;
    for _ in 0..64 {
        match epoch::commit_epoch(&hdr, t, gen) {
            Ok(_) => return,
            Err(e) => {
                assert_eq!(e.kind, PfsErrorKind::TornWrite, "header path only tears");
                t = e.at;
            }
        }
    }
    panic!("epoch {gen} publish failed to land within 64 retries");
}

/// The restart world: `readers` fresh ranks collectively read generation
/// `gen`'s slot file, each through its contiguous partition of the image,
/// set as its view at open.
fn restart_world(pfs: &Arc<Pfs>, scn: &CrashScenario, readers: usize, gen: u64) -> PhaseResult {
    let plans = partition_plans(0, readers, scn.image_bytes().max(1), 1);
    // The reader world may be smaller than the writer world: clamp the
    // aggregator hint to it (cb_nodes must not exceed the world size).
    let hints = Hints { cb_nodes: Some(scn.aggs.min(readers)), ..scn.hints() };
    let path = epoch::slot_path(BASE, gen);
    FileWorld::new(pfs, &path, &hints, Timing::Untimed).run(
        readers,
        1,
        |r| Some((plans[r].disp, plans[r].filetype.clone())),
        |r, _| {
            let p = &plans[r];
            Call::new(Io::Read(p.buf_len()), p.memtype.clone(), p.mem_count)
        },
    )
}

/// Run one crash-checkpoint case end to end: clean generations, the
/// crash generation, a commit decision after each, and the restart world.
pub fn run_crash_checkpoint(scn: &CrashScenario) -> CrashOutcome {
    assert!(scn.victim < scn.nprocs, "victim must be a world rank");
    let pfs = scn.pfs();
    let plans = tile_plans(scn.seed, scn.nprocs, scn.block, scn.reps);
    let hints = scn.hints();

    let mut epochs: Vec<WorldResult> = Vec::new();
    let mut committed: Option<u64> = None;
    for gen in 0..=scn.clean_epochs {
        let crash_world = gen == scn.clean_epochs;
        let schedule = if crash_world { vec![(scn.victim, scn.at_ns)] } else { Vec::new() };
        let path = epoch::slot_path(BASE, gen);
        let world = run_crashable(scn.nprocs, CostModel::default(), &schedule, |rank| {
            let p = &plans[rank.rank()];
            let mut f = MpiFile::open(rank, &pfs, &path, hints.clone())
                .expect("hints validated by construction");
            f.set_view(p.disp, &Datatype::bytes(1), &p.filetype)
                .expect("tile filetype must form a valid view");
            // No barrier and no `close()` (it barriers): a dead peer would
            // hang either, so the commit decision is the driver's.
            let outcome = f.write_all_at(0, &p.step_buffer(gen), &p.memtype, p.mem_count);
            RankRecord { clock: rank.now(), stats: rank.stats(), outcome }
        });
        // Every rank that finished, finished clean — nobody died (a full
        // checkpoint) or the survivors recovered and completed (a
        // survivor checkpoint): publish the generation.
        let all_ok = world.iter().flatten().all(|rec| rec.outcome.is_ok());
        assert!(all_ok || crash_world, "clean generation {gen}'s writes must succeed");
        if all_ok {
            publish(&pfs, gen);
            committed = Some(gen);
        }
        epochs.push(world);
    }

    let last = epochs.last().expect("at least the crash generation ran");
    let survivors: Vec<usize> = (0..scn.nprocs).filter(|&r| last[r].is_some()).collect();
    let hdr = pfs.open(&epoch::header_path(BASE), COMMIT_CLIENT);
    let (_, named) = epoch::read_committed(&hdr, 0).expect("header reads are fault-free");
    assert_eq!(named, committed, "the header must name the last published generation");
    // A fresh world over the survivors restarts from the named generation.
    let readers = survivors.len();
    let restart =
        committed.map_or_else(PhaseResult::default, |g| restart_world(&pfs, scn, readers, g));
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
            let got: Vec<u8> =
                (0..scn.block as usize).map(|i| image.get(off + i).copied().unwrap_or(0)).collect();
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

    // Phase buckets sum to the clock on every record of every world,
    // detection timeouts included.
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

    // Restart: the collective read succeeds (its phase sums and call
    // agreement are the executor's `check_invariants`), and the
    // reassembled partition matches the committed slot byte for byte
    // (zeros past EOF) — so a restart observes a complete old or new
    // checkpoint, never a torn mix. The header's verdict is asserted by
    // the run itself.
    assert_eq!(out.restart.err(), None, "restart read failed");
    assert!(out.restart.close.iter().all(Result::is_ok), "restart close failed");
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

    /// The restart world owns its virtual time (DESIGN "Virtual-time
    /// model"): run three times on one file system, each time after the
    /// same out-of-world set-up — the slot written on a bare handle at
    /// t = 0, then a [`read_file`] probe, which leaves the OSTs busy and
    /// every seek position where a fresh set-up does — it gives every rank
    /// the same clock and the same counters. Nothing the world does before
    /// its collective open books OST time that the open then forgets.
    #[test]
    fn restart_worlds_in_sequence_see_the_same_file_system() {
        let scn = base_scenario();
        let pfs = scn.pfs();
        let path = epoch::slot_path(BASE, 1);
        let everyone: Vec<usize> = (0..scn.nprocs).collect();
        let image = expected_epoch_image(&scn, 1, &everyone);
        let world = || {
            pfs.open(&path, COMMIT_CLIENT).write(0, 0, &image).unwrap();
            assert_eq!(read_file(&pfs, &path), image);
            let res = restart_world(&pfs, &scn, scn.nprocs, 1);
            assert!(eq_padded(&res.read_backs.concat(), &image), "restart read the wrong bytes");
            (res.clocks, res.stats)
        };
        let first = world();
        assert!(first.0.iter().all(|&clock| clock > 0), "the restart world took no time");
        assert_eq!(world(), first, "the second restart paid the first");
        assert_eq!(world(), first, "the third restart paid the second");
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
