//! Crash-stop failure detection and collective recovery.
//!
//! The sim's crash model kills a rank's fiber at a scheduled virtual
//! time, but only at *crash checkpoints* ([`Rank::maybe_crash`]): the
//! entry of a recovery-wrapped collective and the top of every buffer
//! cycle (`pipeline::CycleDriver::boundary`). A checkpoint fires
//! **before** the rank sends that boundary's heartbeats, so a dead rank
//! contributed nothing to the boundary and every survivor's detector
//! reaches the same verdict without a consensus protocol:
//!
//! 1. **Heartbeat round** — every rank sends a one-byte heartbeat to
//!    every peer, then collects heartbeats with [`Rank::recv_timeout`]
//!    against an absolute deadline `now + Hints::watchdog_us`. A peer
//!    whose heartbeat never arrives is suspected. Under lowest-virtual-
//!    clock-first scheduling a live peer's heartbeat always lands before
//!    the deadline *provided the watchdog exceeds the inter-rank clock
//!    skew* — the one soundness assumption of the model (see DESIGN).
//! 2. **Suspect-union round** — non-suspects exchange suspect bitmaps
//!    and union them, so a survivor that raced a late crash still adopts
//!    its peers' verdict. The round re-uses the deadline machinery as a
//!    defence: a peer that goes silent between rounds times out rather
//!    than hanging the exchange.
//!
//! Detection costs virtual time only (the timeout advances the waiting
//! rank's clock to the deadline), so a generous default watchdog is
//! nearly free; it is charged exactly like any other communication wait.
//!
//! Both checkpoints — a call's entry and each cycle boundary — are
//! `crash_boundary`, which returns the dead set; a cycle boundary's ends
//! the drive loop, and the engine returns it as [`IoError::RanksFailed`].
//! [`run`] wraps the flexible engine with the recovery loop: detect at
//! entry, run the engine, and on a failed-rank verdict either surface it
//! (`Hints::crash_recovery` off — the same agreed list on every
//! survivor, never a hang) or shrink the communicator to the survivors,
//! re-elect aggregators and re-partition realms over them, and replay
//! the whole call. Replay is idempotent: writes re-land every survivor
//! byte, reads re-fill every survivor buffer, so survivors end
//! byte-identical to a fault-free run over the surviving ranks.
//!
//! [`IoError::RanksFailed`]: crate::error::IoError::RanksFailed

use crate::engine::flexible::{self, DataBuf};
use crate::engine::schedule::ExchangeSchedule;
use crate::error::{IoError, Result};
use crate::hints::Hints;
use crate::meta::ClientAccess;
use crate::realm::RealmSet;
use flexio_pfs::FileHandle;
use flexio_sim::Rank;
use flexio_types::MemLayout;
use std::sync::Arc;

/// Heartbeat tag: the top of the user tag space (internal collective
/// tags start at 2^40), far above anything the engines use.
const HB_TAG: u64 = (1 << 40) - 64;
/// Suspect-bitmap exchange tag.
const SUSPECT_TAG: u64 = HB_TAG + 1;

/// One crash checkpoint: fire a scheduled crash if its time has come
/// (this rank never returns then — the fiber unwinds and the world reaps
/// it), otherwise run failure detection. Returns the communicator-relative
/// ranks agreed dead, or `None` when every peer answered.
pub(crate) fn crash_boundary(rank: &Rank, watchdog_ns: u64) -> Option<Vec<usize>> {
    rank.maybe_crash();
    Some(detect_failures(rank, watchdog_ns)).filter(|dead| !dead.is_empty())
}

/// Two-round crash detection over `rank`'s communicator. Returns the
/// communicator-relative ranks agreed dead, ascending (empty = all
/// alive). See the module docs for the protocol and its soundness
/// assumption.
pub(crate) fn detect_failures(rank: &Rank, watchdog_ns: u64) -> Vec<usize> {
    let p = rank.nprocs();
    if p == 1 {
        return Vec::new();
    }
    let me = rank.rank();
    // Round 1: heartbeats out, then collect against one absolute
    // deadline (sends to dead peers are dropped by the world).
    for r in 0..p {
        if r != me {
            rank.send(r, HB_TAG, &[1]);
        }
    }
    let deadline = rank.now().saturating_add(watchdog_ns);
    let mut suspect = vec![false; p];
    for (r, s) in suspect.iter_mut().enumerate() {
        if r != me && rank.recv_timeout(r, HB_TAG, deadline).is_none() {
            *s = true;
        }
    }
    if suspect.iter().all(|&s| !s) {
        return Vec::new();
    }
    // Round 2: union suspect bitmaps among non-suspects. The deadline
    // guards against a peer that died between the rounds (it heartbeated,
    // then hit its own checkpoint — impossible under the checkpoint
    // placement, but cheap to defend against).
    let bitmap: Vec<u8> = suspect.iter().map(|&b| b as u8).collect();
    for (r, &s) in suspect.iter().enumerate() {
        if r != me && !s {
            rank.send(r, SUSPECT_TAG, &bitmap);
        }
    }
    let deadline2 = rank.now().saturating_add(watchdog_ns);
    for r in 0..p {
        if r == me || suspect[r] {
            continue;
        }
        match rank.recv_timeout(r, SUSPECT_TAG, deadline2) {
            Some(theirs) => {
                for (i, &b) in theirs.iter().enumerate() {
                    if b != 0 {
                        suspect[i] = true;
                    }
                }
            }
            None => suspect[r] = true,
        }
    }
    (0..p).filter(|&r| suspect[r]).collect()
}

/// Run one flexible-engine collective under the crash-recovery loop.
/// `MpiFile::run_engine` routes here instead of [`flexible::run`], whose
/// signature this shares, when the rank's world is crashable
/// ([`Rank::crashable`]: built by `flexio_sim::run_crashable`, whatever
/// its schedule holds); in any other world the plain path is taken and
/// nothing here runs (charge identity).
///
/// `rank` must be the world communicator the collective was issued on;
/// the loop derives shrinking survivor subgroups from it. On a verdict:
///
/// * recovery disabled — every survivor returns the same
///   [`IoError::RanksFailed`] (world-frame ranks);
/// * recovery enabled — every survivor bumps `ranks_recovered` and
///   `realms_rebalanced`, drops the persistent realms and the schedule
///   cache (both are partition-shaped, and the partition just changed),
///   and replays the whole call over the survivors. Aggregator
///   re-election is implicit: `aggregator_ranks` is derived from the
///   shrunk communicator on replay.
///
/// [`IoError::RanksFailed`]: crate::error::IoError::RanksFailed
#[allow(clippy::too_many_arguments)] // flexible::run's, so MpiFile::run_engine calls either
pub fn run(
    rank: &Rank,
    handle: &FileHandle,
    my: &ClientAccess,
    mem: &MemLayout,
    buf: &mut DataBuf<'_>,
    hints: &Hints,
    pfr_state: &mut Option<Arc<RealmSet>>,
    sched_cache: &mut Option<ExchangeSchedule>,
) -> Result<()> {
    let mut members: Vec<usize> = (0..rank.nprocs()).collect();
    let watchdog_ns = hints.watchdog_us.saturating_mul(1000);
    loop {
        let comm = rank.subgroup(&members);
        // Entry checkpoint: a rank whose crash time already passed dies
        // here, where every survivor detects it — before the engine's
        // metadata allgather could hang on the dead peer.
        let res = match crash_boundary(&comm, watchdog_ns) {
            Some(dead) => Err(IoError::RanksFailed(dead)),
            None => flexible::run(&comm, handle, my, mem, buf, hints, pfr_state, sched_cache),
        };
        match res {
            Err(IoError::RanksFailed(dead)) => {
                let dead_world: Vec<usize> = dead.iter().map(|&d| members[d]).collect();
                if !hints.crash_recovery {
                    return Err(IoError::RanksFailed(dead_world));
                }
                comm.tally(|s| {
                    s.ranks_recovered += dead_world.len() as u64;
                    s.realms_rebalanced += 1;
                });
                *pfr_state = None;
                *sched_cache = None;
                members.retain(|m| !dead_world.contains(m));
            }
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexio_sim::CostModel;

    #[test]
    fn detect_nothing_when_all_alive() {
        let out = flexio_sim::run_crashable(4, CostModel::default(), &[], |rank| {
            detect_failures(rank, 1_000_000)
        });
        for r in out {
            assert_eq!(r.expect("no crashes scheduled"), Vec::<usize>::new());
        }
    }

    #[test]
    fn survivors_agree_on_a_dead_rank() {
        // Rank 2 dies at its first checkpoint; every survivor must return
        // exactly [2].
        let out = flexio_sim::run_crashable(4, CostModel::default(), &[(2, 0)], |rank| {
            rank.maybe_crash();
            detect_failures(rank, 1_000_000)
        });
        assert!(out[2].is_none(), "rank 2 must have crashed");
        for (r, res) in out.iter().enumerate() {
            if r != 2 {
                assert_eq!(res.as_deref(), Some(&[2usize][..]), "rank {r}");
            }
        }
    }

    #[test]
    fn survivors_agree_on_multiple_dead_ranks() {
        let out = flexio_sim::run_crashable(5, CostModel::default(), &[(0, 0), (3, 0)], |rank| {
            rank.maybe_crash();
            detect_failures(rank, 1_000_000)
        });
        for (r, res) in out.iter().enumerate() {
            match r {
                0 | 3 => assert!(res.is_none()),
                _ => assert_eq!(res.as_deref(), Some(&[0usize, 3][..]), "rank {r}"),
            }
        }
    }

    #[test]
    fn detection_works_on_subgroups() {
        // Kill world rank 3; detect over the subgroup {1, 2, 3} where it
        // is group rank 2.
        let out = flexio_sim::run_crashable(4, CostModel::default(), &[(3, 0)], |rank| {
            if rank.rank() == 0 {
                return Vec::new();
            }
            let comm = rank.subgroup(&[1, 2, 3]);
            comm.maybe_crash();
            detect_failures(&comm, 1_000_000)
        });
        assert!(out[3].is_none());
        assert_eq!(out[1].as_deref(), Some(&[2usize][..]));
        assert_eq!(out[2].as_deref(), Some(&[2usize][..]));
    }

    #[test]
    fn singleton_communicator_detects_nothing() {
        let out = flexio_sim::run_crashable(1, CostModel::default(), &[], |rank| {
            detect_failures(rank, 1000)
        });
        assert_eq!(out[0].as_deref(), Some(&[][..]));
    }

    #[test]
    fn detection_advances_the_clock_by_at_most_the_watchdog_rounds() {
        // A timeout costs virtual time: survivors' clocks move past the
        // deadline they waited out, but by a bounded amount (two rounds).
        let out = flexio_sim::run_crashable(3, CostModel::default(), &[(0, 0)], |rank| {
            rank.maybe_crash();
            let t0 = rank.now();
            let dead = detect_failures(rank, 50_000);
            (dead, rank.now() - t0)
        });
        for res in out.iter().skip(1) {
            let (dead, waited) = res.as_ref().expect("survivor");
            assert_eq!(dead, &[0usize]);
            assert!(*waited >= 50_000, "must have waited out the watchdog: {waited}");
            assert!(*waited < 250_000, "two rounds must bound the wait: {waited}");
        }
    }
}
