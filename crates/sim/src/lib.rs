//! # flexio-sim — an in-process message-passing runtime with virtual time
//!
//! Substitute for the paper's MPICH2-over-TCP substrate. Each rank owns a
//! virtual clock in nanoseconds; all ranks of a world run as
//! cooperatively-scheduled fibers, resumed lowest virtual clock first
//! (deterministic by construction, and cheap enough to drive tens of
//! thousands of ranks per process) — on one host thread by default, or on
//! a sharded pool of host threads behind `FLEXIO_SIM_SHARDS=n` (see
//! [`Backend`]); both produce bit-identical results. Point-to-point and
//! collective operations charge an alpha/beta network model; higher layers
//! charge computation explicitly (offset/length-pair processing, buffer
//! copies). The paper's performance deltas are driven by *counts* — bytes
//! moved, messages sent, pairs processed, copies made — so charging those
//! counts against a consistent ruler preserves relative orderings and
//! crossovers even though absolute MB/s are model outputs.
//!
//! ```
//! use flexio_sim::{run, CostModel};
//!
//! let totals = run(4, CostModel::default(), |rank| {
//!     let sum = rank.allreduce_sum(rank.rank() as u64);
//!     rank.barrier();
//!     sum
//! });
//! assert!(totals.iter().all(|&s| s == 6));
//! ```

#![warn(missing_docs)]

pub mod cost;
#[cfg(target_arch = "x86_64")]
mod fiber;
pub mod prng;
pub mod prop;
pub mod rank;
#[cfg(target_arch = "x86_64")]
mod sched;
pub mod world;

/// Stub for architectures without the fiber layer: `run`/`run_on` assert
/// [`Backend::event_loop_supported`] before ever reaching these, so they
/// only have to keep the crate compiling.
#[cfg(not(target_arch = "x86_64"))]
mod sched {
    use crate::rank::Rank;
    use crate::world::{Msg, World};
    use std::sync::Arc;

    pub(crate) enum ParkWake {
        #[allow(dead_code)]
        Delivered(Msg),
        #[allow(dead_code)]
        Spurious,
        #[allow(dead_code)]
        TimedOut,
    }

    pub(crate) fn scheduler_active_for(_world: &World) -> bool {
        false
    }

    pub(crate) fn is_exclusive_runner(_world: &World) -> bool {
        false
    }

    pub(crate) fn park_for_recv(
        _w: &World,
        _dst: usize,
        _src: usize,
        _tag: u64,
        _now: u64,
        _deadline: Option<u64>,
    ) -> ParkWake {
        unreachable!("the fiber rank runtime is unsupported on this architecture")
    }

    pub(crate) fn park_round(_w: &World, _dst: usize, _src: usize, _tag: u64, _now: u64) {
        unreachable!("the fiber rank runtime is unsupported on this architecture")
    }

    pub(crate) fn sleep_in_round(_w: &World, _r: usize) {
        unreachable!("the fiber rank runtime is unsupported on this architecture")
    }

    pub(crate) fn try_handoff(
        _w: &World,
        _dst: usize,
        _src: usize,
        _tag: u64,
        msg: Msg,
    ) -> Option<Msg> {
        Some(msg)
    }

    pub(crate) fn run_event_loop<R, F>(_world: Arc<World>, _f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Rank) -> R + Sync,
    {
        unreachable!("the fiber rank runtime is unsupported on this architecture")
    }

    pub(crate) fn run_event_loop_partial<R, F>(_world: Arc<World>, _f: F) -> Vec<Option<R>>
    where
        R: Send,
        F: Fn(&Rank) -> R + Sync,
    {
        unreachable!("the fiber rank runtime is unsupported on this architecture")
    }

    pub(crate) fn run_pool<R, F>(_world: Arc<World>, _shards: usize, _f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Rank) -> R + Sync,
    {
        unreachable!("the fiber rank runtime is unsupported on this architecture")
    }

    pub(crate) fn run_pool_partial<R, F>(
        _world: Arc<World>,
        _shards: usize,
        _jitter: Option<(u64, u64)>,
        _f: F,
    ) -> Vec<Option<R>>
    where
        R: Send,
        F: Fn(&Rank) -> R + Sync,
    {
        unreachable!("the fiber rank runtime is unsupported on this architecture")
    }
}

pub use cost::CostModel;
pub use prng::XorShift64Star;
pub use rank::{OverlapWindow, Phase, Rank, RecvReq, Stats};
pub use world::{
    last_run_counters, run, run_crashable, run_crashable_on, run_jittered, run_on, Backend,
    SchedCounters, World,
};

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// allgatherv delivers every payload intact for arbitrary sizes.
        #[test]
        fn allgatherv_arbitrary_sizes(sizes in proptest::collection::vec(0usize..200, 2..6)) {
            let p = sizes.len();
            let sizes2 = sizes.clone();
            let out = run(p, CostModel::default(), move |r| {
                let mine: Vec<u8> = (0..sizes2[r.rank()]).map(|i| (r.rank() * 31 + i) as u8).collect();
                r.allgatherv(&mine)
            });
            for v in out {
                for (src, blk) in v.iter().enumerate() {
                    let want: Vec<u8> = (0..sizes[src]).map(|i| (src * 31 + i) as u8).collect();
                    prop_assert_eq!(blk, &want);
                }
            }
        }

        /// Virtual clocks are monotone through arbitrary collective mixes.
        #[test]
        fn clocks_monotone(ops in proptest::collection::vec(0u8..4, 1..12)) {
            let ops2 = ops.clone();
            let out = run(3, CostModel::default(), move |r| {
                let mut last = r.now();
                for op in &ops2 {
                    match op {
                        0 => r.barrier(),
                        1 => { let _ = r.bcast(0, vec![1, 2, 3]); }
                        2 => { let _ = r.allgatherv(&[r.rank() as u8]); }
                        _ => { let _ = r.allreduce_max(r.rank() as u64); }
                    }
                    let now = r.now();
                    assert!(now >= last, "clock went backwards");
                    last = now;
                }
                r.now()
            });
            prop_assert!(out.iter().all(|&t| t > 0));
        }

        /// alltoallv is a permutation-correct exchange for random payloads.
        #[test]
        fn alltoallv_correct(seed in 0u64..1000) {
            let p = 4;
            let out = run(p, CostModel::free(), move |r| {
                let blocks: Vec<Vec<u8>> = (0..p)
                    .map(|d| {
                        let n = ((seed as usize + r.rank() * 7 + d * 13) % 50) + 1;
                        vec![(r.rank() * p + d) as u8; n]
                    })
                    .collect();
                r.alltoallv(blocks)
            });
            for (dst, v) in out.iter().enumerate() {
                for (src, blk) in v.iter().enumerate() {
                    let n = ((seed as usize + src * 7 + dst * 13) % 50) + 1;
                    prop_assert_eq!(blk, &vec![(src * p + dst) as u8; n]);
                }
            }
        }
    }
}
