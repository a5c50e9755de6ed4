//! # flexio-sim — an in-process message-passing runtime with virtual time
//!
//! Substitute for the paper's MPICH2-over-TCP substrate. Each rank owns a
//! virtual clock in nanoseconds; all ranks of a world run as
//! cooperatively-scheduled fibers on the one host thread that called
//! [`run`], resumed lowest virtual clock first (deterministic by
//! construction, and cheap enough to drive tens of thousands of ranks per
//! process). Point-to-point and collective operations charge an alpha/beta
//! network model; higher layers charge computation explicitly
//! (offset/length-pair processing, buffer copies). The paper's performance deltas are driven by *counts* — bytes
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
mod fiber;
pub mod prng;
pub mod prop;
pub mod rank;
mod sched;
pub mod world;

pub use cost::CostModel;
pub use prng::XorShift64Star;
pub use rank::{OverlapWindow, Phase, Rank, Stats};
pub use world::{last_run_counters, run, run_crashable, run_on, Backend, SchedCounters, World};

#[cfg(test)]
mod properties {
    use super::*;
    use crate::prop::Runner;

    /// allgatherv delivers every payload intact for arbitrary sizes.
    #[test]
    fn allgatherv_arbitrary_sizes() {
        Runner::new("allgatherv_arbitrary_sizes").run(
            |rng| {
                let p = 2 + (rng.next_u64() % 4) as usize; // 2..6
                (0..p).map(|_| (rng.next_u64() % 200) as usize).collect::<Vec<_>>()
            },
            |sizes| {
                let block = |src: usize| (0..sizes[src]).map(|i| (src * 31 + i) as u8).collect::<Vec<u8>>();
                let out = run(sizes.len(), CostModel::default(), |r| r.allgatherv(&block(r.rank())));
                for v in out {
                    for (src, blk) in v.iter().enumerate() {
                        assert_eq!(blk, &block(src));
                    }
                }
            },
        );
    }

    /// Virtual clocks are monotone through arbitrary collective mixes.
    #[test]
    fn clocks_monotone() {
        Runner::new("clocks_monotone").run(
            |rng| {
                let n = 1 + (rng.next_u64() % 11) as usize; // 1..12
                (0..n).map(|_| (rng.next_u64() % 4) as u8).collect::<Vec<_>>()
            },
            |ops| {
                let out = run(3, CostModel::default(), |r| {
                    let mut last = r.now();
                    for op in ops {
                        match op {
                            0 => r.barrier(),
                            1 => {
                                let (next, prev) = ((r.rank() + 1) % 3, (r.rank() + 2) % 3);
                                drop(r.exchange(vec![(next, vec![1, 2, 3])], &[prev]))
                            }
                            2 => drop(r.allgatherv(&[r.rank() as u8])),
                            _ => drop(r.allreduce_max(r.rank() as u64)),
                        }
                        let now = r.now();
                        assert!(now >= last, "clock went backwards");
                        last = now;
                    }
                    r.now()
                });
                assert!(out.iter().all(|&t| t > 0));
            },
        );
    }

    /// alltoallv is a permutation-correct exchange for random payloads.
    #[test]
    fn alltoallv_correct() {
        Runner::new("alltoallv_correct").run(
            |rng| rng.next_u64() % 1000,
            |&seed| {
                let p = 4;
                let block = |src: usize, dst: usize| {
                    vec![(src * p + dst) as u8; ((seed as usize + src * 7 + dst * 13) % 50) + 1]
                };
                let out = run(p, CostModel::free(), |r| {
                    r.alltoallv((0..p).map(|d| block(r.rank(), d)).collect())
                });
                for (dst, v) in out.iter().enumerate() {
                    for (src, blk) in v.iter().enumerate() {
                        assert_eq!(blk, &block(src, dst));
                    }
                }
            },
        );
    }
}
