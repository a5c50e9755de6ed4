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
pub use fiber::stack_blocks_mapped;
pub use prng::XorShift64Star;
pub use rank::{GatherTable, OverlapWindow, Phase, Rank, Stats};
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
                let block =
                    |src: usize| (0..sizes[src]).map(|i| (src * 31 + i) as u8).collect::<Vec<u8>>();
                let out =
                    run(sizes.len(), CostModel::default(), |r| r.allgatherv(&block(r.rank())));
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

    /// One drawn collective over `comm`; returns the blocks it received.
    /// A block's length and bytes, whether a sparse collective lists it,
    /// and a rank's compute before the call are functions of `(seed, src,
    /// dst)` that every member computes alike.
    fn drawn_collective(comm: &Rank, op: u64, seed: u64) -> Vec<Vec<u8>> {
        let (me, p) = (comm.rank(), comm.nprocs());
        let draw = |src: usize, dst: usize| {
            XorShift64Star::new(seed ^ (src * 1031 + dst) as u64).next_u64()
        };
        let block = |src: usize, dst: usize| {
            let d = draw(src, dst);
            vec![d as u8; (d >> 8) as usize % 24]
        };
        let listed = |src: usize, dst: usize| (draw(src, dst) >> 40) % 3 != 0;
        comm.advance((draw(me, p) >> 16) % 50_000);
        match op {
            0 => {
                comm.barrier();
                Vec::new()
            }
            1 => comm.allgatherv(&block(me, 0)),
            2 => comm.alltoallv((0..p).map(|d| block(me, d)).collect()),
            _ => {
                let sends = (0..p).filter(|&d| listed(me, d)).map(|d| (d, block(me, d))).collect();
                let recv_from: Vec<usize> = (0..p).filter(|&s| listed(s, me)).collect();
                let got = if op == 3 {
                    comm.alltoallw(sends, &recv_from)
                } else {
                    comm.exchange(sends, &recv_from)
                };
                got.into_iter().map(|(_, b)| b).collect()
            }
        }
    }

    /// The time-shift relation: when every rank starts T₀ later, every
    /// exit clock is exactly T₀ later, and the bytes, every `Stats` field
    /// and the scheduler's work are the same. Each case runs a drawn
    /// sequence of `barrier`, `allgatherv`, `alltoallv`, `alltoallw` and
    /// `exchange` over the world, then another per communicator of a drawn
    /// split, from drawn per-rank entry skews.
    #[test]
    fn collectives_shift_with_the_start_time() {
        Runner::new("collectives_time_shift").run(
            |rng| {
                let p = 1 + rng.next_below(24) as usize;
                let groups = 1 + rng.next_below(3);
                let group: Vec<u64> = (0..p).map(|_| rng.next_below(groups)).collect();
                let mut ops = || {
                    (0..1 + rng.next_below(6))
                        .map(|_| (rng.next_below(5), rng.next_u64()))
                        .collect()
                };
                let (world_ops, group_ops): (Vec<_>, Vec<Vec<_>>) =
                    (ops(), (0..groups).map(|_| ops()).collect());
                let skew: Vec<u64> = (0..p).map(|_| rng.next_below(4) * 40_000).collect();
                let t0 = 1 + rng.next_below(1 << 40);
                (group, world_ops, group_ops, skew, t0)
            },
            |(group, world_ops, group_ops, skew, t0)| {
                let world = |start: u64| {
                    let out = run(group.len(), CostModel::default(), |r| {
                        r.advance(start + skew[r.rank()]);
                        let mine = group[r.rank()];
                        let members: Vec<usize> =
                            (0..group.len()).filter(|&m| group[m] == mine).collect();
                        let comm = r.subgroup(&members);
                        let got: Vec<Vec<u8>> = (world_ops.iter().map(|op| (r, op)))
                            .chain(group_ops[mine as usize].iter().map(|op| (&comm, op)))
                            .flat_map(|(c, &(op, seed))| drawn_collective(c, op, seed))
                            .collect();
                        (r.now(), r.stats(), got)
                    });
                    (out, last_run_counters())
                };
                let ((base, base_sched), (shifted, shifted_sched)) = (world(0), world(*t0));
                assert_eq!(shifted_sched, base_sched, "the scheduler's work moved");
                for (rank, (b, s)) in base.iter().zip(&shifted).enumerate() {
                    assert_eq!(s.0, b.0 + t0, "rank {rank}: exit clock");
                    assert_eq!((&s.1, &s.2), (&b.1, &b.2), "rank {rank}: stats and bytes");
                }
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
