//! MPE-style profiling: aggregate per-rank phase timings and counters into
//! a collective profile (§6.2 used MPE logging to attribute the new
//! implementation's overheads to datatype processing and buffer copies —
//! this module makes the same attribution a one-liner).

use flexio_sim::{Phase, Rank, Stats};

/// Aggregated view of one or more collective operations across all ranks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Number of ranks aggregated.
    pub ranks: usize,
    /// Max over ranks of virtual ns spent in datatype processing/copies.
    pub compute_ns_max: u64,
    /// Max over ranks of virtual ns spent in communication.
    pub comm_ns_max: u64,
    /// Max over ranks of virtual ns spent in file I/O.
    pub io_ns_max: u64,
    /// Total offset/length pairs evaluated across ranks.
    pub pairs_total: u64,
    /// Total buffer-copy bytes across ranks.
    pub memcpy_total: u64,
    /// Total bytes moved through intermediate staging buffers on the
    /// collective data path across ranks (the `bytes_copied` ledger).
    pub bytes_copied_total: u64,
    /// Total messages sent across ranks.
    pub msgs_total: u64,
    /// Total payload bytes sent across ranks.
    pub bytes_sent_total: u64,
    /// Total virtual ns of in-flight I/O hidden behind exchange work
    /// across ranks (pipelined engine only; zero for the serial engine).
    pub overlap_saved_total_ns: u64,
    /// Total virtual ns of schedule derivation hidden behind the first
    /// cycle's exchange across ranks (depth ≥ 3 or auto only).
    pub derive_overlap_saved_total_ns: u64,
    /// Deepest pipeline any rank reached (high-water mark, not a sum).
    pub pipeline_depth_max: u64,
    /// Total file-system requests re-issued after transient faults across
    /// ranks (zero without fault injection).
    pub io_retries_total: u64,
    /// Total buffer cycles run while an aggregator straggled.
    pub degraded_cycles_total: u64,
    /// Total persistent-file-realm rebalances away from stragglers.
    pub realms_rebalanced_total: u64,
    /// Total crash-stopped peers agreed dead and recovered past across
    /// ranks (each survivor counts every dead peer of every recovery).
    pub ranks_recovered_total: u64,
}

impl Profile {
    /// Build from per-rank stats snapshots (e.g. collected by the caller
    /// after a `run(..)`).
    pub fn from_stats(stats: &[Stats]) -> Profile {
        let mut p = Profile { ranks: stats.len(), ..Profile::default() };
        for s in stats {
            p.compute_ns_max = p.compute_ns_max.max(s.phase_ns[Phase::Compute as usize]);
            p.comm_ns_max = p.comm_ns_max.max(s.phase_ns[Phase::Comm as usize]);
            p.io_ns_max = p.io_ns_max.max(s.phase_ns[Phase::Io as usize]);
            p.pairs_total += s.pairs_processed;
            p.memcpy_total += s.memcpy_bytes;
            p.bytes_copied_total += s.bytes_copied;
            p.msgs_total += s.msgs_sent;
            p.bytes_sent_total += s.bytes_sent;
            p.overlap_saved_total_ns += s.overlap_saved_ns;
            p.derive_overlap_saved_total_ns += s.derive_overlap_saved_ns;
            p.pipeline_depth_max = p.pipeline_depth_max.max(s.pipeline_depth_used);
            p.io_retries_total += s.io_retries;
            p.degraded_cycles_total += s.degraded_cycles;
            p.realms_rebalanced_total += s.realms_rebalanced;
            p.ranks_recovered_total += s.ranks_recovered;
        }
        p
    }

    /// Difference of two cumulative snapshots (per rank), for profiling a
    /// window of operations: `after[i] - before[i]`.
    pub fn delta(before: &[Stats], after: &[Stats]) -> Profile {
        assert_eq!(before.len(), after.len());
        let diffs: Vec<Stats> = before
            .iter()
            .zip(after)
            .map(|(b, a)| Stats {
                msgs_sent: a.msgs_sent - b.msgs_sent,
                bytes_sent: a.bytes_sent - b.bytes_sent,
                pairs_processed: a.pairs_processed - b.pairs_processed,
                memcpy_bytes: a.memcpy_bytes - b.memcpy_bytes,
                bytes_copied: a.bytes_copied - b.bytes_copied,
                schedule_cache_hits: a.schedule_cache_hits - b.schedule_cache_hits,
                schedule_cache_misses: a.schedule_cache_misses - b.schedule_cache_misses,
                schedule_cache_patches: a.schedule_cache_patches - b.schedule_cache_patches,
                flatten_cache_hits: a.flatten_cache_hits - b.flatten_cache_hits,
                flatten_cache_misses: a.flatten_cache_misses - b.flatten_cache_misses,
                overlap_saved_ns: a.overlap_saved_ns - b.overlap_saved_ns,
                derive_overlap_saved_ns: a.derive_overlap_saved_ns - b.derive_overlap_saved_ns,
                // A watermark, not an accumulator: the window's deepest
                // pipeline is whatever the cumulative snapshot reached.
                pipeline_depth_used: a.pipeline_depth_used,
                io_retries: a.io_retries - b.io_retries,
                degraded_cycles: a.degraded_cycles - b.degraded_cycles,
                realms_rebalanced: a.realms_rebalanced - b.realms_rebalanced,
                ranks_recovered: a.ranks_recovered - b.ranks_recovered,
                phase_ns: [
                    a.phase_ns[0] - b.phase_ns[0],
                    a.phase_ns[1] - b.phase_ns[1],
                    a.phase_ns[2] - b.phase_ns[2],
                ],
            })
            .collect();
        Profile::from_stats(&diffs)
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "compute {:.2} ms | comm {:.2} ms | io {:.2} ms | {} pairs | {} copy bytes | {} msgs",
            self.compute_ns_max as f64 / 1e6,
            self.comm_ns_max as f64 / 1e6,
            self.io_ns_max as f64 / 1e6,
            self.pairs_total,
            self.memcpy_total,
            self.msgs_total,
        )
    }
}

/// Convenience: snapshot a rank's stats (alias for discoverability).
pub fn snapshot(rank: &Rank) -> Stats {
    rank.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexio_sim::{run, CostModel};

    #[test]
    fn aggregates_max_and_totals() {
        let stats = run(3, CostModel::default(), |rank| {
            rank.charge_pairs(100 * (rank.rank() as u64 + 1));
            rank.charge_memcpy(1000);
            if rank.rank() == 0 {
                rank.send(1, 1, &[0u8; 50]);
            } else if rank.rank() == 1 {
                let _ = rank.recv(0, 1);
            }
            rank.stats()
        });
        let p = Profile::from_stats(&stats);
        assert_eq!(p.ranks, 3);
        assert_eq!(p.pairs_total, 600);
        assert_eq!(p.memcpy_total, 3000);
        assert_eq!(p.msgs_total, 1);
        assert_eq!(p.bytes_sent_total, 50);
        // Max compute = rank 2's 300 pairs * 120ns + memcpy 500ns.
        assert_eq!(p.compute_ns_max, 300 * 120 + 500);
        assert!(p.comm_ns_max > 0);
    }

    #[test]
    fn delta_isolates_window() {
        let stats = run(2, CostModel::default(), |rank| {
            rank.charge_pairs(10);
            let before = rank.stats();
            rank.charge_pairs(5);
            let after = rank.stats();
            (before, after)
        });
        let before: Vec<_> = stats.iter().map(|(b, _)| b.clone()).collect();
        let after: Vec<_> = stats.iter().map(|(_, a)| a.clone()).collect();
        let p = Profile::delta(&before, &after);
        assert_eq!(p.pairs_total, 10); // 5 per rank
    }

    #[test]
    fn summary_formats() {
        let p = Profile::from_stats(&[]);
        assert!(p.summary().contains("compute"));
    }
}
