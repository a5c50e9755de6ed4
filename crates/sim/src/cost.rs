//! Virtual-time cost model.
//!
//! All simulated durations are in nanoseconds. The defaults are calibrated
//! to the paper's testbed scale (MPICH2 over TCP on Myrinet hardware,
//! shared Lustre): they are not claims about any real system, only a
//! consistent ruler so that byte counts, message counts, offset/length-pair
//! processing and buffer copies — the quantities the paper's deltas come
//! from — translate into comparable times.

/// Cost model for communication and computation charges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-message network latency (the "alpha" term), ns.
    pub net_latency_ns: u64,
    /// Per-byte network transfer time (the "beta" term), ns/byte.
    /// 10 ns/B = 100 MB/s, the paper's TCP-over-Myrinet regime.
    pub net_ns_per_byte: f64,
    /// CPU overhead to post a send, ns.
    pub send_overhead_ns: u64,
    /// CPU overhead to complete a receive, ns.
    pub recv_overhead_ns: u64,
    /// Cost of evaluating one offset/length pair (the paper's datatype
    /// processing cost, §5.3/§6.2), ns.
    pub pair_process_ns: u64,
    /// Per-byte cost of a local buffer copy (double-buffering charge,
    /// §5.1/§6.2), ns/byte. 0.5 ns/B = 2 GB/s.
    pub memcpy_ns_per_byte: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            net_latency_ns: 60_000,
            net_ns_per_byte: 10.0,
            send_overhead_ns: 4_000,
            recv_overhead_ns: 4_000,
            pair_process_ns: 120,
            memcpy_ns_per_byte: 0.5,
        }
    }
}

impl CostModel {
    /// A zero-cost model: useful for tests that only check data movement.
    pub fn free() -> Self {
        CostModel {
            net_latency_ns: 0,
            net_ns_per_byte: 0.0,
            send_overhead_ns: 0,
            recv_overhead_ns: 0,
            pair_process_ns: 0,
            memcpy_ns_per_byte: 0.0,
        }
    }

    /// Wire time of an `n`-byte message (latency + transfer).
    #[inline]
    pub fn msg_ns(&self, n: usize) -> u64 {
        // Barrier messages and a dense `alltoallv`'s empty blocks carry
        // nothing; spare them the float round trip (which comes to the
        // same: 0 · β casts to 0).
        if n == 0 {
            return self.net_latency_ns;
        }
        self.net_latency_ns + (n as f64 * self.net_ns_per_byte) as u64
    }

    /// Charge for copying `n` bytes between local buffers.
    pub fn memcpy_ns(&self, n: u64) -> u64 {
        (n as f64 * self.memcpy_ns_per_byte) as u64
    }

    /// Charge for evaluating `n` offset/length pairs.
    pub fn pairs_ns(&self, n: u64) -> u64 {
        n * self.pair_process_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_time_scales_with_size() {
        let c = CostModel::default();
        assert_eq!(c.msg_ns(0), 60_000);
        assert_eq!(c.msg_ns(1000), 60_000 + 10_000);
        assert!(c.msg_ns(1 << 20) > c.msg_ns(1 << 10));
    }

    #[test]
    fn free_model_is_zero() {
        let c = CostModel::free();
        assert_eq!(c.msg_ns(1 << 20), 0);
        assert_eq!(c.memcpy_ns(1 << 20), 0);
        assert_eq!(c.pairs_ns(1000), 0);
    }

    #[test]
    fn pair_charge_linear() {
        let c = CostModel::default();
        assert_eq!(c.pairs_ns(10), 1200);
    }
}
