//! Configuration and cost model for the striped parallel file system.

/// Service-time model for the file system, all durations in virtual ns.
///
/// Defaults are scaled to the paper's shared-Lustre testbed: per-request
/// overheads dominate small accesses, streaming dominates large ones, and
/// lock traffic is expensive enough that avoiding it (PFR + aligned file
/// realms, §6.4) is visible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfsCostModel {
    /// Fixed overhead per OST request (RPC handling + block lookup).
    pub request_ns: u64,
    /// Extra charge when a request is discontiguous with the previous one
    /// on the same OST for the same file (disk seek / readahead miss).
    pub seek_ns: u64,
    /// OST streaming time per byte (3.3 ns/B ≈ 300 MB/s per OST).
    pub ns_per_byte: f64,
    /// One-way client↔server network latency.
    pub net_ns: u64,
    /// Client↔server transfer time per byte.
    pub net_ns_per_byte: f64,
    /// Distributed-lock-manager grant latency (uncontended).
    pub lock_grant_ns: u64,
    /// Lock revocation round-trip (callback + owner ack), excluding the
    /// flush of the owner's dirty pages, which is charged at OST rates.
    pub lock_revoke_ns: u64,
    /// Per-byte cost of copying into/out of the client page cache.
    pub cache_copy_ns_per_byte: f64,
}

impl Default for PfsCostModel {
    fn default() -> Self {
        // Calibration notes (see DESIGN.md): with these values a chained
        // per-segment write costs ~90 µs fixed + 4.3 ns/B (+ ~27 µs RMW when
        // unaligned), while data sieving costs ~8.6 ns per *extent* byte —
        // which puts the naive-vs-sieve crossover of Fig. 5 near a 16 KiB
        // datatype extent, as the paper reports.
        PfsCostModel {
            request_ns: 50_000,
            seek_ns: 20_000,
            ns_per_byte: 3.3,
            net_ns: 10_000,
            net_ns_per_byte: 1.0,
            lock_grant_ns: 150_000,
            lock_revoke_ns: 1_500_000,
            cache_copy_ns_per_byte: 0.5,
        }
    }
}

impl PfsCostModel {
    /// A zero-cost model for data-correctness tests.
    pub fn free() -> Self {
        PfsCostModel {
            request_ns: 0,
            seek_ns: 0,
            ns_per_byte: 0.0,
            net_ns: 0,
            net_ns_per_byte: 0.0,
            lock_grant_ns: 0,
            lock_revoke_ns: 0,
            cache_copy_ns_per_byte: 0.0,
        }
    }
}

/// Static layout and feature configuration of the file system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfsConfig {
    /// Number of object storage targets files are striped over.
    pub n_osts: usize,
    /// Stripe size in bytes (Lustre default in the paper: 2 MiB).
    pub stripe_size: u64,
    /// Page size in bytes (4 KiB in the paper; drives RMW and alignment).
    pub page_size: u64,
    /// Enable the extent-lock manager (coherence protocol).
    pub locking: bool,
    /// Lustre-style lock expansion: grants grow into free space (see
    /// [`crate::lock::LockTable`]). Meaningful only with `locking`.
    pub lock_expansion: bool,
    /// Enable the client-side write-back page cache.
    pub client_cache: bool,
    /// Service-time model.
    pub cost: PfsCostModel,
}

impl Default for PfsConfig {
    fn default() -> Self {
        PfsConfig {
            n_osts: 8,
            stripe_size: 2 << 20,
            page_size: 4096,
            locking: true,
            lock_expansion: true,
            client_cache: false,
            cost: PfsCostModel::default(),
        }
    }
}

impl PfsConfig {
    /// Zero-cost, lock-free, cache-free config for data-correctness tests.
    pub fn test_tiny() -> Self {
        PfsConfig {
            n_osts: 4,
            stripe_size: 64,
            page_size: 16,
            locking: false,
            lock_expansion: true,
            client_cache: false,
            cost: PfsCostModel::free(),
        }
    }

    /// Validate invariants (stripe a multiple of page, nonzero sizes).
    pub fn validate(&self) {
        assert!(self.n_osts > 0, "need at least one OST");
        assert!(self.page_size > 0, "page size must be nonzero");
        assert!(
            self.stripe_size.is_multiple_of(self.page_size),
            "stripe size must be a multiple of the page size"
        );
        assert!(!self.client_cache || self.locking, "client cache requires locking for coherence");
    }

    /// Round `off` down to a page boundary.
    pub fn page_floor(&self, off: u64) -> u64 {
        off - off % self.page_size
    }

    /// Round `off` up to a page boundary.
    pub fn page_ceil(&self, off: u64) -> u64 {
        off.div_ceil(self.page_size) * self.page_size
    }

    /// OST index serving the stripe containing `off`.
    pub fn ost_of(&self, off: u64) -> usize {
        ((off / self.stripe_size) % self.n_osts as u64) as usize
    }

    /// Add the bytes of `[off, off + len)` that each OST serves to `out`,
    /// one slot per OST ([`PfsConfig::ost_of`] byte by byte): whole rounds
    /// of stripes at once, so at most `n_osts` partial stripes on either
    /// side are visited.
    pub fn add_ost_bytes(&self, off: u64, len: u64, out: &mut [u64]) {
        let (size, n) = (self.stripe_size, self.n_osts as u64);
        let (mut pos, end) = (off, off + len);
        while pos < end {
            if pos.is_multiple_of(size) && end - pos >= size * n {
                let rounds = (end - pos) / (size * n);
                out.iter_mut().for_each(|o| *o += rounds * size);
                pos += rounds * size * n;
                continue;
            }
            let take = ((pos / size + 1) * size).min(end) - pos;
            out[self.ost_of(pos)] += take;
            pos += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        PfsConfig::default().validate();
        PfsConfig::test_tiny().validate();
    }

    #[test]
    #[should_panic(expected = "multiple of the page size")]
    fn stripe_page_mismatch_rejected() {
        PfsConfig { stripe_size: 100, page_size: 64, ..PfsConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "requires locking")]
    fn cache_without_locking_rejected() {
        PfsConfig { client_cache: true, locking: false, ..PfsConfig::default() }.validate();
    }

    #[test]
    fn page_rounding() {
        let c = PfsConfig { page_size: 16, stripe_size: 64, ..PfsConfig::test_tiny() };
        assert_eq!(c.page_floor(0), 0);
        assert_eq!(c.page_floor(17), 16);
        assert_eq!(c.page_ceil(17), 32);
        assert_eq!(c.page_ceil(32), 32);
    }

    #[test]
    fn ost_round_robin() {
        let c = PfsConfig::test_tiny(); // stripe 64, 4 osts
        assert_eq!(c.ost_of(0), 0);
        assert_eq!(c.ost_of(63), 0);
        assert_eq!(c.ost_of(64), 1);
        assert_eq!(c.ost_of(64 * 4), 0);
    }

    #[test]
    fn ost_bytes_are_ost_of_byte_by_byte() {
        for (stripe_size, n_osts) in (1..=8).flat_map(|s| (1..=4).map(move |n| (s, n))) {
            let c = PfsConfig { stripe_size, n_osts, ..PfsConfig::test_tiny() };
            for (off, len) in (0..40).flat_map(|o| (0..80).map(move |l| (o, l))) {
                let mut got = vec![0u64; n_osts];
                c.add_ost_bytes(off, len, &mut got);
                let mut want = vec![0u64; n_osts];
                (off..off + len).for_each(|b| want[c.ost_of(b)] += 1);
                assert_eq!(got, want, "stripe {stripe_size}, {n_osts} OSTs, [{off}, +{len})");
            }
        }
    }
}
