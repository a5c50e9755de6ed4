//! Hints controlling the collective I/O machinery: one `Hints` struct,
//! its fields named after ROMIO's hints where one exists.

use crate::realm::RealmAssigner;
use flexio_io::IoMethod;
use std::sync::Arc;

/// Which two-phase engine services collective calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The paper's new flexible implementation: datatype-described file
    /// realms, flattened-filetype metadata exchange, pluggable buffer-to-
    /// file methods per cycle.
    #[default]
    Flexible,
    /// Faithful re-implementation of the original ROMIO code path: even
    /// aggregate-access-region partition, fully flattened access metadata,
    /// data sieving integrated with the collective buffer.
    Romio,
}

/// How the data exchange phase moves bytes (§5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangeMode {
    /// Sparse non-blocking sends/receives, overlapped with address
    /// computation: one message per peer that has data.
    #[default]
    Nonblocking,
    /// One `MPI_Alltoallw` per exchange, run as MPICH runs it: one message
    /// per block that has data, posted in its scattered order, none for a
    /// zero count — the same messages as `Nonblocking`, posted in another
    /// order, which is all that tells the two apart on this cost model.
    /// Both flavours send and receive through run lists borrowed
    /// off the user and collective buffers, so neither is charged a pack
    /// or assembly copy.
    Alltoallw,
}

/// How many buffer cycles an engine keeps in flight
/// ([`Hints::pipeline_depth`]). Depth *d* means up to `d − 1` cycles of file
/// I/O outstanding while the next exchange runs: 1 is the strictly serial
/// engine, 2 the classic double buffering, deeper pipelines pay off when
/// one cycle's I/O takes longer than one cycle's exchange. Both engines
/// run on the same pipeline core, so the hint means the same thing under
/// the flexible engine and the ROMIO baseline (ROMIO's read-modify-write
/// pass still blocks inside each cycle; only the final write overlaps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineDepth {
    /// Choose per buffer cycle from the measured I/O:exchange time ratio,
    /// clamped to `[2, 8]`. Reads are also bounded by the aggregator's
    /// share of the file system's stripe width (a prefetch takes OST time
    /// ahead of other aggregators' demand reads); writes are not. Waiting
    /// on in-flight I/O is purely local, so each rank adapts
    /// independently without collective agreement.
    #[default]
    Auto,
    /// Exactly this many cycles in flight. `Fixed(1)` reproduces the
    /// serial engine and `Fixed(2)` the two-stage pipeline, charge for
    /// charge; values above 8 are clamped.
    Fixed(u32),
}

/// Tunables for collective and independent I/O, ROMIO-hint style.
///
/// The data path itself is not a tunable: user data moves as borrowed
/// iovec-style runs through the exchange and the vectored PFS interface,
/// with no pack, assembly or distribution copy. The copies the model
/// charges — and ledgers in [`flexio_sim::Stats::bytes_copied`] — are the
/// two a contiguous staging buffer is really needed for: a sieve-resolved
/// group's copy into (reads: out of) its sieve buffer, and the ROMIO
/// engine's placement into its integrated sieve buffer when a write
/// cycle's requests leave holes.
#[derive(Clone)]
pub struct Hints {
    /// Number of I/O aggregators (`cb_nodes`). `None` = every rank.
    pub cb_nodes: Option<usize>,
    /// Collective buffer size per aggregator per cycle (`cb_buffer_size`).
    pub cb_buffer_size: usize,
    /// How aggregators move the collective buffer to/from the file
    /// (flexible engine only; the ROMIO engine always sieves, §5.1), and
    /// how independent I/O moves a noncontiguous access. A sieved
    /// collective group is one span-wide chunk per realm chunk whatever
    /// the buffer size says, so [`IoMethod::DataSieve`]'s `buffer` (and
    /// [`IoMethod::Conditional`]'s `sieve_buffer`) sizes chunks only for
    /// independent I/O.
    pub io_method: IoMethod,
    /// Align file-realm boundaries to this many bytes (the paper's new
    /// alignment hint, §6.4). Typically the stripe or page size; `Some(1)`
    /// is byte-granular, the unaligned split. Unset, per-call realms cut
    /// by the built-in assigner are aligned to the file's stripe when the
    /// call's region spans a stripe per aggregator and the aligned realms
    /// need no more buffer cycles than the even split (DESIGN
    /// "Stripe-aligned realms when the hint is unset"); persistent realms
    /// and a plugged-in assigner get no alignment.
    pub fr_alignment: Option<u64>,
    /// Keep file realms fixed across collective calls, anchored at byte 0
    /// (persistent file realms, §5.2/§6.4).
    pub persistent_file_realms: bool,
    /// Data exchange flavour (§5.4).
    pub exchange: ExchangeMode,
    /// Pipeline depth policy: how many buffer cycles may be in flight at
    /// once, under both engines — depth *d* is *d* collective buffers per
    /// aggregator, with the exchange for cycle *i+1* overlapping the file
    /// I/O of cycle *i* (at 2, the original ROMIO double-buffering the
    /// paper's §4 inherits).
    pub pipeline_depth: PipelineDepth,
    /// How many times an aggregator retries a transiently failed file-
    /// system request before the collective gives up and agrees on an
    /// error. 0 fails fast on the first fault.
    pub io_retries: u32,
    /// Base backoff before the first retry, microseconds; doubles on each
    /// subsequent retry and is charged in virtual time like any other wait.
    pub retry_backoff_us: u64,
    /// Survive crash-stopped ranks: when a rank dies mid-collective,
    /// survivors agree on the dead set, re-elect aggregators and
    /// re-partition realms over the shrunk group, and replay the
    /// interrupted call idempotently. Off (the default) the collective
    /// terminates with [`IoError::RanksFailed`] on every survivor instead
    /// of hanging.
    ///
    /// [`IoError::RanksFailed`]: crate::error::IoError::RanksFailed
    pub crash_recovery: bool,
    /// Failure-detection watchdog, microseconds of virtual time: how long a
    /// rank waits at a collective boundary for a peer's heartbeat before
    /// suspecting it dead. Only consulted in a crashable world
    /// (`flexio_sim::Rank::crashable`); must comfortably exceed per-cycle
    /// clock skew between ranks or a slow peer is falsely declared dead.
    /// Virtual-time cost only.
    pub watchdog_us: u64,
    /// Engine selection.
    pub engine: Engine,
    /// Custom file-realm assigner; overrides the built-in choice
    /// (even/aligned/persistent) when set. The paper's "plug in a new
    /// optimization function to determine the file realms" (§5.2).
    pub realm_assigner: Option<Arc<dyn RealmAssigner>>,
}

impl Default for Hints {
    fn default() -> Self {
        Hints {
            cb_nodes: None,
            cb_buffer_size: 4 << 20,
            io_method: IoMethod::default(),
            fr_alignment: None,
            persistent_file_realms: false,
            exchange: ExchangeMode::default(),
            pipeline_depth: PipelineDepth::default(),
            io_retries: 4,
            retry_backoff_us: 100,
            crash_recovery: false,
            watchdog_us: 200_000,
            engine: Engine::default(),
            realm_assigner: None,
        }
    }
}

impl std::fmt::Debug for Hints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hints")
            .field("cb_nodes", &self.cb_nodes)
            .field("cb_buffer_size", &self.cb_buffer_size)
            .field("io_method", &self.io_method)
            .field("fr_alignment", &self.fr_alignment)
            .field("persistent_file_realms", &self.persistent_file_realms)
            .field("exchange", &self.exchange)
            .field("pipeline_depth", &self.pipeline_depth)
            .field("io_retries", &self.io_retries)
            .field("retry_backoff_us", &self.retry_backoff_us)
            .field("crash_recovery", &self.crash_recovery)
            .field("watchdog_us", &self.watchdog_us)
            .field("engine", &self.engine)
            .field("realm_assigner", &self.realm_assigner.as_ref().map(|_| "custom"))
            .finish()
    }
}

impl Hints {
    /// Number of aggregators for a world of `nprocs` ranks.
    pub fn aggregators(&self, nprocs: usize) -> usize {
        self.cb_nodes.unwrap_or(nprocs).clamp(1, nprocs)
    }

    /// Validate hint consistency for a world of `nprocs` ranks. This is
    /// what `MpiFile::open`/`set_hints` use, so an oversized `cb_nodes` is
    /// a proper error at the API boundary instead of a silently clamped
    /// schedule. The world-free rules run first, so a set that breaks
    /// several reports the first of them.
    pub fn validate(&self, nprocs: usize) -> crate::error::Result<()> {
        let bad = |msg| Err(crate::error::IoError::BadHints(msg));
        if self.cb_buffer_size == 0 {
            return bad("cb_buffer_size must be nonzero");
        }
        if self.cb_nodes == Some(0) {
            return bad("cb_nodes must be nonzero");
        }
        if matches!(
            self.io_method,
            IoMethod::DataSieve { buffer: 0 } | IoMethod::Conditional { sieve_buffer: 0, .. }
        ) {
            return bad("io_method's sieve buffer must be nonzero");
        }
        if self.fr_alignment == Some(0) {
            return bad("fr_alignment must be nonzero");
        }
        if self.pipeline_depth == PipelineDepth::Fixed(0) {
            return bad("pipeline_depth must be Auto or at least Fixed(1), the serial engine");
        }
        if self.io_retries > 32 {
            return bad("io_retries must be at most 32 (the backoff doubles per retry)");
        }
        if self.watchdog_us == 0 {
            return bad("watchdog_us must be nonzero (a zero watchdog suspects every peer)");
        }
        if self.cb_nodes.is_some_and(|n| n > nprocs) {
            return bad("cb_nodes exceeds world size");
        }
        Ok(())
    }
}

/// Evenly spread `a` aggregator ranks over `nprocs` ranks (ROMIO picks one
/// rank per node; we spread across the rank space).
pub fn aggregator_ranks(a: usize, nprocs: usize) -> Vec<usize> {
    assert!(a >= 1 && a <= nprocs);
    (0..a).map(|i| i * nprocs / a).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hints_valid() {
        let h = Hints::default();
        h.validate(16).unwrap();
        assert_eq!(h.aggregators(16), 16);
    }

    #[test]
    fn cb_nodes_clamped() {
        // aggregators() still clamps defensively even though validate
        // rejects out-of-range cb_nodes at the API boundary.
        let h = Hints { cb_nodes: Some(100), ..Hints::default() };
        assert_eq!(h.aggregators(8), 8);
        let h = Hints { cb_nodes: Some(0), ..Hints::default() };
        assert_eq!(h.aggregators(8), 1);
    }

    #[test]
    fn bad_hints_rejected() {
        let d = Hints::default;
        assert!(Hints { cb_buffer_size: 0, ..d() }.validate(4).is_err());
        assert!(Hints { fr_alignment: Some(0), ..d() }.validate(4).is_err());
        assert!(Hints { cb_nodes: Some(0), ..d() }.validate(4).is_err());
        for io_method in [
            IoMethod::DataSieve { buffer: 0 },
            IoMethod::Conditional { extent_threshold: 1 << 10, sieve_buffer: 0 },
        ] {
            assert!(Hints { io_method, ..d() }.validate(4).is_err(), "{io_method:?}");
        }
        Hints { io_method: IoMethod::DataSieve { buffer: 1 }, ..d() }.validate(4).unwrap();
        Hints { io_method: IoMethod::Naive, ..d() }.validate(4).unwrap();
        assert!(Hints { pipeline_depth: PipelineDepth::Fixed(0), ..d() }.validate(4).is_err());
        Hints { pipeline_depth: PipelineDepth::Fixed(1), ..d() }.validate(4).unwrap();
        Hints { pipeline_depth: PipelineDepth::Fixed(6), ..d() }.validate(4).unwrap();
        assert!(Hints { io_retries: 33, ..d() }.validate(4).is_err());
        Hints { io_retries: 0, retry_backoff_us: 0, ..d() }.validate(4).unwrap();
        Hints { io_retries: 32, ..d() }.validate(4).unwrap();
    }

    #[test]
    fn validate_for_bounds_cb_nodes() {
        let h = Hints { cb_nodes: Some(8), ..Hints::default() };
        h.validate(8).unwrap();
        assert!(h.validate(7).is_err());
        assert!(Hints { cb_nodes: Some(0), ..Hints::default() }.validate(4).is_err());
        Hints::default().validate(1).unwrap();
    }

    #[test]
    fn validate_for_rejections_are_descriptive_bad_hints() {
        use crate::error::IoError;
        let msg = |h: Hints, nprocs| match h.validate(nprocs) {
            Err(IoError::BadHints(msg)) => msg,
            other => panic!("expected BadHints, got {other:?}"),
        };
        let d = Hints::default;
        // Each message names the `Hints` field it is about.
        for (h, field) in [
            (Hints { cb_nodes: Some(5), ..d() }, "cb_nodes exceeds world size"),
            (Hints { io_method: IoMethod::DataSieve { buffer: 0 }, ..d() }, "io_method"),
            (Hints { fr_alignment: Some(0), ..d() }, "fr_alignment"),
            (Hints { pipeline_depth: PipelineDepth::Fixed(0), ..d() }, "pipeline_depth"),
            (Hints { io_retries: 33, ..d() }, "io_retries"),
            (Hints { watchdog_us: 0, ..d() }, "watchdog_us"),
        ] {
            let got = msg(h, 4);
            assert!(got.contains(field), "{field}: got {got:?}");
        }
        // World-free checks run first, so a doubly-bad hint set reports
        // the world-independent problem.
        let got = msg(Hints { cb_buffer_size: 0, cb_nodes: Some(100), ..d() }, 1);
        assert!(got.contains("cb_buffer_size"), "got {got:?}");
        // The boundary case passes: exactly one aggregator per rank.
        Hints { cb_nodes: Some(4), ..d() }.validate(4).unwrap();
    }

    #[test]
    fn crash_recovery_defaults_and_watchdog_bounds() {
        let h = Hints::default();
        assert!(!h.crash_recovery, "recovery must be opt-in");
        assert!(h.watchdog_us > 0);
        assert!(Hints { watchdog_us: 0, ..Hints::default() }.validate(4).is_err());
        Hints { crash_recovery: true, watchdog_us: 1, ..Hints::default() }.validate(4).unwrap();
    }

    #[test]
    fn aggregator_ranks_spread() {
        assert_eq!(aggregator_ranks(4, 8), vec![0, 2, 4, 6]);
        assert_eq!(aggregator_ranks(8, 8), (0..8).collect::<Vec<_>>());
        assert_eq!(aggregator_ranks(1, 5), vec![0]);
        assert_eq!(aggregator_ranks(3, 7), vec![0, 2, 4]);
    }
}
