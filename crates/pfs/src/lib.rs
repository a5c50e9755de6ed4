//! # flexio-pfs — a striped parallel file system simulator
//!
//! Substitute for the paper's Lustre testbed. Files are striped round-robin
//! over OSTs; every OST has a virtual-time pipeline (per-request overhead,
//! seek charges on discontiguity, per-byte streaming, page-granular
//! read-modify-write for unaligned writes). A distributed-lock-manager
//! analogue hands out stripe-expanded extent locks and revokes conflicting
//! holders — flushing their client-side write-back page caches — which is
//! the mechanism behind the paper's persistent-file-realm and file-realm-
//! alignment results (§6.4) and the 4 KiB alignment spikes of Fig. 5.
//!
//! Data contents are always byte-exact; only *time* is modelled.
//!
//! Operations are fallible: an installed [`FaultPlan`] can inject
//! transient per-OST request errors, torn writes and straggler-OST
//! service-time multipliers, all deterministically from a seed. Without a
//! plan, ops never fail and the timing is charge-identical to the
//! pre-fault simulator.
//!
//! ```
//! use flexio_pfs::{Pfs, PfsConfig};
//!
//! let pfs = Pfs::new(PfsConfig::test_tiny());
//! let h = pfs.open("demo", 0);
//! let t = h.write(0, 10, b"hello").unwrap();
//! let mut buf = [0u8; 5];
//! let _t2 = h.read(t, 10, &mut buf).unwrap();
//! assert_eq!(&buf, b"hello");
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod calendar;
pub mod config;
pub mod extent;
pub mod fault;
pub mod fs;
pub mod lock;
pub mod log;

pub use cache::{ClientCache, DirtyRun};
pub use config::{PfsConfig, PfsCostModel};
pub use extent::ExtentSet;
pub use fault::{FaultInjector, FaultPlan, PfsError, PfsErrorKind, StragglerSpec};
pub use fs::{FileHandle, FileObj, IoCompletion, Pfs, RunCursor, RunCursorMut, StatsSnapshot};
pub use lock::{Acquire, LockKind, LockTable};
pub use log::{
    inversions, log_ost_service, service, take_ost_logs, OstKind, OstLog, OstRecord, OstService,
};
