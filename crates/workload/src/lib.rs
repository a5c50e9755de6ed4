//! # flexio-workload — seeded, structured workload generation
//!
//! The benches and hand-written suites exercise HPIO's *regular* strided
//! patterns; the flexible engine exists precisely for everything else.
//! This crate turns "everything else" into a first-class, reusable layer
//! (the ViPIOS stance from PAPERS.md): a typed [`WorkloadSpec`] names a
//! scenario family from the loosely-coupled many-task world of Zhang et
//! al. — N-to-1 shared-file checkpoint, N-to-N restart with *shifted*
//! rank counts, many-task independent-region writes, read-heavy analysis
//! scans, and randomized mixed subarray / irregular views — and carries
//! everything needed to run it: per-phase rank counts, per-rank datatypes
//! and displacements, hint knobs, PFS geometry, and a fault plan.
//!
//! The pipeline is `spec → materialization → oracle`:
//!
//! * [`gen::generate`] draws a spec from the property harness's
//!   [`XorShift64Star`](flexio_sim::XorShift64Star), so specs shrink with
//!   the harness's greedy case shrinking and replay from `cc` regression
//!   lines;
//! * [`runner::run_spec`] materializes the spec against a real
//!   [`Pfs`](flexio_pfs::Pfs) under a chosen engine, faulted or not
//!   ([`runner::RunConfig`]), one world per phase (rank counts may differ
//!   phase to phase — that is the restart scenario's point) on the
//!   executor every collective file world shares, [`FileWorld`];
//! * [`oracle::Oracle`] computes the expected file image and expected
//!   read-backs engine-free, straight from the datatypes, so differential
//!   suites have an independent referee.
//!
//! The crate also hosts the shared data stream, file-image probe and
//! tiled world the integration suites share ([`tiled`]),
//! and the crash workload ([`crash`]): its one rank body
//! writes a generation under a victim schedule, the driver commits each
//! generation with [`epoch`]'s double-slot headers after its world, and
//! its restart world runs on [`FileWorld`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crash;
pub mod epoch;
pub mod gen;
pub mod oracle;
pub mod runner;
pub mod spec;
pub mod tiled;

pub use crash::{
    assert_writer_tiles, expected_epoch_image, generate_crash, run_crash_checkpoint,
    verify_crash_checkpoint, CrashOutcome, CrashScenario, RankRecord,
};
pub use gen::generate;
pub use oracle::{eq_padded, Oracle};
pub use runner::{
    check_invariants, run_phase, run_spec, Call, FileWorld, Io, PhaseResult, RunConfig, RunOutcome,
    Timing, View,
};
pub use spec::{
    checkpoint_spec, many_task_spec, mixed_subarray_spec, read_scan_spec, restart_spec, PfsShape,
    PhaseOp, PhaseSpec, RankPlan, ScenarioKind, WorkloadSpec,
};
pub use tiled::{read_file, run_tiled, step_data, TiledShape};
