//! # flexio-types — MPI-style derived datatypes for collective I/O
//!
//! This crate provides the data-description layer of the flexio stack:
//!
//! * [`Datatype`] — recursive MPI type constructors (contiguous, vector,
//!   hvector, indexed, hindexed, struct, resized), plus [`subarray()`] for
//!   a tile of a global array;
//! * [`FlatType`] — the *flattened datatype* of the paper's §5.3: the `D`
//!   offset/length pairs of one instance plus extent, the representation
//!   exchanged between clients and aggregators;
//! * [`FileView`] / [`ViewCursor`] — `MPI_File_set_view` semantics with a
//!   streaming cursor that implements the "skip full datatypes"
//!   optimization and counts offset/length-pair evaluations, so the
//!   compute cost of datatype processing is measurable;
//! * [`MemLayout`] — gather/scatter between user buffers described by
//!   (possibly non-monotonic) memory datatypes and packed byte streams.

#![warn(missing_docs)]

pub mod datatype;
pub mod flatten;
pub mod subarray;
pub mod view;

pub use datatype::{Datatype, Dt};
pub use flatten::{flatten, flatten_shared, FlatType, FlattenCache, Seg};
pub use subarray::subarray;
pub use view::{
    pack, CursorPos, FileView, MemLayout, MemRun, MemRuns, Piece, RunOffsets, ViewCursor, ViewError,
};
