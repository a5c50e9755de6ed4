//! The two-phase collective I/O engines.
//!
//! [`flexible`] is the paper's new implementation; [`romio`] re-implements
//! the original ROMIO code path as the evaluation baseline. Both move the
//! same bytes — integration tests assert byte equality — but they charge
//! different computation, metadata volume, and buffer copies, which is
//! where the Fig. 4 performance differences come from.

pub mod common;
pub mod flexible;
pub(crate) mod pipeline;
pub mod recovery;
pub mod romio;
pub mod schedule;

pub use common::{merge_pieces, ClientStream};
pub use flexible::DataBuf;
pub use flexio_types::Piece;
pub use schedule::{CycleSchedule, ExchangeSchedule};
