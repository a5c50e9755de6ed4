//! Error types for the collective I/O layer.

use flexio_pfs::PfsError;
use flexio_types::ViewError;

/// Errors surfaced by the MPI-IO-like API.
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm, so
/// future failure classes (new fault kinds, quota errors, …) are not a
/// breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IoError {
    /// Invalid file view (bad filetype).
    View(ViewError),
    /// The buffer is too small for `count` instances of the memory type.
    BufferTooSmall {
        /// Bytes required.
        needed: u64,
        /// Bytes provided.
        got: u64,
    },
    /// A hint combination is invalid.
    BadHints(&'static str),
    /// A transient PFS fault persisted through every configured retry
    /// ([`Hints::io_retries`]); collectively agreed, so every rank of the
    /// call returns the same error.
    ///
    /// [`Hints::io_retries`]: crate::Hints::io_retries
    Transient(PfsError),
    /// A PFS fault on a path with no retry loop (independent I/O,
    /// close's flush).
    Pfs(PfsError),
    /// One or more ranks crash-stopped during the collective and
    /// [`Hints::crash_recovery`] is off (or the caller is observing the
    /// failure before replay). Carries the world ranks every survivor
    /// agreed are dead — the same list on every survivor.
    ///
    /// [`Hints::crash_recovery`]: crate::Hints::crash_recovery
    RanksFailed(Vec<usize>),
}

impl From<ViewError> for IoError {
    fn from(e: ViewError) -> Self {
        IoError::View(e)
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::View(e) => write!(f, "invalid file view: {e}"),
            IoError::BufferTooSmall { needed, got } => {
                write!(f, "buffer too small: need {needed} bytes, got {got}")
            }
            IoError::BadHints(s) => write!(f, "bad hints: {s}"),
            IoError::Transient(e) => write!(f, "retries exhausted: {e}"),
            IoError::Pfs(e) => write!(f, "file system error: {e}"),
            IoError::RanksFailed(dead) => {
                write!(f, "{} rank(s) crash-stopped: {dead:?}", dead.len())
            }
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Transient(e) | IoError::Pfs(e) => Some(e),
            _ => None,
        }
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, IoError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = IoError::BufferTooSmall { needed: 10, got: 5 };
        assert!(e.to_string().contains("need 10"));
        let e = IoError::View(ViewError::EmptyFiletype);
        assert!(e.to_string().contains("filetype"));
        assert!(IoError::BadHints("x").to_string().contains("x"));
        let pe = PfsError { kind: flexio_pfs::PfsErrorKind::TransientOst, ost: 2, at: 7 };
        assert!(IoError::Transient(pe).to_string().contains("retries exhausted"));
        assert!(IoError::Pfs(pe).to_string().contains("OST 2"));
    }

    #[test]
    fn source_exposes_wrapped_pfs_error() {
        use std::error::Error;
        let pe = PfsError { kind: flexio_pfs::PfsErrorKind::TransientOst, ost: 1, at: 9 };
        let e = IoError::Transient(pe);
        let src = e.source().expect("wrapped error must be the source");
        assert_eq!(src.downcast_ref::<PfsError>(), Some(&pe));
        assert!(IoError::BadHints("x").source().is_none());
    }

    #[test]
    fn ranks_failed_lists_dead_ranks() {
        use std::error::Error;
        let e = IoError::RanksFailed(vec![1, 3]);
        let s = e.to_string();
        assert!(s.contains("2 rank(s)") && s.contains("[1, 3]"), "{s}");
        assert!(e.source().is_none(), "no underlying PFS fault for a crash");
    }
}
