//! MPI-style derived datatypes.
//!
//! A [`Datatype`] describes a (possibly non-contiguous) layout of bytes. It
//! mirrors the MPI type constructors that matter for file views and memory
//! buffers: contiguous, vector, hvector, indexed, hindexed, struct, and
//! resized. Elementary types are modelled as opaque byte runs of a given
//! size ([`Datatype::bytes`]); the library never interprets element values.
//!
//! Displacement conventions follow MPI:
//! * `Vector`/`Indexed` strides and displacements are in units of the
//!   *child extent*;
//! * `Hvector`/`Hindexed`/`Struct` displacements are in bytes;
//! * `Resized` overrides the lower bound and extent.

use std::sync::Arc;

/// Shared handle to a datatype. Cloning is O(1).
pub type Dt = Arc<Datatype>;

/// A derived datatype: a recipe for a typemap of byte segments.
///
/// `Hash`/`Eq` are structural, so a `Datatype` can key the content-addressed
/// flatten cache ([`crate::FlattenCache`]): two independently
/// constructed but identical type trees share one flattening.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Datatype {
    /// An elementary run of `0` or more bytes (e.g. 4 for an `MPI_INT`).
    Bytes(u64),
    /// `count` copies of `child`, tiled at the child's extent.
    Contiguous {
        /// Number of copies.
        count: u64,
        /// Replicated type.
        child: Dt,
    },
    /// `count` blocks of `blocklen` children; block `k` starts at
    /// `k * stride` child-extents.
    Vector {
        /// Number of blocks.
        count: u64,
        /// Children per block.
        blocklen: u64,
        /// Stride between block starts, in units of the child extent.
        stride: i64,
        /// Replicated type.
        child: Dt,
    },
    /// Like `Vector` but the stride is in bytes.
    Hvector {
        /// Number of blocks.
        count: u64,
        /// Children per block.
        blocklen: u64,
        /// Stride between block starts, in bytes.
        stride: i64,
        /// Replicated type.
        child: Dt,
    },
    /// Blocks of children at displacements given in child extents.
    Indexed {
        /// `(displacement_in_child_extents, blocklen)` per block.
        blocks: Vec<(i64, u64)>,
        /// Replicated type.
        child: Dt,
    },
    /// Blocks of children at byte displacements.
    Hindexed {
        /// `(displacement_in_bytes, blocklen)` per block.
        blocks: Vec<(i64, u64)>,
        /// Replicated type.
        child: Dt,
    },
    /// Heterogeneous blocks: `(byte_displacement, count, child)` per field.
    Struct {
        /// `(byte_displacement, count, child)` per field.
        fields: Vec<(i64, u64, Dt)>,
    },
    /// `child` with an explicit lower bound and extent.
    Resized {
        /// New lower bound in bytes.
        lb: i64,
        /// New extent in bytes.
        extent: u64,
        /// Wrapped type.
        child: Dt,
    },
}

impl Datatype {
    /// Elementary type: `n` contiguous bytes.
    pub fn bytes(n: u64) -> Dt {
        Arc::new(Datatype::Bytes(n))
    }

    /// `count` copies of `child` back to back (at the child's extent).
    pub fn contiguous(count: u64, child: Dt) -> Dt {
        Arc::new(Datatype::Contiguous { count, child })
    }

    /// Strided blocks; `stride` in child extents.
    pub fn vector(count: u64, blocklen: u64, stride: i64, child: Dt) -> Dt {
        Arc::new(Datatype::Vector { count, blocklen, stride, child })
    }

    /// Strided blocks; `stride` in bytes.
    pub fn hvector(count: u64, blocklen: u64, stride: i64, child: Dt) -> Dt {
        Arc::new(Datatype::Hvector { count, blocklen, stride, child })
    }

    /// Blocks at displacements measured in child extents.
    pub fn indexed(blocks: Vec<(i64, u64)>, child: Dt) -> Dt {
        Arc::new(Datatype::Indexed { blocks, child })
    }

    /// Blocks at byte displacements.
    pub fn hindexed(blocks: Vec<(i64, u64)>, child: Dt) -> Dt {
        Arc::new(Datatype::Hindexed { blocks, child })
    }

    /// Heterogeneous struct; fields are `(byte_displacement, count, child)`.
    pub fn structure(fields: Vec<(i64, u64, Dt)>) -> Dt {
        Arc::new(Datatype::Struct { fields })
    }

    /// Override lower bound and extent (MPI_Type_create_resized).
    pub fn resized(lb: i64, extent: u64, child: Dt) -> Dt {
        Arc::new(Datatype::Resized { lb, extent, child })
    }

    /// Total number of data bytes in one instance of the type.
    pub fn size(&self) -> u64 {
        match self {
            Datatype::Bytes(n) => *n,
            Datatype::Contiguous { count, child } => count * child.size(),
            Datatype::Vector { count, blocklen, child, .. }
            | Datatype::Hvector { count, blocklen, child, .. } => count * blocklen * child.size(),
            Datatype::Indexed { blocks, child } | Datatype::Hindexed { blocks, child } => {
                blocks.iter().map(|(_, bl)| bl).sum::<u64>() * child.size()
            }
            Datatype::Struct { fields } => fields.iter().map(|(_, c, ch)| c * ch.size()).sum(),
            Datatype::Resized { child, .. } => child.size(),
        }
    }

    /// `(lower_bound, upper_bound)` of the typemap, in bytes. The extent is
    /// `ub - lb`. Empty types report `(0, 0)`.
    pub fn bounds(&self) -> (i64, i64) {
        match self {
            Datatype::Bytes(n) => (0, *n as i64),
            Datatype::Contiguous { count, child } => {
                if *count == 0 {
                    return (0, 0);
                }
                let (lb, ub) = child.bounds();
                let ext = child.extent() as i64;
                (lb, (*count as i64 - 1) * ext + ub)
            }
            Datatype::Vector { count, blocklen, stride, child } => {
                let ext = child.extent() as i64;
                block_bounds((0..*count).map(|k| k as i64 * stride * ext), *blocklen, child)
            }
            Datatype::Hvector { count, blocklen, stride, child } => {
                block_bounds((0..*count).map(|k| k as i64 * stride), *blocklen, child)
            }
            Datatype::Indexed { blocks, child } => {
                let ext = child.extent() as i64;
                blocks
                    .iter()
                    .filter(|(_, bl)| *bl > 0)
                    .map(|(d, bl)| single_block_bounds(d * ext, *bl, child))
                    .fold(None, merge_bounds)
                    .unwrap_or((0, 0))
            }
            Datatype::Hindexed { blocks, child } => blocks
                .iter()
                .filter(|(_, bl)| *bl > 0)
                .map(|(d, bl)| single_block_bounds(*d, *bl, child))
                .fold(None, merge_bounds)
                .unwrap_or((0, 0)),
            Datatype::Struct { fields } => fields
                .iter()
                .filter(|(_, c, _)| *c > 0)
                .map(|(d, c, ch)| single_block_bounds(*d, *c, ch))
                .fold(None, merge_bounds)
                .unwrap_or((0, 0)),
            Datatype::Resized { lb, extent, .. } => (*lb, lb + *extent as i64),
        }
    }

    /// Lower bound of the typemap in bytes.
    pub fn lb(&self) -> i64 {
        self.bounds().0
    }

    /// Extent in bytes: the stride at which consecutive instances tile.
    pub fn extent(&self) -> u64 {
        let (lb, ub) = self.bounds();
        (ub - lb).max(0) as u64
    }

    /// True if one instance is a single gap-free run of bytes whose size
    /// equals its extent (so consecutive instances are also contiguous).
    pub fn is_contiguous(&self) -> bool {
        let f = crate::flatten::flatten(self);
        f.contiguous && f.size == f.extent
    }
}

fn single_block_bounds(displ: i64, blocklen: u64, child: &Dt) -> (i64, i64) {
    let (lb, ub) = child.bounds();
    let ext = child.extent() as i64;
    (displ + lb, displ + (blocklen as i64 - 1) * ext + ub)
}

fn block_bounds(displs: impl Iterator<Item = i64>, blocklen: u64, child: &Dt) -> (i64, i64) {
    if blocklen == 0 {
        return (0, 0);
    }
    displs
        .map(|d| single_block_bounds(d, blocklen, child))
        .fold(None, merge_bounds)
        .unwrap_or((0, 0))
}

fn merge_bounds(acc: Option<(i64, i64)>, b: (i64, i64)) -> Option<(i64, i64)> {
    Some(match acc {
        None => b,
        Some((lo, hi)) => (lo.min(b.0), hi.max(b.1)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_size_extent() {
        let t = Datatype::bytes(7);
        assert_eq!(t.size(), 7);
        assert_eq!(t.extent(), 7);
        assert_eq!(t.lb(), 0);
    }

    #[test]
    fn contiguous_of_bytes() {
        let t = Datatype::contiguous(5, Datatype::bytes(4));
        assert_eq!(t.size(), 20);
        assert_eq!(t.extent(), 20);
    }

    #[test]
    fn empty_contiguous() {
        let t = Datatype::contiguous(0, Datatype::bytes(4));
        assert_eq!(t.size(), 0);
        assert_eq!(t.extent(), 0);
    }

    #[test]
    fn vector_size_and_extent() {
        // 3 blocks of 2 ints, stride 4 ints: |xx..xx..xx|
        let t = Datatype::vector(3, 2, 4, Datatype::bytes(4));
        assert_eq!(t.size(), 24);
        // last block starts at 2*4*4=32 bytes, ends at 32+8=40
        assert_eq!(t.extent(), 40);
    }

    #[test]
    fn vector_negative_stride() {
        let t = Datatype::vector(2, 1, -3, Datatype::bytes(4));
        // blocks at 0 and -12; lb=-12, ub=4
        assert_eq!(t.bounds(), (-12, 4));
        assert_eq!(t.extent(), 16);
        assert_eq!(t.size(), 8);
    }

    #[test]
    fn hvector_extent_in_bytes() {
        let t = Datatype::hvector(3, 1, 10, Datatype::bytes(4));
        assert_eq!(t.extent(), 24);
        assert_eq!(t.size(), 12);
    }

    #[test]
    fn indexed_bounds() {
        let t = Datatype::indexed(vec![(2, 1), (0, 2)], Datatype::bytes(4));
        // child extent 4: block A at 8 len 4; block B at 0 len 8
        assert_eq!(t.bounds(), (0, 12));
        assert_eq!(t.size(), 12);
    }

    #[test]
    fn hindexed_bounds() {
        let t = Datatype::hindexed(vec![(5, 2), (20, 1)], Datatype::bytes(3));
        assert_eq!(t.bounds(), (5, 23));
        assert_eq!(t.size(), 9);
    }

    #[test]
    fn struct_mixed_children() {
        let t = Datatype::structure(vec![
            (0, 1, Datatype::bytes(4)),
            (16, 2, Datatype::contiguous(2, Datatype::bytes(1))),
        ]);
        assert_eq!(t.size(), 8);
        assert_eq!(t.bounds(), (0, 20));
    }

    #[test]
    fn resized_overrides_extent() {
        let t = Datatype::resized(0, 100, Datatype::bytes(4));
        assert_eq!(t.size(), 4);
        assert_eq!(t.extent(), 100);
    }

    #[test]
    fn resized_negative_lb() {
        let t = Datatype::resized(-4, 12, Datatype::bytes(4));
        assert_eq!(t.bounds(), (-4, 8));
        assert_eq!(t.extent(), 12);
    }

    #[test]
    fn nested_vector_of_vector() {
        let inner = Datatype::vector(2, 1, 2, Datatype::bytes(4)); // extent 12, size 8
        assert_eq!(inner.extent(), 12);
        let outer = Datatype::vector(2, 1, 2, inner);
        // stride 2 * inner extent = 24; last block at 24, ub 24+12=36
        assert_eq!(outer.extent(), 36);
        assert_eq!(outer.size(), 16);
    }

    #[test]
    fn contiguity_detection() {
        assert!(Datatype::bytes(8).is_contiguous());
        assert!(Datatype::contiguous(4, Datatype::bytes(2)).is_contiguous());
        assert!(Datatype::vector(1, 3, 1, Datatype::bytes(4)).is_contiguous());
        assert!(!Datatype::vector(2, 1, 2, Datatype::bytes(4)).is_contiguous());
        // resized adds a trailing gap -> not contiguous for tiling
        assert!(!Datatype::resized(0, 10, Datatype::bytes(4)).is_contiguous());
    }

    #[test]
    fn subarray_2d_shape() {
        // 4x4 array of 1-byte elements, 2x2 block at (1,1)
        let t = crate::subarray(&[4, 4], &[2, 2], &[1, 1], 1);
        assert_eq!(t.size(), 4);
        assert_eq!(t.extent(), 16);
        let f = crate::flatten::flatten(&t);
        let offs: Vec<(i64, u64)> = f.segs.iter().map(|s| (s.off, s.len)).collect();
        assert_eq!(offs, vec![(5, 2), (9, 2)]);
    }
}
