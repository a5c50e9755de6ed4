//! The N-dimensional subarray datatype constructor — the
//! `MPI_Type_create_subarray` convenience that scientific applications
//! use to describe a tile of a global array.

use crate::datatype::{Datatype, Dt};

/// Build the datatype selecting an N-dimensional subarray of a global
/// array (row-major order, like `MPI_ORDER_C`).
///
/// * `sizes` — global array extent per dimension (elements);
/// * `subsizes` — selected block extent per dimension;
/// * `starts` — block origin per dimension;
/// * `elem_size` — bytes per element.
///
/// The result is resized to the full array extent, so tiling it in a file
/// view leaves the rest of the array untouched.
pub fn subarray(sizes: &[u64], subsizes: &[u64], starts: &[u64], elem_size: u64) -> Dt {
    assert!(!sizes.is_empty(), "subarray needs at least one dimension");
    assert_eq!(sizes.len(), subsizes.len());
    assert_eq!(sizes.len(), starts.len());
    for d in 0..sizes.len() {
        assert!(starts[d] + subsizes[d] <= sizes[d], "subarray out of bounds in dimension {d}");
        assert!(subsizes[d] > 0, "empty subarray dimension {d}");
    }
    // Innermost dimension: a contiguous run of elements.
    let ndims = sizes.len();
    let mut dt = Datatype::bytes(subsizes[ndims - 1] * elem_size);
    // Row stride of the innermost dimension in bytes.
    let mut row_bytes = sizes[ndims - 1] * elem_size;
    // Wrap outward: each outer dimension strides by the global row size.
    for d in (0..ndims - 1).rev() {
        dt = Datatype::hvector(subsizes[d], 1, row_bytes as i64, dt);
        row_bytes *= sizes[d];
    }
    // Shift to the block origin.
    let mut origin = 0u64;
    let mut stride = elem_size;
    for d in (0..ndims).rev() {
        origin += starts[d] * stride;
        stride *= sizes[d];
    }
    let placed = Datatype::structure(vec![(origin as i64, 1, dt)]);
    let total: u64 = sizes.iter().product::<u64>() * elem_size;
    Datatype::resized(0, total, placed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatten::flatten;

    fn segs(dt: &Dt) -> Vec<(i64, u64)> {
        flatten(dt).segs.iter().map(|s| (s.off, s.len)).collect()
    }

    #[test]
    fn subarray_1d() {
        let t = subarray(&[10], &[4], &[3], 2);
        assert_eq!(segs(&t), vec![(6, 8)]);
        assert_eq!(t.extent(), 20);
    }

    #[test]
    fn subarray_3d() {
        // 2x3x4 array of 1-byte elements; select [1..2, 1..3, 1..3].
        let t = subarray(&[2, 3, 4], &[1, 2, 2], &[1, 1, 1], 1);
        // plane 1 (offset 12), rows 1..3 (offsets 4, 8), cols 1..3.
        assert_eq!(segs(&t), vec![(12 + 4 + 1, 2), (12 + 8 + 1, 2)]);
        assert_eq!(t.extent(), 24);
        assert_eq!(t.size(), 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn subarray_bounds_checked() {
        let _ = subarray(&[4, 4], &[2, 2], &[3, 1], 1);
    }
}
