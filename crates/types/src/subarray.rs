//! N-dimensional subarray and distributed-array datatype constructors —
//! the `MPI_Type_create_subarray` / `MPI_Type_create_darray` conveniences
//! that scientific applications use to describe tiles and block-cyclic
//! decompositions of global arrays.

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

/// Distribution kinds for [`darray`] dimensions (a subset of
/// `MPI_Type_create_darray`'s options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// `MPI_DISTRIBUTE_BLOCK`: contiguous blocks of `ceil(n/p)` elements.
    Block,
    /// `MPI_DISTRIBUTE_CYCLIC(k)`: round-robin blocks of `k` elements.
    Cyclic(u64),
    /// `MPI_DISTRIBUTE_NONE`: the dimension is not distributed.
    None,
}

/// Build the datatype selecting one process's portion of a block/cyclic
/// distributed global array (row-major). `psizes` is the process grid;
/// `coords` this process's grid coordinates.
pub fn darray(
    sizes: &[u64],
    distribs: &[Distribution],
    psizes: &[u64],
    coords: &[u64],
    elem_size: u64,
) -> Dt {
    let ndims = sizes.len();
    assert!(ndims > 0);
    assert_eq!(distribs.len(), ndims);
    assert_eq!(psizes.len(), ndims);
    assert_eq!(coords.len(), ndims);
    for d in 0..ndims {
        assert!(coords[d] < psizes[d], "coordinate out of grid in dimension {d}");
        if matches!(distribs[d], Distribution::None) {
            assert_eq!(psizes[d], 1, "DISTRIBUTE_NONE requires a 1-wide grid dimension");
        }
    }

    // Per-dimension list of (start, len) element ranges owned by this rank.
    let owned: Vec<Vec<(u64, u64)>> = (0..ndims)
        .map(|d| match distribs[d] {
            Distribution::None => vec![(0, sizes[d])],
            Distribution::Block => {
                let b = sizes[d].div_ceil(psizes[d]);
                let start = (coords[d] * b).min(sizes[d]);
                let end = ((coords[d] + 1) * b).min(sizes[d]);
                if start < end {
                    vec![(start, end - start)]
                } else {
                    vec![]
                }
            }
            Distribution::Cyclic(k) => {
                assert!(k > 0, "cyclic block size must be positive");
                let mut v = Vec::new();
                let mut s = coords[d] * k;
                while s < sizes[d] {
                    v.push((s, k.min(sizes[d] - s)));
                    s += k * psizes[d];
                }
                v
            }
        })
        .collect();

    // Innermost dimension first: blocks of contiguous elements.
    let ndim_last = ndims - 1;
    let mut dt =
        blocks_to_type(&owned[ndim_last], elem_size, Datatype::bytes(elem_size), elem_size);
    let mut row_bytes = sizes[ndim_last] * elem_size;
    for d in (0..ndim_last).rev() {
        dt = blocks_to_type(&owned[d], row_bytes, dt, row_bytes);
        row_bytes *= sizes[d];
    }
    let total: u64 = sizes.iter().product::<u64>() * elem_size;
    Datatype::resized(0, total, dt)
}

/// Hindexed wrapper placing `child` at each `(start, len)` block scaled by
/// `unit` bytes; `child_stride` is the byte stride between consecutive
/// child instances inside a block.
fn blocks_to_type(blocks: &[(u64, u64)], unit: u64, child: Dt, child_stride: u64) -> Dt {
    if blocks.is_empty() {
        // Own nothing in this dimension: an empty type.
        return Datatype::bytes(0);
    }
    let per_block: Vec<(i64, u64, Dt)> = blocks
        .iter()
        .map(|&(start, len)| {
            let inner = if len == 1 {
                child.clone()
            } else {
                Datatype::hvector(len, 1, child_stride as i64, child.clone())
            };
            ((start * unit) as i64, 1u64, inner)
        })
        .collect();
    Datatype::structure(per_block)
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

    #[test]
    fn darray_block_1d() {
        // 10 elements over 3 procs, block: ceil(10/3)=4 -> 4,4,2.
        let t0 = darray(&[10], &[Distribution::Block], &[3], &[0], 1);
        let t1 = darray(&[10], &[Distribution::Block], &[3], &[1], 1);
        let t2 = darray(&[10], &[Distribution::Block], &[3], &[2], 1);
        assert_eq!(segs(&t0), vec![(0, 4)]);
        assert_eq!(segs(&t1), vec![(4, 4)]);
        assert_eq!(segs(&t2), vec![(8, 2)]);
        // Every element owned exactly once.
        let total: u64 = [&t0, &t1, &t2].iter().map(|t| t.size()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn darray_cyclic_1d() {
        // 10 elements, cyclic(2) over 2 procs.
        let t0 = darray(&[10], &[Distribution::Cyclic(2)], &[2], &[0], 1);
        let t1 = darray(&[10], &[Distribution::Cyclic(2)], &[2], &[1], 1);
        assert_eq!(segs(&t0), vec![(0, 2), (4, 2), (8, 2)]);
        assert_eq!(segs(&t1), vec![(2, 2), (6, 2)]);
    }

    #[test]
    fn darray_2d_block_block() {
        // 4x4 over a 2x2 grid: quadrants.
        for (coords, want) in [
            ([0u64, 0u64], vec![(0i64, 2u64), (4, 2)]),
            ([0, 1], vec![(2, 2), (6, 2)]),
            ([1, 0], vec![(8, 2), (12, 2)]),
            ([1, 1], vec![(10, 2), (14, 2)]),
        ] {
            let t =
                darray(&[4, 4], &[Distribution::Block, Distribution::Block], &[2, 2], &coords, 1);
            assert_eq!(segs(&t), want, "coords {coords:?}");
            assert_eq!(t.extent(), 16);
        }
    }

    #[test]
    fn darray_none_dimension() {
        // Rows distributed, columns whole.
        let t = darray(&[4, 4], &[Distribution::Block, Distribution::None], &[2, 1], &[1, 0], 1);
        assert_eq!(segs(&t), vec![(8, 8)]);
    }

    #[test]
    fn darray_partition_complete_2d_cyclic() {
        // Full coverage check: every byte of a 6x6 array owned by exactly
        // one rank of a 2x3 grid under cyclic(1) x cyclic(2).
        let mut owner = vec![0u32; 36];
        for pr in 0..2u64 {
            for pc in 0..3u64 {
                let t = darray(
                    &[6, 6],
                    &[Distribution::Cyclic(1), Distribution::Cyclic(2)],
                    &[2, 3],
                    &[pr, pc],
                    1,
                );
                for s in flatten(&t).segs {
                    for b in s.off..s.end() {
                        owner[b as usize] += 1;
                    }
                }
            }
        }
        assert!(owner.iter().all(|&c| c == 1), "ownership not a partition: {owner:?}");
    }

    #[test]
    fn darray_more_procs_than_blocks() {
        // 3 elements over 4 procs, block size ceil(3/4)=1: proc 3 owns none.
        let t3 = darray(&[3], &[Distribution::Block], &[4], &[3], 1);
        assert_eq!(t3.size(), 0);
    }
}
