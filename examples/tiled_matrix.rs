//! Tiled matrix I/O: a 2-D array is decomposed into tiles, one per rank,
//! and written collectively with subarray datatypes — the canonical
//! MPI-IO example. Demonstrates that the same `write_all` call handles
//! strided row accesses efficiently, and compares the two engines.
//!
//! Run with: `cargo run --release --example tiled_matrix`

use flexio::core::{Engine, Hints, MpiFile};
use flexio::pfs::{Pfs, PfsConfig};
use flexio::sim::{run, CostModel};
use flexio::types::{subarray, Datatype};

fn main() {
    // 1024 x 1024 matrix of 8-byte elements, 2 x 2 process grid.
    let (rows, cols, elem) = (1024u64, 1024u64, 8u64);
    let grid = 2u64;
    let nprocs = (grid * grid) as usize;
    let (trows, tcols) = (rows / grid, cols / grid);

    for engine in [Engine::Flexible, Engine::Romio] {
        let pfs = Pfs::new(PfsConfig::default());
        let pfs2 = pfs.clone();
        let times = run(nprocs, CostModel::default(), move |rank| {
            let (pr, pc) = (rank.rank() as u64 / grid, rank.rank() as u64 % grid);
            let sub = subarray(&[rows, cols], &[trows, tcols], &[pr * trows, pc * tcols], elem);
            let hints = Hints { engine, cb_nodes: Some(2), ..Hints::default() };
            let mut f = MpiFile::open(rank, &pfs2, "matrix.bin", hints).unwrap();
            f.set_view(0, &Datatype::bytes(elem), &sub).unwrap();

            // Tile contents: rank id in every element's first byte.
            let tile_bytes = trows * tcols * elem;
            let data: Vec<u8> = (0..tile_bytes)
                .map(|i| if i % elem == 0 { rank.rank() as u8 + 1 } else { 0xEE })
                .collect();
            let t0 = rank.now();
            f.write_all(&data, &Datatype::bytes(tile_bytes), 1).unwrap();
            let elapsed = rank.now() - t0;
            f.close().unwrap();
            rank.allreduce_max(elapsed)
        });

        // Spot-check the four quadrants.
        let h = pfs.open("matrix.bin", usize::MAX - 1);
        for (r, c, want) in
            [(0, 0, 1u8), (0, cols - 1, 2), (rows - 1, 0, 3), (rows - 1, cols - 1, 4)]
        {
            let mut b = [0u8; 1];
            h.read(0, (r * cols + c) * elem, &mut b).unwrap();
            assert_eq!(b[0], want, "element ({r},{c})");
        }
        let total = rows * cols * elem;
        println!(
            "{engine:?}: {} MiB matrix in {:.1} ms -> {:.1} MB/s",
            total >> 20,
            times[0] as f64 / 1e6,
            total as f64 / (times[0] as f64 / 1e9) / 1e6
        );
    }
}
