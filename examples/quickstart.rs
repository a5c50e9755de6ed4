//! Quickstart: four ranks collectively write an interleaved file and read
//! it back, printing per-rank timing and the file-system statistics.
//!
//! Run with: `cargo run --release --example quickstart`

use flexio::core::{Hints, MpiFile};
use flexio::pfs::{Pfs, PfsConfig};
use flexio::sim::{run, CostModel};
use flexio::types::Datatype;

fn main() {
    let nprocs = 4;
    let block = 64 * 1024u64; // 64 KiB blocks
    let nblocks = 16u64;

    // A simulated Lustre-like file system: 8 OSTs, 2 MiB stripes.
    let pfs = Pfs::new(PfsConfig::default());

    let pfs2 = pfs.clone();
    let times = run(nprocs, CostModel::default(), move |rank| {
        // Open collectively, with default hints (flexible engine,
        // conditional data sieving, every rank an aggregator).
        let mut file = MpiFile::open(rank, &pfs2, "quickstart.dat", Hints::default()).unwrap();

        // File view: rank r owns every r-th block of the file.
        let blocktype = Datatype::bytes(block);
        let filetype = Datatype::resized(0, nprocs as u64 * block, blocktype.clone());
        file.set_view(rank.rank() as u64 * block, &blocktype, &filetype).unwrap();

        // Write nblocks blocks, stamped with the rank id.
        let data: Vec<u8> =
            (0..block * nblocks).map(|i| (rank.rank() as u64 * 64 + i % 191) as u8).collect();
        let t0 = rank.now();
        file.write_all(&data, &Datatype::bytes(block * nblocks), 1).unwrap();
        let write_ns = rank.now() - t0;

        // Read it back through the same view and verify.
        let mut back = vec![0u8; data.len()];
        let t1 = rank.now();
        file.read_all(&mut back, &Datatype::bytes(block * nblocks), 1).unwrap();
        let read_ns = rank.now() - t1;
        assert_eq!(back, data, "read-back mismatch on rank {}", rank.rank());

        file.close().unwrap();
        (write_ns, read_ns)
    });

    let total = block * nblocks * nprocs as u64;
    for (r, (w, rd)) in times.iter().enumerate() {
        println!("rank {r}: write {:6.2} ms  read {:6.2} ms", *w as f64 / 1e6, *rd as f64 / 1e6);
    }
    let worst_w = times.iter().map(|t| t.0).max().unwrap();
    println!(
        "aggregate write bandwidth: {:.1} MB/s over {} MiB",
        total as f64 / (worst_w as f64 / 1e9) / 1e6,
        total >> 20
    );
    let s = pfs.stats();
    println!(
        "file system: {} OST requests, {} seeks, {} bytes written",
        s.ost_requests, s.seeks, s.bytes_written
    );
}
