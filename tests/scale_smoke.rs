//! Scale smoke tests: worlds far beyond the paper's 64 processes,
//! runnable in one host process only because of the fiber rank runtime.
//! Byte-identity is checked against an independently computed expected
//! file image, and every rank's phase buckets must still sum to its
//! clock.
//!
//! Tier-1 (`cargo test`, debug or release) runs the 512-rank case. The
//! 4096- and 16384-rank cases are `#[ignore]`d, release-scale runs:
//! `scripts/verify.sh` runs the 4096-rank one on every change (seconds
//! in release, most of a minute in debug), the CI `scale` job and
//! `verify.sh --thorough` run both (`--release -- --ignored`; the
//! 16384-rank world takes minutes).

use flexio::core::{Hints, MpiFile};
use flexio::pfs::{Pfs, PfsConfig, PfsCostModel};
use flexio::sim::{run, CostModel, XorShift64Star};
use flexio::types::Datatype;
use std::sync::Arc;

const BLOCK: u64 = 32;

fn rank_data(rank: usize, len: usize) -> Vec<u8> {
    let mut rng = XorShift64Star::new((rank as u64) << 20 | 1);
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    buf
}

/// Collective write + read-back at `nprocs` ranks with `cb` aggregators,
/// interleaved `BLOCK`-byte blocks, `blocks` filetype instances per rank.
/// The invariants: expected file image, correct read-back, and phase
/// buckets summing to each rank's clock.
fn scale_roundtrip(nprocs: usize, cb: usize, blocks: u64) {
    let pfs = Pfs::new(PfsConfig {
        n_osts: 16,
        stripe_size: 1 << 16,
        page_size: 4096,
        locking: false,
        lock_expansion: false,
        client_cache: false,
        cost: PfsCostModel::default(),
    });
    let pfs2 = Arc::clone(&pfs);
    let len = (blocks * BLOCK) as usize;
    let out = run(nprocs, CostModel::default(), move |rank| {
        let hints = Hints { cb_nodes: Some(cb), ..Hints::default() };
        let mut f = MpiFile::open(rank, &pfs2, "scale", hints).unwrap();
        let block = Datatype::bytes(BLOCK);
        let ftype = Datatype::resized(0, nprocs as u64 * BLOCK, block);
        f.set_view(rank.rank() as u64 * BLOCK, &Datatype::bytes(1), &ftype).unwrap();
        let data = rank_data(rank.rank(), len);
        f.write_all(&data, &Datatype::bytes(len as u64), 1).unwrap();
        let mut back = vec![0u8; len];
        f.read_all(&mut back, &Datatype::bytes(len as u64), 1).unwrap();
        f.close().unwrap();
        (rank.now(), rank.stats(), back)
    });

    // Independently computed expected image: rank r's i-th block lands at
    // byte (i * nprocs + r) * BLOCK.
    let mut expected = vec![0u8; nprocs * len];
    for r in 0..nprocs {
        let data = rank_data(r, len);
        for i in 0..blocks as usize {
            let off = (i * nprocs + r) * BLOCK as usize;
            expected[off..off + BLOCK as usize]
                .copy_from_slice(&data[i * BLOCK as usize..(i + 1) * BLOCK as usize]);
        }
    }
    let h = pfs.open("scale", usize::MAX - 1);
    let mut image = vec![0u8; h.size() as usize];
    h.read(0, 0, &mut image).unwrap();
    assert_eq!(image.len(), expected.len(), "file size wrong at {nprocs} ranks");
    assert_eq!(image, expected, "file image wrong at {nprocs} ranks");

    for (r, (now, s, back)) in out.iter().enumerate() {
        assert_eq!(back, &rank_data(r, len), "rank {r} read-back wrong");
        assert!(*now > 0, "rank {r} clock never advanced");
        assert_eq!(
            s.phase_ns.iter().sum::<u64>(),
            *now,
            "rank {r} phase buckets must sum to its clock"
        );
    }
}

#[test]
fn scale_smoke_512_ranks() {
    scale_roundtrip(512, 16, 2);
}

#[test]
#[ignore = "release-scale run; exercised by verify.sh and the CI scale job"]
fn scale_smoke_4096_ranks() {
    scale_roundtrip(4096, 64, 2);
}

#[test]
#[ignore = "release-scale run; exercised by the CI scale job and verify.sh --thorough"]
fn scale_smoke_16384_ranks() {
    scale_roundtrip(16384, 128, 2);
}
