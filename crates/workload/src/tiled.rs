//! Shared tiled-interleave harness helpers.
//!
//! The integration suites (`tests/engine_pipeline_parity.rs`,
//! `tests/fault_injection.rs` and others) used to carry private copies of
//! the same seeded data generator, file-image probe and tiled collective
//! world; this module is the single home for all of them. The byte streams
//! and world bodies are kept *exactly* as the suites had them, so pinned
//! regression seeds and harvested charge fixtures replay identically.

use flexio_core::{Hints, IoError, MpiFile};
use flexio_pfs::Pfs;
use flexio_sim::{run, CostModel, Stats, XorShift64Star};
use flexio_types::Datatype;
use std::sync::Arc;

/// Each rank's `(elapsed, stats, per-call outcomes, read-back)`.
pub type RankOutcome = (u64, Stats, Vec<Result<(), IoError>>, Vec<u8>);

/// Seeded per-rank, per-step data: deterministic across platforms and
/// identical to what the differential suites have always written.
pub fn step_data(rank: usize, step: u64, len: usize) -> Vec<u8> {
    let mut rng = XorShift64Star::new((rank as u64) << 32 | (step + 1));
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    buf
}

/// Raw file image via an out-of-world probe handle (the probe itself may
/// draw a fault; the bytes are exact either way).
pub fn read_file(pfs: &Arc<Pfs>, path: &str) -> Vec<u8> {
    let h = pfs.open(path, usize::MAX - 1);
    let mut out = vec![0u8; h.size() as usize];
    let _ = h.read(0, 0, &mut out);
    out
}

/// Geometry of one tiled interleave workload: rank `r` of `nprocs` owns
/// the `block`-byte tile at `r*block` of every `nprocs*block` stripe and
/// issues `steps` collective writes of `reps` tiles each.
#[derive(Debug, Clone, Copy)]
pub struct TiledShape {
    /// World size.
    pub nprocs: usize,
    /// Bytes per filetype block.
    pub block: u64,
    /// Filetype repetitions per collective call.
    pub reps: u64,
    /// Collective writes before the optional final collective read.
    pub steps: u64,
}

/// Run the tiled workload on `pfs` under `hints`: `steps` collective
/// writes, then (if `read_back`) one collective read appended to each
/// rank's outcome list.
pub fn run_tiled(
    pfs: &Arc<Pfs>,
    path: &str,
    shape: TiledShape,
    hints: &Hints,
    read_back: bool,
) -> Vec<RankOutcome> {
    let inner = Arc::clone(pfs);
    let hints = hints.clone();
    let path = path.to_string();
    run(shape.nprocs, CostModel::default(), move |rank| {
        let mut f = MpiFile::open(rank, &inner, &path, hints.clone()).unwrap();
        let ftype =
            Datatype::resized(0, shape.nprocs as u64 * shape.block, Datatype::bytes(shape.block));
        f.set_view(rank.rank() as u64 * shape.block, &Datatype::bytes(1), &ftype).unwrap();
        let len = (shape.reps * shape.block) as usize;
        let mut results = Vec::new();
        for s in 0..shape.steps {
            let data = step_data(rank.rank(), s, len);
            results.push(f.write_all(&data, &Datatype::bytes(len as u64), 1));
        }
        let mut back = Vec::new();
        if read_back {
            back = vec![0u8; len];
            results.push(f.read_all(&mut back, &Datatype::bytes(len as u64), 1));
        }
        // The close-time flush has no retry loop; a faulted close still
        // releases everything, so the outcome is not part of any property.
        let _ = f.close();
        (rank.now(), rank.stats(), results, back)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexio_pfs::{PfsConfig, PfsCostModel};

    #[test]
    fn step_data_matches_the_historic_stream() {
        // The pinned regression seeds in the differential suites encode
        // this exact byte stream; guard it against accidental reseeding.
        let mut rng = XorShift64Star::new(1u64 << 32 | 3);
        let mut want = vec![0u8; 24];
        rng.fill_bytes(&mut want);
        assert_eq!(step_data(1, 2, 24), want);
        assert_ne!(step_data(1, 2, 24), step_data(1, 3, 24));
        assert_ne!(step_data(1, 2, 24), step_data(2, 2, 24));
    }

    #[test]
    fn tiled_roundtrip_reads_back_what_it_wrote() {
        let pfs = Pfs::new(PfsConfig {
            n_osts: 2,
            stripe_size: 256,
            page_size: 32,
            locking: false,
            lock_expansion: false,
            client_cache: false,
            cost: PfsCostModel::default(),
        });
        let shape = TiledShape { nprocs: 3, block: 16, reps: 4, steps: 2 };
        let out = run_tiled(&pfs, "t", shape, &Hints::default(), true);
        for (r, (_, _, results, back)) in out.iter().enumerate() {
            assert_eq!(results.len(), 3);
            assert!(results.iter().all(|x| x.is_ok()));
            assert_eq!(back, &step_data(r, shape.steps - 1, back.len()));
        }
        assert_eq!(read_file(&pfs, "t").len(), 3 * 16 * 4);
    }
}
