//! The suites' shared data stream, file-image probe and tiled world.
//!
//! [`TiledShape`] builds the tiled interleave's views and writes, and
//! [`run_tiled`] runs them on the executor ([`FileWorld`]); the bench's
//! checkpoint ablations time the same calls. Streams and calls are kept
//! *exactly* as the suites had them, so pinned regression seeds and
//! harvested charge fixtures replay identically.

use crate::runner::{Call, FileWorld, Io, PhaseResult, Timing, View};
use flexio_core::Hints;
use flexio_pfs::Pfs;
use flexio_sim::XorShift64Star;
use flexio_types::Datatype;
use std::sync::Arc;

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

impl TiledShape {
    /// Bytes one rank moves per call.
    pub fn call_len(&self) -> usize {
        (self.reps * self.block) as usize
    }

    /// Rank `rank`'s view, set at open: its tile of every stripe.
    pub fn view(&self, rank: usize) -> View {
        let stripe = self.nprocs as u64 * self.block;
        (rank as u64 * self.block, Datatype::resized(0, stripe, Datatype::bytes(self.block)))
    }

    /// Rank `rank`'s write of `step`: fresh [`step_data`] over its tiles.
    pub fn write(&self, rank: usize, step: u64) -> Call {
        Call::contiguous(Io::Write(step_data(rank, step, self.call_len())))
    }
}

/// Run the tiled workload on `pfs` under `hints`, untimed: `steps`
/// collective writes, then (if `read_back`) one collective read, whose
/// outcome ends each rank's outcome list.
pub fn run_tiled(
    pfs: &Arc<Pfs>,
    path: &str,
    shape: TiledShape,
    hints: &Hints,
    read_back: bool,
) -> PhaseResult {
    FileWorld::new(pfs, path, hints, Timing::Untimed).run(
        shape.nprocs,
        shape.steps + read_back as u64,
        |r| Some(shape.view(r)),
        |r, i| {
            if i < shape.steps {
                shape.write(r, i)
            } else {
                Call::contiguous(Io::Read(shape.call_len()))
            }
        },
    )
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
        for (r, (results, back)) in out.outcomes.iter().zip(&out.read_backs).enumerate() {
            assert_eq!(results.len(), 3);
            assert!(results.iter().all(|x| x.is_ok()));
            assert_eq!(back, &step_data(r, shape.steps - 1, back.len()));
        }
        assert_eq!(read_file(&pfs, "t").len(), 3 * 16 * 4);
    }
}
