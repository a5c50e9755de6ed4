//! # flexio-core — a flexible MPI collective I/O implementation
//!
//! Reproduction of *"A New Flexible MPI Collective I/O Implementation"*
//! (IEEE Cluster 2006). The crate provides an MPI-IO-like [`MpiFile`] over
//! the simulated MPI runtime (`flexio-sim`) and parallel file system
//! (`flexio-pfs`), with **two interchangeable two-phase engines**:
//!
//! * [`hints::Engine::Flexible`] — the paper's contribution: file realms
//!   described by datatypes with pluggable [`realm::RealmAssigner`]s
//!   (even, aligned, persistent, load-balanced, or custom), flattened-
//!   filetype metadata exchange (`D` pairs instead of `M`), a collective
//!   buffer decoupled from the sieve buffer so the buffer-to-file method
//!   ([`flexio_io::IoMethod`]) can change every cycle, and a sparse
//!   non-blocking data exchange.
//! * [`hints::Engine::Romio`] — the original ROMIO code path as the
//!   evaluation baseline: even aggregate-access-region split, fully
//!   flattened access metadata, integrated data sieving.
//!
//! Both engines produce byte-identical files; they differ in metadata
//! volume, datatype-processing work, buffer copies, and the file-system
//! access patterns they generate — which is exactly what the paper's
//! evaluation (Figures 4, 5 and 7) measures.

#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod file;
pub mod hints;
pub mod meta;
pub mod realm;

pub use error::{IoError, Result};
pub use file::MpiFile;
pub use hints::{aggregator_ranks, Engine, ExchangeMode, Hints, PipelineDepth};
pub use meta::ClientAccess;
pub use realm::{
    AssignCtx, BalancedLoad, EvenAar, FileRealm, PersistentBlockCyclic, RealmAssigner, RealmSet,
};

#[cfg(test)]
mod tests {
    use super::*;
    use flexio_pfs::{Pfs, PfsConfig, PfsCostModel};
    use flexio_sim::{run, CostModel};
    use flexio_types::Datatype;
    use std::sync::Arc;

    fn small_pfs() -> Arc<Pfs> {
        Pfs::new(PfsConfig {
            n_osts: 4,
            stripe_size: 256,
            page_size: 64,
            locking: false,
            lock_expansion: true,
            client_cache: false,
            cost: PfsCostModel::free(),
        })
    }

    /// Interleaved block write: rank r owns blocks r, r+P, r+2P, ...
    fn interleaved_write(engine: Engine, nprocs: usize, cb_nodes: Option<usize>) -> Vec<u8> {
        let pfs = small_pfs();
        let block = 48u64;
        let nblocks = 7u64;
        {
            let pfs = Arc::clone(&pfs);
            run(nprocs, CostModel::free(), move |rank| {
                let hints = Hints { engine, cb_nodes, cb_buffer_size: 128, ..Hints::default() };
                let mut f = MpiFile::open(rank, &pfs, "f", hints).unwrap();
                let bt = Datatype::bytes(block);
                let ft = Datatype::resized(0, nprocs as u64 * block, bt.clone());
                f.set_view(rank.rank() as u64 * block, &bt, &ft).unwrap();
                let data: Vec<u8> = (0..block * nblocks)
                    .map(|i| (rank.rank() as u64 * 100 + i % 97) as u8)
                    .collect();
                f.write_all(&data, &Datatype::bytes(block * nblocks), 1).unwrap();
                f.close().unwrap();
            });
        }
        let h = pfs.open("f", 999);
        let size = h.size();
        let mut out = vec![0u8; size as usize];
        h.read(0, 0, &mut out).unwrap();
        out
    }

    fn expected_interleaved(nprocs: usize) -> Vec<u8> {
        let block = 48u64;
        let nblocks = 7u64;
        let mut out = vec![0u8; (nprocs as u64 * block * nblocks) as usize];
        for r in 0..nprocs as u64 {
            for b in 0..nblocks {
                for i in 0..block {
                    let file_off = (b * nprocs as u64 + r) * block + i;
                    let data_i = b * block + i;
                    out[file_off as usize] = (r * 100 + data_i % 97) as u8;
                }
            }
        }
        out
    }

    #[test]
    fn flexible_interleaved_write_correct() {
        assert_eq!(interleaved_write(Engine::Flexible, 4, None), expected_interleaved(4));
    }

    #[test]
    fn romio_interleaved_write_correct() {
        assert_eq!(interleaved_write(Engine::Romio, 4, None), expected_interleaved(4));
    }

    #[test]
    fn engines_agree_with_fewer_aggregators() {
        let a = interleaved_write(Engine::Flexible, 6, Some(2));
        let b = interleaved_write(Engine::Romio, 6, Some(2));
        assert_eq!(a, b);
        assert_eq!(a, expected_interleaved(6));
    }

    #[test]
    fn single_rank_collective() {
        assert_eq!(interleaved_write(Engine::Flexible, 1, None), expected_interleaved(1));
    }

    fn roundtrip(engine: Engine) {
        let pfs = small_pfs();
        let outs = run(3, CostModel::free(), move |rank| {
            let hints = Hints { engine, cb_buffer_size: 96, ..Hints::default() };
            let mut f = MpiFile::open(rank, &pfs, "f", hints).unwrap();
            let bt = Datatype::bytes(16);
            let ft = Datatype::resized(0, 48, bt.clone());
            f.set_view(rank.rank() as u64 * 16, &bt, &ft).unwrap();
            let data: Vec<u8> =
                (0..160u32).map(|i| (rank.rank() * 80 + i as usize) as u8).collect();
            f.write_all(&data, &Datatype::bytes(160), 1).unwrap();
            let mut back = vec![0u8; 160];
            f.read_all(&mut back, &Datatype::bytes(160), 1).unwrap();
            f.close().unwrap();
            (data, back)
        });
        for (data, back) in outs {
            assert_eq!(data, back);
        }
    }

    #[test]
    fn write_then_read_all_flexible() {
        roundtrip(Engine::Flexible);
    }

    #[test]
    fn write_then_read_all_romio() {
        roundtrip(Engine::Romio);
    }

    #[test]
    fn noncontig_memory_type() {
        // Memory: 8 data bytes with a 8-byte hole between (extent 16).
        let pfs = small_pfs();
        let outs = run(2, CostModel::free(), move |rank| {
            let mut f = MpiFile::open(rank, &pfs, "f", Hints::default()).unwrap();
            let bt = Datatype::bytes(8);
            let ft = Datatype::resized(0, 16, bt.clone());
            f.set_view(rank.rank() as u64 * 8, &bt, &ft).unwrap();
            let memtype = Datatype::resized(0, 16, Datatype::bytes(8));
            let buf: Vec<u8> = (0..64u32).map(|i| (rank.rank() * 50 + i as usize) as u8).collect();
            f.write_all(&buf, &memtype, 4).unwrap(); // 32 data bytes
            let mut back = vec![0u8; 64];
            f.read_all(&mut back, &memtype, 4).unwrap();
            f.close().unwrap();
            (buf, back)
        });
        for (buf, back) in outs {
            // Only the data regions (every other 8 bytes) must match.
            for inst in 0..4 {
                let lo = inst * 16;
                assert_eq!(buf[lo..lo + 8], back[lo..lo + 8], "instance {inst}");
            }
        }
    }

    #[test]
    fn write_all_at_offset() {
        let pfs = small_pfs();
        let pfs2 = Arc::clone(&pfs);
        run(2, CostModel::free(), move |rank| {
            let mut f = MpiFile::open(rank, &pfs2, "f", Hints::default()).unwrap();
            let bt = Datatype::bytes(4);
            let ft = Datatype::resized(0, 8, bt.clone());
            f.set_view(rank.rank() as u64 * 4, &bt, &ft).unwrap();
            // Write 8 bytes at etype offset 2 (= data byte 8).
            let data = vec![rank.rank() as u8 + 1; 8];
            f.write_all_at(2, &data, &Datatype::bytes(8), 1).unwrap();
            f.close().unwrap();
        });
        let h = pfs.open("f", 9);
        let mut out = vec![0u8; h.size() as usize];
        h.read(0, 0, &mut out).unwrap();
        // Rank 0 data bytes 8..16 are file offsets 16..20 and 24..28;
        // rank 1 shifted by 4.
        assert_eq!(&out[16..20], &[1, 1, 1, 1]);
        assert_eq!(&out[20..24], &[2, 2, 2, 2]);
        assert_eq!(&out[24..28], &[1, 1, 1, 1]);
        assert_eq!(&out[28..32], &[2, 2, 2, 2]);
        assert!(out[..16].iter().all(|&b| b == 0));
    }

    #[test]
    fn independent_write_read() {
        let pfs = small_pfs();
        run(1, CostModel::free(), move |rank| {
            let mut f = MpiFile::open(rank, &pfs, "f", Hints::default()).unwrap();
            let bt = Datatype::bytes(4);
            let ft = Datatype::resized(0, 12, bt.clone());
            f.set_view(0, &bt, &ft).unwrap();
            let data: Vec<u8> = (1..=20).collect();
            f.write_at(0, &data, &Datatype::bytes(20), 1).unwrap();
            let mut back = vec![0u8; 20];
            f.read_at(0, &mut back, &Datatype::bytes(20), 1).unwrap();
            assert_eq!(back, data);
            // Offset read.
            let mut four = vec![0u8; 4];
            f.read_at(1, &mut four, &Datatype::bytes(4), 1).unwrap();
            assert_eq!(four, vec![5, 6, 7, 8]);
            f.close().unwrap();
        });
    }

    #[test]
    fn pfr_realms_stable_across_calls() {
        let pfs = small_pfs();
        let outs = run(2, CostModel::free(), move |rank| {
            let hints = Hints { persistent_file_realms: true, ..Hints::default() };
            let mut f = MpiFile::open(rank, &pfs, "f", hints).unwrap();
            let bt = Datatype::bytes(8);
            let ft = Datatype::resized(0, 16, bt.clone());
            f.set_view(rank.rank() as u64 * 8, &bt, &ft).unwrap();
            let mut sizes = Vec::new();
            for step in 0..3u8 {
                let data = vec![step + 1; 32];
                f.write_all_at(step as u64 * 4, &data, &Datatype::bytes(32), 1).unwrap();
                sizes.push(f.size());
            }
            let mut back = vec![0u8; 32];
            f.read_all_at(0, &mut back, &Datatype::bytes(32), 1).unwrap();
            f.close().unwrap();
            back
        });
        for back in outs {
            assert_eq!(back, vec![1u8; 32]);
        }
    }

    #[test]
    fn only_persistent_realms_are_locked_ahead() {
        // Two aggregators, two stripes each, the same stripe-aligned
        // realms in all three calls either way. Persistent realms are
        // asked for ahead: one exact grant each, for good. Per-call realms
        // are asked for like any access: the first arrival's grant grows
        // over the whole file and falls to the second's request.
        let traffic = |pfr: bool| {
            let pfs = Pfs::new(PfsConfig {
                n_osts: 4,
                stripe_size: 256,
                page_size: 64,
                locking: true,
                lock_expansion: true,
                client_cache: true,
                cost: PfsCostModel::free(),
            });
            let inner = Arc::clone(&pfs);
            run(2, CostModel::free(), move |rank| {
                let hints = Hints {
                    persistent_file_realms: pfr,
                    fr_alignment: Some(256),
                    ..Hints::default()
                };
                let mut f = MpiFile::open(rank, &inner, "f", hints).unwrap();
                let bt = Datatype::bytes(8);
                let ft = Datatype::resized(0, 16, bt.clone());
                f.set_view(rank.rank() as u64 * 8, &bt, &ft).unwrap();
                for step in 0..3u8 {
                    f.write_all_at(0, &[step + 1; 512], &Datatype::bytes(512), 1).unwrap();
                }
                f.close().unwrap();
            });
            let s = pfs.stats();
            (s.lock_grants, s.lock_revocations)
        };
        assert_eq!(traffic(true), (2, 0));
        let (grants, revocations) = traffic(false);
        assert!(
            grants > 2 && revocations > 0,
            "per-call realms: {grants} grants, {revocations} revocations"
        );
    }

    #[test]
    fn buffer_too_small_rejected() {
        let pfs = small_pfs();
        run(1, CostModel::free(), move |rank| {
            let f = MpiFile::open(rank, &pfs, "f", Hints::default()).unwrap();
            let err = f.write_all(&[0u8; 4], &Datatype::bytes(8), 1).unwrap_err();
            assert!(matches!(err, IoError::BufferTooSmall { needed: 8, got: 4 }));
        });
    }

    #[test]
    fn zero_count_participates() {
        // Rank 1 writes nothing but still participates collectively.
        let pfs = small_pfs();
        let pfs2 = Arc::clone(&pfs);
        run(2, CostModel::free(), move |rank| {
            let mut f = MpiFile::open(rank, &pfs2, "f", Hints::default()).unwrap();
            let bt = Datatype::bytes(4);
            f.set_view(0, &bt, &bt).unwrap();
            if rank.rank() == 0 {
                f.write_all(&[7u8; 12], &Datatype::bytes(12), 1).unwrap();
            } else {
                f.write_all(&[], &Datatype::bytes(1), 0).unwrap();
            }
            f.close().unwrap();
        });
        let h = pfs.open("f", 9);
        assert_eq!(h.size(), 12);
    }

    #[test]
    fn custom_realm_assigner_plugs_in() {
        // A deliberately skewed assigner: first aggregator owns everything.
        #[derive(Debug)]
        struct AllToFirst;
        impl RealmAssigner for AllToFirst {
            fn assign(&self, ctx: &AssignCtx<'_>) -> Vec<FileRealm> {
                let mut v = vec![FileRealm::contiguous(ctx.aar.0, ctx.aar.1)];
                for _ in 1..ctx.n_aggregators {
                    v.push(FileRealm::contiguous(ctx.aar.1, ctx.aar.1));
                }
                v
            }
            fn name(&self) -> &'static str {
                "all-to-first"
            }
        }
        let pfs = small_pfs();
        let pfs2 = Arc::clone(&pfs);
        run(3, CostModel::free(), move |rank| {
            let hints = Hints { realm_assigner: Some(Arc::new(AllToFirst)), ..Hints::default() };
            let mut f = MpiFile::open(rank, &pfs2, "f", hints).unwrap();
            let bt = Datatype::bytes(8);
            let ft = Datatype::resized(0, 24, bt.clone());
            f.set_view(rank.rank() as u64 * 8, &bt, &ft).unwrap();
            let data = vec![rank.rank() as u8 + 1; 24];
            f.write_all(&data, &Datatype::bytes(24), 1).unwrap();
            f.close().unwrap();
        });
        let h = pfs.open("f", 9);
        let mut out = vec![0u8; 72];
        h.read(0, 0, &mut out).unwrap();
        for blk in 0..9 {
            let want = (blk % 3 + 1) as u8;
            assert!(out[blk * 8..blk * 8 + 8].iter().all(|&b| b == want), "block {blk} wrong");
        }
    }

    #[test]
    fn timing_flexible_vector_costs_more_pairs_than_struct() {
        // The Fig. 4 mechanism in miniature: an enumerated filetype makes
        // clients/aggregators evaluate many more offset/length pairs.
        let pfs = small_pfs();
        let nregions = 256u64;
        let region = 8u64;
        let spacing = 8u64;
        let pairs_for = |succinct: bool| {
            let pfs = Arc::clone(&pfs);
            let stats = run(4, CostModel::default(), move |rank| {
                let hints = Hints { cb_nodes: Some(2), ..Hints::default() };
                let mut f = MpiFile::open(rank, &pfs, &format!("f{succinct}"), hints).unwrap();
                let bt = Datatype::bytes(region);
                let stride = (region + spacing) * 4;
                let ft = if succinct {
                    Datatype::resized(0, stride, bt.clone())
                } else {
                    Datatype::vector(nregions, 1, (stride / region) as i64, bt.clone())
                };
                f.set_view(rank.rank() as u64 * (region + spacing), &bt, &ft).unwrap();
                let total = nregions * region;
                let data = vec![rank.rank() as u8; total as usize];
                f.write_all(&data, &Datatype::bytes(total), 1).unwrap();
                f.close().unwrap();
                rank.stats().pairs_processed
            });
            stats.iter().sum::<u64>()
        };
        let succinct = pairs_for(true);
        let enumerated = pairs_for(false);
        assert!(
            enumerated > succinct * 2,
            "enumerated {enumerated} should dwarf succinct {succinct}"
        );
    }
}
