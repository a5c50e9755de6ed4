//! Property-based equivalence: for randomized workloads, the flexible
//! engine (under any hint combination) and the ROMIO baseline must
//! produce byte-identical files, and collective reads must return
//! exactly what collective writes stored.

use flexio::core::{Engine, Hints, MpiFile};
use flexio::io::IoMethod;
use flexio::pfs::{Pfs, PfsConfig, PfsCostModel};
use flexio::sim::prop::Runner;
use flexio::sim::{run, CostModel, XorShift64Star};
use flexio::types::{Datatype, Dt};
use std::sync::Arc;

/// A randomized per-rank access pattern: strided blocks, rank-shifted.
#[derive(Debug, Clone)]
struct StridedSpec {
    /// World size.
    nprocs: usize,
    /// Data bytes per filetype block.
    block: u64,
    /// Hole after each block.
    gap: u64,
    /// Filetype instances written per rank.
    count: u64,
    /// Per-rank view displacement unit (usually `block + gap`).
    disp_unit: u64,
}

impl StridedSpec {
    /// The shared filetype: one `block` every `(block+gap)*nprocs` bytes.
    fn filetype(&self) -> Dt {
        let unit = (self.block + self.gap) * self.nprocs as u64;
        Datatype::resized(0, unit, Datatype::bytes(self.block))
    }

    /// Rank `r`'s view displacement.
    fn disp(&self, rank: usize) -> u64 {
        rank as u64 * self.disp_unit
    }

    /// Data bytes each rank writes.
    fn bytes_per_rank(&self) -> u64 {
        self.block * self.count
    }

    /// Rank `r`'s deterministic payload (the historic byte formula of the
    /// suite — pinned proptest regressions depend on it).
    fn data(&self, rank: usize) -> Vec<u8> {
        (0..self.bytes_per_rank()).map(|i| ((rank as u64 * 89 + i * 13 + 5) % 247) as u8).collect()
    }
}

#[test]
fn filetype_tiles_do_not_overlap_across_ranks() {
    let w = StridedSpec { nprocs: 3, block: 4, gap: 2, count: 5, disp_unit: 6 };
    // Rank tiles land at disp + k*unit: byte ranges must be disjoint.
    let unit = (w.block + w.gap) * w.nprocs as u64;
    let mut seen = std::collections::BTreeSet::new();
    for r in 0..w.nprocs {
        for k in 0..w.count {
            for b in 0..w.block {
                assert!(seen.insert(w.disp(r) + k * unit + b), "overlap at rank {r}");
            }
        }
    }
}

#[test]
fn data_formula_is_pinned() {
    let w = StridedSpec { nprocs: 2, block: 3, gap: 0, count: 1, disp_unit: 3 };
    assert_eq!(w.data(0), vec![5, 18, 31]);
    assert_eq!(w.data(1), vec![94, 107, 120]);
}

/// A draw in `[lo, lo + range)`: shrinks toward `lo`.
fn draw(rng: &mut XorShift64Star, lo: u64, range: u64) -> u64 {
    lo + rng.next_u64() % range
}

fn coin(rng: &mut XorShift64Star) -> bool {
    draw(rng, 0, 2) == 1
}

fn arb_workload(rng: &mut XorShift64Star) -> StridedSpec {
    let (nprocs, block, gap, count) =
        (draw(rng, 2, 4) as usize, draw(rng, 1, 47), draw(rng, 0, 64), draw(rng, 1, 23));
    StridedSpec { nprocs, block, gap, count, disp_unit: block + gap }
}

/// A property's runner, replaying the suite's pinned cases first.
fn runner(name: &'static str) -> Runner {
    Runner::new(name).cases(24).regressions(include_str!("engine_equivalence.proptest-regressions"))
}

fn tiny_pfs() -> Arc<Pfs> {
    Pfs::new(PfsConfig {
        n_osts: 3,
        stripe_size: 192,
        page_size: 32,
        locking: false,
        lock_expansion: true,
        client_cache: false,
        cost: PfsCostModel::free(),
    })
}

fn image(pfs: &Arc<Pfs>, path: &str) -> Vec<u8> {
    let h = pfs.open(path, usize::MAX - 1);
    let mut out = vec![0u8; h.size() as usize];
    h.read(0, 0, &mut out).unwrap();
    out
}

fn run_write(w: &StridedSpec, hints: Hints) -> Vec<u8> {
    let pfs = tiny_pfs();
    run(w.nprocs, CostModel::free(), |rank| {
        let mut f = MpiFile::open(rank, &pfs, "eq", hints.clone()).unwrap();
        f.set_view(w.disp(rank.rank()), &Datatype::bytes(1), &w.filetype()).unwrap();
        let data = w.data(rank.rank());
        f.write_all(&data, &Datatype::bytes(w.bytes_per_rank()), 1).unwrap();
        f.close().unwrap();
    });
    image(&pfs, "eq")
}

/// Flexible and ROMIO engines agree byte for byte.
#[test]
fn engines_agree() {
    runner("engines_agree").run(
        |rng| (arb_workload(rng), 1usize << draw(rng, 6, 6), draw(rng, 1, 5) as usize),
        |(w, cb, aggs)| {
            let base = Hints {
                cb_nodes: Some((*aggs).min(w.nprocs)),
                cb_buffer_size: *cb,
                ..Hints::default()
            };
            let flexible = run_write(w, Hints { engine: Engine::Flexible, ..base.clone() });
            let romio = run_write(w, Hints { engine: Engine::Romio, ..base });
            assert_eq!(flexible, romio);
        },
    );
}

/// Hint combinations never change the bytes, only the timing.
#[test]
fn hints_do_not_change_bytes() {
    runner("hints_do_not_change_bytes").run(
        |rng| (arb_workload(rng), [coin(rng), coin(rng), coin(rng), coin(rng)]),
        // The third coin was the exchange flavour's: still drawn so that a
        // pinned seed replays the case it always drew.
        |(w, [pfr, align, _, naive])| {
            let reference = run_write(w, Hints::default());
            let hints = Hints {
                persistent_file_realms: *pfr,
                fr_alignment: Some(if *align { 192 } else { 1 }),
                io_method: if *naive {
                    IoMethod::Naive
                } else {
                    IoMethod::DataSieve { buffer: 128 }
                },
                cb_buffer_size: 256,
                ..Hints::default()
            };
            assert_eq!(reference, run_write(w, hints));
        },
    );
}

/// `write_all` then `read_all` round-trips under random hints.
#[test]
fn write_read_roundtrip() {
    runner("write_read_roundtrip").run(
        |rng| (arb_workload(rng), draw(rng, 1, 5) as usize, coin(rng)),
        |(w, aggs, romio)| {
            let pfs = tiny_pfs();
            let outs = run(w.nprocs, CostModel::free(), |rank| {
                let hints = Hints {
                    engine: if *romio { Engine::Romio } else { Engine::Flexible },
                    cb_nodes: Some((*aggs).min(w.nprocs)),
                    cb_buffer_size: 512,
                    ..Hints::default()
                };
                let mut f = MpiFile::open(rank, &pfs, "rt", hints).unwrap();
                f.set_view(w.disp(rank.rank()), &Datatype::bytes(1), &w.filetype()).unwrap();
                let data = w.data(rank.rank());
                f.write_all(&data, &Datatype::bytes(w.bytes_per_rank()), 1).unwrap();
                let mut back = vec![0u8; data.len()];
                f.read_all(&mut back, &Datatype::bytes(w.bytes_per_rank()), 1).unwrap();
                f.close().unwrap();
                (data, back)
            });
            for (data, back) in outs {
                assert_eq!(data, back);
            }
        },
    );
}

/// Independent I/O through a view agrees with collective I/O.
#[test]
fn independent_agrees_with_collective() {
    runner("independent_agrees_with_collective").run(arb_workload, |w| {
        let collective = run_write(w, Hints::default());
        // Same pattern via independent write_at from each rank in turn.
        let pfs = tiny_pfs();
        run(w.nprocs, CostModel::free(), |rank| {
            let mut f = MpiFile::open(rank, &pfs, "ind", Hints::default()).unwrap();
            f.set_view(w.disp(rank.rank()), &Datatype::bytes(1), &w.filetype()).unwrap();
            let data = w.data(rank.rank());
            f.write_at(0, &data, &Datatype::bytes(w.bytes_per_rank()), 1).unwrap();
            f.close().unwrap();
        });
        assert_eq!(collective, image(&pfs, "ind"));
    });
}

/// The one case the external proptest crate ever pinned for this suite
/// (its 256-bit seed means nothing to the in-repo harness, so the shrunk
/// value it recorded is replayed as is): the same bytes from both
/// engines at collective-buffer sizes and aggregator counts across
/// `engines_agree`'s ranges.
#[test]
fn pinned_proptest_case() {
    let w = StridedSpec { nprocs: 5, block: 43, gap: 59, count: 6, disp_unit: 102 };
    let reference = run_write(&w, Hints::default());
    for engine in [Engine::Flexible, Engine::Romio] {
        for cb_buffer_size in [64, 256, 2048] {
            for aggs in 1..=5 {
                let hints =
                    Hints { engine, cb_nodes: Some(aggs), cb_buffer_size, ..Hints::default() };
                let got = run_write(&w, hints);
                assert_eq!(reference, got, "{engine:?} cb {cb_buffer_size} aggs {aggs}");
            }
        }
    }
}
