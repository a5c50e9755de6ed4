//! Plugging in a custom file-realm assigner — the extension point §5.2 of
//! the paper motivates: "one can easily plug in a new optimization
//! function to determine the file realms in a completely different
//! scheme". Here we build a topology-aware assigner that gives aggregators
//! sharing an "I/O node" adjacent realms (the paper's BG/L example), and
//! compare it with the built-in assigners on a clustered workload.
//!
//! The engine holds a plugged-in assigner to the `RealmAssigner`
//! contract: one realm per aggregator, contiguous realms pairwise
//! disjoint, every byte of the aggregate access region owned once. A set
//! that breaks it fails the collective call with the same
//! `IoError::BadHints` on every rank, before any byte is written; the
//! `unwrap`s below would report it.
//!
//! Run with: `cargo run --release --example custom_realms`

use flexio::core::{AssignCtx, BalancedLoad, EvenAar, FileRealm, Hints, MpiFile, RealmAssigner};
use flexio::pfs::{Pfs, PfsConfig};
use flexio::sim::{run, CostModel};
use flexio::types::Datatype;
use std::sync::Arc;

/// Aggregators that share an I/O node get adjacent file realms, improving
/// cache locality on the I/O node (§5.2's BG/L scenario). The realms are
/// the same even split, but *permuted* so that node-mates are neighbours.
#[derive(Debug)]
struct IoNodeAware {
    aggs_per_node: usize,
}

impl RealmAssigner for IoNodeAware {
    fn assign(&self, ctx: &AssignCtx<'_>) -> Vec<FileRealm> {
        let (lo, hi) = ctx.aar;
        let a = ctx.n_aggregators as u64;
        let len = hi - lo;
        // Even boundaries, but realm k is handed to the aggregator whose
        // (node, slot) ordering puts node-mates on consecutive chunks.
        let mut order: Vec<usize> = (0..ctx.n_aggregators).collect();
        order.sort_by_key(|&i| (i % self.aggs_per_node, i / self.aggs_per_node));
        let mut realms = vec![FileRealm::contiguous(0, 0); ctx.n_aggregators];
        for (chunk, &agg) in order.iter().enumerate() {
            let b0 = lo + len * chunk as u64 / a;
            let b1 = lo + len * (chunk as u64 + 1) / a;
            realms[agg] = FileRealm::contiguous(b0, b1);
        }
        realms
    }

    fn name(&self) -> &'static str {
        "io-node-aware"
    }
}

fn time_with(assigner: Arc<dyn RealmAssigner>, nprocs: usize) -> u64 {
    let pfs = Pfs::new(PfsConfig::default());
    let out = run(nprocs, CostModel::default(), move |rank| {
        let hints = Hints {
            realm_assigner: Some(Arc::clone(&assigner)),
            cb_nodes: Some(nprocs / 2),
            ..Hints::default()
        };
        let mut f = MpiFile::open(rank, &pfs, "custom", hints).unwrap();
        // Clustered workload: each rank writes a 256 KiB block at the
        // front of the file; rank 0 adds a straggler byte at 256 MiB.
        let block: u64 = 256 << 10;
        let bt = Datatype::bytes(1);
        let t0;
        if rank.rank() == 0 {
            let ft = Datatype::hindexed(vec![(0, block), (256 << 20, 1)], Datatype::bytes(1));
            f.set_view(0, &bt, &ft).unwrap();
            let data = vec![1u8; block as usize + 1];
            t0 = rank.now();
            f.write_all(&data, &Datatype::bytes(block + 1), 1).unwrap();
        } else {
            f.set_view(rank.rank() as u64 * block, &bt, &Datatype::bytes(block)).unwrap();
            let data = vec![1u8; block as usize];
            t0 = rank.now();
            f.write_all(&data, &Datatype::bytes(block), 1).unwrap();
        }
        let elapsed = rank.now() - t0;
        f.close().unwrap();
        rank.allreduce_max(elapsed)
    });
    out[0]
}

fn main() {
    let nprocs = 8;
    println!("clustered write, {nprocs} ranks, 4 aggregators:");
    for (name, assigner) in [
        ("even-aar (ROMIO default)", Arc::new(EvenAar) as Arc<dyn RealmAssigner>),
        ("balanced-load (§7)", Arc::new(BalancedLoad)),
        ("io-node-aware (custom)", Arc::new(IoNodeAware { aggs_per_node: 2 })),
    ] {
        let ns = time_with(assigner, nprocs);
        println!("  {name:28} {:8.2} ms", ns as f64 / 1e6);
    }
    println!("\nThe balanced assigner routes all clusters to distinct aggregators;");
    println!("the even split funnels everything through aggregator 0 because the");
    println!("straggler byte stretches the aggregate access region 1000x.");
}
