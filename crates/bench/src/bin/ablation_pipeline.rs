//! Ablation A5 — pipelined buffer cycles (§4 double buffering).
//!
//! Serial vs pipelined buffer cycles on the E1 HPIO write workload, for
//! BOTH engines at equal depth — the cycles run on the shared pipeline
//! core, so `flexio_pipeline_depth` means the same thing under the
//! flexible engine and the ROMIO baseline: same bytes, same exchange
//! work, but the pipelined run (depth 2) overlaps the exchange for cycle
//! i+1 with the file I/O of cycle i. Reports the slowest rank's
//! collective-write time, the summed hidden time, and verifies every
//! engine × mode combination leaves a byte-identical file image.
//!
//! `--engine {romio,flexible,both}` selects the engines (default both).
//! Paper scale (`--paper`): 64 procs, 4096 regions, aggregators {8, 32}.
//! Default scale: 16 procs, 1024 regions, aggregators {4, 8}.

use flexio_bench::{engines_from_args, mbps, print_table, Scale};
use flexio_core::{Engine, Hints, MpiFile, PipelineDepth};
use flexio_hpio::{HpioSpec, TypeStyle};
use flexio_pfs::{Pfs, PfsConfig};
use flexio_sim::{run, CostModel};
use flexio_types::Datatype;
use std::sync::Arc;

/// One collective write; returns (slowest rank ns, total hidden ns, image).
fn run_once(spec: HpioSpec, hints: &Hints, path: &str) -> (u64, u64, Vec<u8>) {
    let pfs = Pfs::new(PfsConfig::default());
    let inner = Arc::clone(&pfs);
    let path_owned = path.to_string();
    let hints = hints.clone();
    let out = run(spec.nprocs, CostModel::default(), move |rank| {
        let mut f = MpiFile::open(rank, &inner, &path_owned, hints.clone()).unwrap();
        let (disp, ftype) = spec.file_view(rank.rank(), TypeStyle::Succinct);
        f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
        let buf = spec.make_buffer(rank.rank());
        rank.barrier();
        let t0 = rank.now();
        f.write_all(&buf, &spec.mem_type(), spec.mem_count()).unwrap();
        let elapsed = rank.now() - t0;
        f.close().unwrap();
        (rank.allreduce_max(elapsed), rank.stats().overlap_saved_ns)
    });
    let slowest = out[0].0;
    let hidden: u64 = out.iter().map(|(_, h)| h).sum();
    let h = pfs.open(path, usize::MAX - 1);
    let mut image = vec![0u8; h.size() as usize];
    h.read(0, 0, &mut image).unwrap();
    (slowest, hidden, image)
}

fn main() {
    let scale = Scale::from_args();
    let engines = engines_from_args();
    let (nprocs, regions, agg_counts): (usize, u64, Vec<usize>) = if scale.paper {
        (64, 4096, vec![8, 32])
    } else {
        (16, 1024, vec![4, 8])
    };
    let (nprocs, agg_counts) = match scale.nprocs {
        Some(n) => (n, vec![(n / 8).max(1), (n / 2).max(1)]),
        None => (nprocs, agg_counts),
    };
    let spec = HpioSpec {
        region_size: 512,
        region_count: regions,
        region_spacing: 128,
        mem_noncontig: true,
        file_noncontig: true,
        nprocs,
    };

    println!("# Ablation A5 — pipelined buffer cycles (§4 double buffering)");
    println!("# {}", scale.describe());
    println!("# E1 workload: {nprocs} procs, {regions} regions of 512 B, spacing 128 B");
    println!("# columns: aggs,engine,mode,ns,mbps,hidden_ns");
    let mut series: Vec<(String, Vec<f64>)> = engines
        .iter()
        .flat_map(|(e, _)| {
            [(format!("{e} serial"), Vec::new()), (format!("{e} pipelined"), Vec::new())]
        })
        .collect();
    for &aggs in &agg_counts {
        // A small collective buffer forces many buffer cycles per call —
        // the regime double buffering targets (one cycle has nothing to
        // overlap with).
        // Depth 1 against depth 2: this ablation isolates the original §4
        // double-buffering win; ablation_depth studies deeper pipelines.
        let hints = |engine: Engine, depth: u32| Hints {
            engine,
            cb_nodes: Some(aggs),
            cb_buffer_size: 256 << 10,
            pipeline_depth: PipelineDepth::Fixed(depth),
            ..Hints::default()
        };
        let best = |engine: Engine, depth: u32, path: &str| {
            let mut first: Option<(u64, u64, Vec<u8>)> = None;
            for _ in 0..scale.best_of {
                let (ns, hidden, image) = run_once(spec, &hints(engine, depth), path);
                first = Some(match first.take() {
                    None => (ns, hidden, image),
                    Some(b) => {
                        assert_eq!(b.2, image, "repetitions diverge");
                        if ns < b.0 { (ns, hidden, image) } else { b }
                    }
                });
            }
            first.unwrap()
        };
        let mut baseline: Option<Vec<u8>> = None;
        let mut col = 0;
        for &(ename, engine) in &engines {
            let (ns_s, hid_s, img_s) = best(engine, 1, "a5_serial");
            let (ns_p, hid_p, img_p) = best(engine, 2, "a5_pipelined");
            for (mode, ns, hid, img) in
                [("serial", ns_s, hid_s, &img_s), ("pipelined", ns_p, hid_p, &img_p)]
            {
                match &baseline {
                    None => baseline = Some(img.clone()),
                    Some(b) => assert_eq!(
                        b, img,
                        "file images diverge at {ename} {mode}, {aggs} aggs"
                    ),
                }
                let bw = mbps(spec.aggregate_bytes(), ns);
                println!("{aggs},{ename},{mode},{ns},{bw:.2},{hid}");
                series[col].1.push(bw);
                col += 1;
            }
            assert!(
                ns_p <= ns_s,
                "{ename}: pipelined ({ns_p} ns) slower than serial ({ns_s} ns) at {aggs} aggs"
            );
        }
    }
    let xs: Vec<String> = agg_counts.iter().map(|a| a.to_string()).collect();
    print_table("serial vs pipelined — I/O bandwidth (MB/s)", "aggs", &xs, &series);
    println!("\nfile images byte-identical across engines and modes at every aggregator count");
    println!("pipelined never slower than serial for any engine");
}
