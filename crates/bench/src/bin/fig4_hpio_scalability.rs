//! Figure 4: HPIO, non-contiguous in memory and file, collective write
//! bandwidth vs region size, one panel per aggregator count, three
//! methods: `new+struct`, `new+vect`, `old+vec`.
//!
//! Paper scale (`--paper`): 64 procs, 4096 regions/client, 128 B spacing,
//! region size 8 B – 4 KiB, aggregators ∈ {8, 16, 24, 32}.
//! Default scale: 16 procs, 1024 regions, aggregators ∈ {2, 4, 6, 8} —
//! same shape, seconds of wall time.

use flexio_bench::{hpio_collective_write_sample, mbps, print_table, Scale};
use flexio_core::{Engine, Hints};
use flexio_hpio::{HpioSpec, TypeStyle};
use flexio_pfs::{Pfs, PfsConfig};

fn main() {
    let scale = Scale::from_args();
    let (default_procs, regions): (usize, u64) =
        if scale.paper { (64, 4096) } else { (16, 1024) };
    let nprocs = scale.nprocs_or(default_procs);
    // Aggregator counts keep the paper's fractions of the process count
    // (1/8, 1/4, 3/8, 1/2) so `--nprocs 1024` sweeps the same shape.
    let agg_counts: Vec<usize> = [nprocs / 8, nprocs / 4, 3 * nprocs / 8, nprocs / 2]
        .iter()
        .map(|&a| a.max(1))
        .collect();
    // `--sizes 64,1024` restricts the region-size sweep — the >64-rank
    // addendum rows use this to keep large-world runs to representative
    // points instead of the full ten-size panel.
    let args: Vec<String> = std::env::args().collect();
    let region_sizes: Vec<u64> = args
        .iter()
        .position(|a| a == "--sizes")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.split(',').filter_map(|s| s.parse().ok()).collect())
        .filter(|v: &Vec<u64>| !v.is_empty())
        .unwrap_or_else(|| vec![8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]);
    let methods: [(&str, Engine, TypeStyle); 3] = [
        ("new+struct", Engine::Flexible, TypeStyle::Succinct),
        ("new+vect", Engine::Flexible, TypeStyle::Enumerated),
        ("old+vec", Engine::Romio, TypeStyle::Enumerated),
    ];

    println!("# Fig. 4 — HPIO: {nprocs} procs non-contig in memory and non-contig in file");
    println!("# {}", scale.describe());
    println!("# columns: aggs,region_size_bytes,method,mbps,bytes_copied");
    for &aggs in &agg_counts {
        let mut series: Vec<(String, Vec<f64>)> =
            methods.iter().map(|(n, _, _)| (n.to_string(), Vec::new())).collect();
        // Staging-copy ledger (sum over ranks, one representative region
        // size per method): deterministic, so one repetition suffices.
        let mut ledgers: Vec<(String, u64)> = Vec::new();
        for &rs in &region_sizes {
            let spec = HpioSpec {
                region_size: rs,
                region_count: regions,
                region_spacing: 128,
                mem_noncontig: true,
                file_noncontig: true,
                nprocs,
            };
            for (mi, (name, engine, style)) in methods.iter().enumerate() {
                let hints = Hints { engine: *engine, cb_nodes: Some(aggs), ..Hints::default() };
                let (mut ns, mut copied) = (u64::MAX, 0u64);
                for _ in 0..scale.best_of.max(1) {
                    let pfs = Pfs::new(PfsConfig::default());
                    let (t, c) = hpio_collective_write_sample(&pfs, spec, *style, &hints, "fig4");
                    ns = ns.min(t);
                    copied = c;
                }
                let bw = mbps(spec.aggregate_bytes(), ns);
                println!("{aggs},{rs},{name},{bw:.2},{copied}");
                series[mi].1.push(bw);
                if rs == *region_sizes.last().unwrap() {
                    ledgers.push((name.to_string(), copied));
                }
            }
        }
        let xs: Vec<String> = region_sizes.iter().map(|r| r.to_string()).collect();
        print_table(
            &format!("{aggs} aggs — I/O bandwidth (MB/s)"),
            "region B",
            &xs,
            &series,
        );
        print!("staging-copy ledger at {} B regions:", region_sizes.last().unwrap());
        for (name, copied) in &ledgers {
            print!("  {name}={copied}");
        }
        println!(" (bytes_copied, summed over ranks)");
    }
}
