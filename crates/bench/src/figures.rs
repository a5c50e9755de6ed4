//! The paper's figures (§6: Fig. 4, 5, 7) and the read-direction study.

use crate::report::{row, Report};
use crate::worlds::{hpio, locking_pfs, mbps, presize};
use crate::Args;
use flexio_core::{Engine, Hints};
use flexio_hpio::{HpioSpec, TimeStepSpec, TypeStyle};
use flexio_io::IoMethod;
use flexio_pfs::{Pfs, PfsConfig};
use flexio_sim::CostModel;
use flexio_workload::{Call, FileWorld, Io, Timing};

/// Fig. 4's three methods: the flexible engine with succinct and with
/// enumerated filetypes, and the ROMIO baseline.
const METHODS: [(&str, Engine, TypeStyle); 3] = [
    ("new+struct", Engine::Flexible, TypeStyle::Succinct),
    ("new+vect", Engine::Flexible, TypeStyle::Enumerated),
    ("old+vec", Engine::Romio, TypeStyle::Enumerated),
];

/// Figure 4: HPIO, non-contiguous in memory and file (128 B spacing),
/// collective write bandwidth vs region size, one panel per aggregator
/// count.
///
/// Paper scale: 64 procs, 4096 regions/client, aggregators ∈ {8, 16, 24,
/// 32}. Default scale: 16 procs, 1024 regions, aggregators ∈ {2, 4, 6, 8}.
pub(crate) fn e1(args: &Args, r: &mut Report) {
    let (default_procs, regions): (usize, u64) = if args.paper { (64, 4096) } else { (16, 1024) };
    let nprocs = args.nprocs_or(default_procs);
    // The paper's fractions of the process count (1/8, 1/4, 3/8, 1/2), so
    // `--nprocs 1024` sweeps the same shape.
    let agg_counts = [nprocs / 8, nprocs / 4, 3 * nprocs / 8, nprocs / 2].map(|a| a.max(1));
    r.note(&format!(
        "{nprocs} procs, {regions} regions/client, 128 B spacing, non-contig in memory and in file"
    ));
    r.section("aggs,region_size_bytes,method,mbps:2,bytes_copied");
    for aggs in agg_counts {
        for rs in [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096] {
            let spec = HpioSpec { region_count: regions, nprocs, ..HpioSpec::fig4(rs) };
            for (name, engine, style) in METHODS {
                let hints = Hints { engine, cb_nodes: Some(aggs), ..Hints::default() };
                let pfs = Pfs::new(PfsConfig::default());
                let s =
                    hpio(FileWorld::new(&pfs, "fig4", &hints, Timing::Whole), spec, style, false);
                let bw = mbps(spec.aggregate_bytes(), s.span_ns);
                row!(r; aggs, rs, name, bw, s.sum(|s| s.bytes_copied));
            }
        }
    }
    let title = "{} aggs — I/O bandwidth (MB/s)";
    r.pivot(title, Some("aggs"), "region_size_bytes", &["method"], "mbps");
}

/// Fig. 5's pattern: contiguous in memory, `region` useful bytes at the
/// head of every `extent` of the file.
fn fig5_spec(nprocs: usize, extent: u64, region: u64, count: u64) -> HpioSpec {
    HpioSpec {
        region_size: region,
        region_count: count,
        region_spacing: extent - region,
        mem_noncontig: false,
        file_noncontig: true,
        nprocs,
    }
}

/// Figure 5: conditional data sieving — DataSieve vs Naive beneath
/// two-phase collective writes, one panel per datatype extent, region
/// size swept from 3 % to 100 % of the extent. The file (1 GiB at paper
/// scale) is pre-written so unaligned writes pay read-modify-write.
pub(crate) fn e2(args: &Args, r: &mut Report) {
    // The final point of each sweep is 100 % of the extent: the
    // "contiguous in memory to contiguous in file" fast-path spike.
    let panels: [(u64, [u64; 8]); 4] = [
        (1 << 10, [32, 192, 352, 512, 672, 832, 992, 1024]),
        (8 << 10, [256, 1536, 2816, 4096, 5376, 6656, 7936, 8192]),
        (16 << 10, [512, 3072, 5632, 8192, 10752, 13312, 15872, 16384]),
        (64 << 10, [2048, 12288, 22528, 32768, 43008, 53248, 63488, 65536]),
    ];
    let (default_procs, file_bytes): (usize, u64) =
        if args.paper { (64, 1 << 30) } else { (8, 64 << 20) };
    let nprocs = args.nprocs_or(default_procs);
    let aggs = (nprocs / 2).max(1);
    let conditional = IoMethod::Conditional { extent_threshold: 16 << 10, sieve_buffer: 512 << 10 };
    let methods = [
        ("datasieve", IoMethod::DataSieve { buffer: 512 << 10 }),
        ("naive", IoMethod::Naive),
        ("conditional", conditional),
    ];
    r.note(&format!("{nprocs} procs, {aggs} aggregators, file pre-sized to {file_bytes} bytes"));
    r.section("extent_bytes,region_size_bytes,percent,method,mbps:2");
    for (extent, region_sizes) in panels {
        for rs in region_sizes {
            // The access covers the whole file span:
            // count * extent * nprocs = file_bytes.
            let count = (file_bytes / (extent * nprocs as u64)).max(1);
            let spec = fig5_spec(nprocs, extent, rs, count);
            for (name, io_method) in methods {
                let hints = Hints { cb_nodes: Some(aggs), io_method, ..Hints::default() };
                let pfs = Pfs::new(PfsConfig::default());
                presize(&pfs, "fig5", file_bytes);
                let world = FileWorld::new(&pfs, "fig5", &hints, Timing::Whole);
                let s = hpio(world, spec, TypeStyle::Succinct, false);
                let bw = mbps(spec.aggregate_bytes(), s.span_ns);
                row!(r; extent, rs, rs * 100 / extent, name, bw);
            }
        }
    }
    let title = "{} B datatype extent — I/O bandwidth (MB/s)";
    r.pivot(title, Some("extent_bytes"), "region_size_bytes", &["method"], "mbps");
}

/// Fig. 5's page-alignment spikes, isolated: naive-I/O region sizes swept
/// finely around the page-size multiples; at exact multiples the
/// unaligned write edges (and their read-modify-write page reads)
/// disappear and bandwidth jumps (`tests/claims.rs` checks that on the
/// golden rows).
pub(crate) fn e2_spikes(args: &Args, r: &mut Report) {
    let nprocs = args.nprocs_or(if args.paper { 64 } else { 8 });
    let extent = 64 << 10; // large extent: naive is the right method here
    let page = 4096u64;
    r.note(&format!("naive I/O, {nprocs} procs, {page} B pages"));
    r.section("region_size,mbps:2,rmw_page_reads");
    for base in [page, 2 * page] {
        for d in [-512i64, -256, -128, 0, 128, 256, 512] {
            let rs = (base as i64 + d) as u64;
            let spec = fig5_spec(nprocs, extent, rs, 64);
            let hints = Hints {
                cb_nodes: Some((nprocs / 2).max(1)),
                io_method: IoMethod::Naive,
                ..Hints::default()
            };
            let pfs = Pfs::new(PfsConfig::default());
            // Pre-size so unaligned edges hit existing data (real RMW).
            presize(&pfs, "spike", extent * 64 * nprocs as u64);
            let world = FileWorld::new(&pfs, "spike", &hints, Timing::Whole);
            let s = hpio(world, spec, TypeStyle::Succinct, false);
            row!(r; rs, mbps(spec.aggregate_bytes(), s.span_ns), pfs.stats().rmw_page_reads);
        }
    }
}

/// Figure 7: persistent file realms × file-realm alignment on the Fig. 6
/// time-step pattern (one collective write per step), client write-back
/// caching and Lustre-style locks on, half of the clients aggregators.
///
/// Paper scale: 32-byte elements, 100 elements/point, 2048 points, 32
/// time steps, clients ∈ {16, 32, 48, 64}, 2 MiB stripes. Default scale
/// shrinks points, steps and stripes.
pub(crate) fn e3(args: &Args, r: &mut Report) {
    let (client_counts, points, steps, stripe): (Vec<usize>, u64, u64, u64) = if args.paper {
        (vec![16, 32, 48, 64], 2048, 32, 2 << 20)
    } else {
        (vec![8, 16, 24, 32], 512, 8, 512 << 10)
    };
    // `--nprocs N` narrows the sweep to the one requested client count.
    let client_counts = args.nprocs.map_or(client_counts, |n| vec![n]);
    // Three places, where every other experiment prints two: the aligned
    // combinations differ in the third.
    r.section("clients,combo,mbps:3");
    for clients in client_counts {
        let spec =
            TimeStepSpec { elem_size: 32, elems_per_point: 100, points, steps, nprocs: clients };
        for (name, pfr, align) in [
            ("pfr/fr-align", true, true),
            ("pfr/no-fr-align", true, false),
            ("no-pfr/fr-align", false, true),
            ("no-pfr/no-fr-align", false, false),
        ] {
            let pfs = locking_pfs(stripe);
            let hints = Hints {
                persistent_file_realms: pfr,
                // Fig. 7's "no alignment" is byte-granular: left unset,
                // per-call realms would align to the stripe by default.
                fr_alignment: Some(if align { stripe } else { 1 }),
                cb_nodes: Some((clients / 2).max(1)),
                // "data sieving is always on" in this experiment (§6.4).
                io_method: IoMethod::DataSieve { buffer: 512 << 10 },
                ..Hints::default()
            };
            // Each step sets its slice's view inside the timed span.
            let s = FileWorld::new(&pfs, "fig7", &hints, Timing::Whole).run(
                clients,
                steps,
                |_| None,
                |rank, t| Call {
                    view: Some(spec.file_view(rank, t)),
                    ..Call::contiguous(Io::Write(spec.make_buffer(rank, t)))
                },
            );
            assert!(s.err().is_none(), "fault-free time steps failed: {:?}", s.err());
            row!(r; clients, name, mbps(spec.bytes_per_step() * steps, s.span_ns));
        }
    }
    let title = "PFRs & file realm alignment — I/O bandwidth (MB/s)";
    r.pivot(title, None, "clients", &["combo"], "mbps");
}

/// Read-direction study: the paper's evaluation only measures collective
/// writes; this sweeps Fig. 4's patterns through collective *reads*
/// (two-phase reversed: aggregators read their realms once, scatter to
/// clients) for both engines, checking every byte read.
pub(crate) fn read(args: &Args, r: &mut Report) {
    let (default_procs, regions) = if args.paper { (64, 4096) } else { (16, 1024) };
    let nprocs = args.nprocs_or(default_procs);
    let aggs = (nprocs / 2).max(1);
    r.note(&format!("HPIO non-contig in memory and in file, {nprocs} procs, {aggs} aggregators"));
    r.section("region_size,method,mbps:2");
    for rs in [16u64, 64, 256, 1024, 4096] {
        let spec = HpioSpec { region_count: regions, nprocs, ..HpioSpec::fig4(rs) };
        for (name, engine, style) in METHODS {
            let pfs = Pfs::new(PfsConfig::default());
            // Populate the file with a free collective write first.
            let populate = Hints { cb_nodes: Some(aggs), ..Hints::default() };
            let mut free = FileWorld::new(&pfs, "r", &populate, Timing::Untimed);
            free.cost = CostModel::free();
            hpio(free, spec, TypeStyle::Succinct, false);
            let hints = Hints { engine, cb_nodes: Some(aggs), ..Hints::default() };
            let s = hpio(FileWorld::new(&pfs, "r", &hints, Timing::Whole), spec, style, true);
            row!(r; rs, name, mbps(spec.aggregate_bytes(), s.span_ns));
        }
    }
    r.pivot("Collective read bandwidth (MB/s)", None, "region_size", &["method"], "mbps");
}
