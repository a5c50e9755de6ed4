//! The scenario suite — the five `flexio-workload` families at bench
//! scale.

use crate::report::{row, Report};
use crate::worlds::mbps;
use crate::Args;
use flexio_workload::{
    checkpoint_spec, many_task_spec, mixed_subarray_spec, read_scan_spec, restart_spec, run_spec,
    PfsShape, PhaseOp, RankPlan, RunConfig, WorkloadSpec,
};

/// The deterministic suite member of every family at the given scale.
fn suite(args: &Args) -> Vec<WorkloadSpec> {
    let n = args.nprocs_or(if args.paper { 64 } else { 8 });
    let readers = (n * 3 / 4).max(1); // shifted rank count for the read side
    let mut specs = if args.paper {
        vec![
            checkpoint_spec(0xC0FFEE, n, 256 << 10, 4, 5),
            restart_spec(0xBEEF, n, readers, 64 << 20, 1, 1 << 20),
            many_task_spec(0xDAB, n, 1 << 20, 4, 64 << 10, 3),
            read_scan_spec(0x5CA4, n, readers, 256 << 10, 4, 4),
            mixed_subarray_spec(0x2D, 8, n / 8, 512, 2048, readers),
        ]
    } else {
        vec![
            checkpoint_spec(0xC0FFEE, n, 16 << 10, 4, 3),
            restart_spec(0xBEEF, n, readers, 1 << 20, 1, 64 << 10),
            many_task_spec(0xDAB, n, 64 << 10, 4, 4 << 10, 2),
            read_scan_spec(0x5CA4, n, readers, 16 << 10, 4, 3),
            mixed_subarray_spec(0x2D, 2, n / 2, 128, 512, readers),
        ]
    };
    // Bench-scale knobs: the builders default to the fuzzer's tiny
    // geometry; here the PFS and collective buffer match the figure
    // experiments.
    for s in &mut specs {
        s.pfs = if args.paper {
            PfsShape { n_osts: 8, stripe: 1 << 20, page: 4096 }
        } else {
            PfsShape { n_osts: 4, stripe: 64 << 10, page: 4096 }
        };
        s.cb = if args.paper { 4 << 20 } else { 256 << 10 };
        s.pfr = true;
    }
    specs
}

/// Data bytes a spec moves in each direction: `(written, read)`.
fn moved_bytes(spec: &WorkloadSpec) -> (u64, u64) {
    let (mut w, mut r) = (0, 0);
    for p in &spec.phases {
        let per_call: u64 = p.plans.iter().map(RankPlan::total_bytes).sum();
        match p.op {
            PhaseOp::Write => w += p.steps * per_call,
            PhaseOp::Read => r += per_call,
        }
    }
    (w, r)
}

/// One deterministic member of each scenario family (checkpoint N-to-1,
/// restart with shifted rank counts, many-task independent regions,
/// read-heavy scans, mixed subarray views) through both engines:
/// total data bytes moved divided by the summed virtual time of the
/// slowest rank of every phase. The same typed [`WorkloadSpec`]s drive
/// `tests/workload_fuzz.rs`, so a number here is a number the
/// differential fuzzer has already cross-checked for correctness.
///
/// Paper scale: 64-rank worlds, MiB-scale tiles, 8 OSTs with 1 MiB
/// stripes. Default scale: 8-rank worlds, KiB-scale tiles.
pub(crate) fn scenario(args: &Args, r: &mut Report) {
    r.section("scenario,engine,write_bytes,read_bytes,virtual_ns,mbps:2");
    for spec in suite(args) {
        let (wb, rb) = moved_bytes(&spec);
        for &(name, engine) in &args.engines {
            let out = run_spec(&spec, RunConfig { engine, faulted: false });
            let ns: u64 =
                out.phases.iter().map(|p| p.clocks.iter().copied().max().unwrap_or(0)).sum();
            row!(r; spec.kind.name(), name, wb, rb, ns, mbps(wb + rb, ns));
        }
    }
    let title = "Scenario suite: aggregate bandwidth (MB/s)";
    r.pivot(title, None, "scenario", &["engine"], "mbps");
}
