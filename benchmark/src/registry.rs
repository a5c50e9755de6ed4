//! The benchmark's names: workloads and metrics with their units,
//! directions and regression bounds. `BENCHMARK.json` is this table
//! rendered (`flexbench --manifest`); a test keeps the two equal.

use crate::json::{object, Value};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Seconds one flexible + ROMIO pair took on the reference box when
    /// the benchmark was written: the machine speed `setup_s` is quoted at.
    pub nominal_pair_s: f64,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fine-512",
        why: "512 ranks, 64 KiB in 8 B regions, cb 512 B, alltoallw: all cost is sim messages and core derive/exchange; bypasses pfs/io/copies",
        nominal_pair_s: 1.8,
    },
    Workload {
        name: "bulk-64",
        why: "64 ranks, 64 MiB in 4 KiB regions, 8 aggregators, zero-copy: the data path (types runs, io vectored ops, pfs OSTs, memcpy); few messages",
        nominal_pair_s: 0.36,
    },
    Workload {
        name: "timestep-locks-64",
        why: "Fig. 6/7 time steps, locks + client cache + sieve, PFR + aligned realms: eight calls per file; the ROMIO side is the lock-revocation storm",
        nominal_pair_s: 1.6,
    },
    Workload {
        name: "scan-read-faulted-64",
        why: "64 writers then four 48-reader scans of 64 MiB under 1% transient faults: the read direction of core/io/pfs and retry_io",
        nominal_pair_s: 1.35,
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}
use Better::{Higher, Lower};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Seconds one run measures. 92 driver runs plus two builds must fit in
/// 3420 s; a run is this window plus 3 to 7 s of set-up (31 s in all).
pub const RUN_SECONDS: u32 = 24;

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen before it is a regression.
pub const END_TO_END: &[(Metric, f64)] = &[
    (m("virtual_mbps", "MB/s", Higher), 0.05),
    (m("romio_virtual_mbps", "MB/s", Higher), 0.05),
    (m("host_ratio", "ratio", Lower), 0.20),
    (m("peak_rss_mb", "MB", Lower), 0.10),
    (m("setup_s", "s", Lower), 0.25),
];

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

/// Per-layer metrics, `<layer>.<name>`. A `.romio` suffix is the same
/// count taken from the traced ROMIO repetition; everything else comes
/// from the traced flexible repetition or a stand-alone probe.
pub const PER_LAYER: &[Metric] = &[
    m("types.flatten_us", "us", Lower),
    m("types.flat_segs", "count", Lower),
    m("types.cursor_ns_per_piece", "ns", Lower),
    m("types.runs_ns_per_run", "ns", Lower),
    m("types.pack_mbps", "MB/s", Higher),
    m("types.flatten_cache_hits", "count", Higher),
    m("types.flatten_cache_misses", "count", Lower),
    m("sim.spawn_join_us", "us", Lower),
    m("sim.msg_ns", "ns", Lower),
    m("sim.alltoallv_us", "us", Lower),
    m("sim.allgatherv_us", "us", Lower),
    m("sim.barrier_us", "us", Lower),
    m("sim.msgs_sent", "count", Lower),
    m("sim.bytes_sent", "bytes", Lower),
    m("pfs.ost_requests", "count", Lower),
    m("pfs.seeks", "count", Lower),
    m("pfs.seek_ratio", "ratio", Lower),
    m("pfs.bytes_written", "bytes", Lower),
    m("pfs.bytes_read", "bytes", Lower),
    m("pfs.rmw_page_reads", "count", Lower),
    m("pfs.lock_grants", "count", Lower),
    m("pfs.lock_revocations", "count", Lower),
    m("pfs.revocation_ratio", "ratio", Lower),
    m("pfs.flush_bytes", "bytes", Lower),
    m("pfs.cache_fills", "count", Lower),
    m("pfs.nb_inflight_peak", "count", Higher),
    m("pfs.faults_injected", "count", Lower),
    m("pfs.straggler_ns", "ns", Lower),
    m("pfs.ost_requests.romio", "count", Lower),
    m("pfs.seeks.romio", "count", Lower),
    m("pfs.seek_ratio.romio", "ratio", Lower),
    m("pfs.bytes_written.romio", "bytes", Lower),
    m("pfs.bytes_read.romio", "bytes", Lower),
    m("pfs.rmw_page_reads.romio", "count", Lower),
    m("pfs.lock_grants.romio", "count", Lower),
    m("pfs.lock_revocations.romio", "count", Lower),
    m("pfs.revocation_ratio.romio", "ratio", Lower),
    m("pfs.flush_bytes.romio", "bytes", Lower),
    m("pfs.cache_fills.romio", "count", Lower),
    m("pfs.nb_inflight_peak.romio", "count", Higher),
    m("pfs.faults_injected.romio", "count", Lower),
    m("pfs.straggler_ns.romio", "ns", Lower),
    m("pfs.write_ns_per_req", "ns", Lower),
    m("pfs.read_ns_per_req", "ns", Lower),
    m("pfs.direct_virtual_mbps", "MB/s", Higher),
    m("pfs.lock_acquire_ns", "ns", Lower),
    m("io.resolve_ns", "ns", Lower),
    m("io.write_gathered_ns_per_seg", "ns", Lower),
    m("io.read_scattered_ns_per_seg", "ns", Lower),
    m("io.sieve_amplification", "ratio", Lower),
    m("io.retries", "count", Lower),
    m("core.compute_ns_max", "ns", Lower),
    m("core.comm_ns_max", "ns", Lower),
    m("core.io_ns_max", "ns", Lower),
    m("core.compute_ns_max.romio", "ns", Lower),
    m("core.comm_ns_max.romio", "ns", Lower),
    m("core.io_ns_max.romio", "ns", Lower),
    m("core.pairs_total", "count", Lower),
    m("core.memcpy_bytes", "bytes", Lower),
    m("core.bytes_copied", "bytes", Lower),
    m("core.schedule_cache_hits", "count", Higher),
    m("core.schedule_cache_misses", "count", Lower),
    m("core.schedule_cache_patches", "count", Lower),
    m("core.overlap_saved_ns", "ns", Higher),
    m("core.derive_overlap_saved_ns", "ns", Higher),
    m("core.pipeline_depth_max", "count", Higher),
    m("core.degraded_cycles", "count", Lower),
    m("core.realms_rebalanced", "count", Lower),
    m("core.open_us", "us", Lower),
    m("core.call_host_ms_first", "ms", Lower),
    m("core.call_host_ms_steady", "ms", Lower),
    m("core.realm_assign_us", "us", Lower),
    m("core.take_window_ns_per_piece", "ns", Lower),
    m("core.merge_ns_per_piece", "ns", Lower),
    m("core.host_ns_per_msg", "ns", Lower),
    m("core.host_ns_per_pair", "ns", Lower),
    m("workload.gen_ms", "ms", Lower),
    m("workload.oracle_ms", "ms", Lower),
    m("workload.populate_virtual_ms", "ms", Lower),
    m("bench.alloc_count", "count", Lower),
    m("bench.alloc_bytes", "bytes", Lower),
    m("bench.trace_overhead_pct", "%", Lower),
    m("bench.reps", "count", Higher),
    m("bench.setup_raw_s", "s", Lower),
    m("bench.wall_median_s", "s", Lower),
    m("bench.wall_p25_s", "s", Lower),
    m("bench.wall_p75_s", "s", Lower),
    m("bench.wall_min_s", "s", Lower),
    m("bench.wall_max_s", "s", Lower),
    m("bench.romio_wall_median_s", "s", Lower),
    m("bench.romio_wall_p25_s", "s", Lower),
    m("bench.romio_wall_p75_s", "s", Lower),
    m("bench.romio_wall_min_s", "s", Lower),
    m("bench.romio_wall_max_s", "s", Lower),
];

/// The unit of the metric `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|(m, _)| m)
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

fn metric_json(metric: &Metric, bound: Option<f64>) -> Value {
    let mut fields = vec![
        ("name".to_string(), Value::Str(metric.name.into())),
        ("unit".to_string(), Value::Str(metric.unit.into())),
        (
            "better".to_string(),
            Value::Str(
                if metric.better == Lower {
                    "lower"
                } else {
                    "higher"
                }
                .into(),
            ),
        ),
    ];
    if let Some(b) = bound {
        fields.push(("bound".to_string(), Value::Num(b)));
    }
    Value::Object(fields)
}

/// `BENCHMARK.json` as a value.
pub fn manifest() -> Value {
    let strs =
        |items: &[&str]| Value::Array(items.iter().map(|s| Value::Str(s.to_string())).collect());
    object([
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        object([
                            ("name", Value::Str(w.name.into())),
                            ("why", Value::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|(m, b)| metric_json(m, Some(*b)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(|m| metric_json(m, None)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse::parse;

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_is_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(parse(&text).expect("valid JSON"), manifest());
        assert!(text.len() <= 64 << 10);
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|(m, _)| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        for metric in END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER) {
            let u = metric.unit;
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(PER_LAYER.len() >= 60);
        assert!(END_TO_END.iter().all(|(_, b)| (0.0..=0.25).contains(b)));
        let setup = END_TO_END
            .iter()
            .find(|(m, _)| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.0.unit == "s" && setup.0.better == Lower);
        assert!(
            END_TO_END.iter().all(|(_, b)| *b <= setup.1),
            "setup_s has the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
