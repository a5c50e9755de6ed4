//! flexbench: a two-clock benchmark of the flexio collective I/O simulator.
//!
//! `flexbench --workload W --seed N --seconds S --trace 0|1` runs one
//! workload in this process: it sets up several times (inputs from the
//! seed, oracle, one byte-verified flexible/ROMIO pair), then repeats
//! interleaved flexible/ROMIO pairs for `S` seconds, checking every
//! repetition against the verified one, and prints each metric by name
//! with its unit and, as the last line, one JSON object. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` measures a shorter
//! window, then one traced pair and the per-layer probes, reports the
//! per-layer metrics and writes the spans to `<out-dir>/W.trace.json`.
//! See `benchmark/README.md`.

mod json;
mod probes;
mod registry;
mod runner;
mod trace;
mod workloads;

use flexio_core::Engine;
use json::Value;
use runner::{run_rep, RepOut};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::Inputs;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Metric values by name, in emission order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }
}

struct Args {
    workload: &'static registry::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// One set-up, one timed pair, no probes.
    smoke: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = String::new();
    let mut args = Args {
        workload: &registry::WORKLOADS[0],
        seed: 0,
        seconds: registry::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--out-dir" => args.out_dir = value()?.into(),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.smoke && args.trace {
        return Err("--smoke runs no probes, so it cannot report the per-layer metrics".into());
    }
    if !(0.0..=600.0).contains(&args.seconds) {
        return Err(format!("--seconds out of range: {}", args.seconds));
    }
    args.workload = registry::WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .ok_or_else(|| {
            let names: Vec<_> = registry::WORKLOADS.iter().map(|w| w.name).collect();
            format!("--workload must be one of {names:?}, got {workload:?}")
        })?;
    Ok(args)
}

/// What a verified warm-up repetition fixed for one engine; every later
/// repetition must reproduce it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Reference {
    virtual_ns: u64,
    fingerprint: u64,
}

/// Ledger of rank x collective-call outcomes and what went wrong.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Book one repetition. A repetition that breaks an invariant, the
    /// oracle (`full`) or the reference counts all its operations failed.
    fn book(
        &mut self,
        what: &str,
        rep: &RepOut,
        inputs: &Inputs,
        full: bool,
        reference: Option<Reference>,
    ) -> Reference {
        let got = Reference {
            virtual_ns: rep.virtual_ns(inputs),
            fingerprint: rep.fingerprint(),
        };
        let mut check = rep.check_invariants();
        if check.is_ok() && full {
            check = rep.verify(inputs);
        }
        if let (Ok(()), Some(want)) = (&check, reference) {
            if want != got {
                check = Err(format!(
                    "diverged from the verified repetition: {got:?} != {want:?}"
                ));
            }
        }
        self.attempted += rep.ops();
        self.failed += match check {
            Ok(()) => rep.failed(),
            Err(e) => {
                eprintln!("flexbench: {what}: {e}");
                rep.ops()
            }
        };
        got
    }
}

const ENGINES: [Engine; 2] = [Engine::Flexible, Engine::Romio];

/// One set-up: inputs from the seed, the oracle, and one pair whose
/// bytes are verified against it.
fn set_up(args: &Args, tally: &mut Tally, refs: &mut [Option<Reference>; 2]) -> Inputs {
    let inputs = workloads::build(args.workload.name, args.seed).expect("a registry workload");
    for (i, engine) in ENGINES.into_iter().enumerate() {
        let rep = run_rep(&inputs, engine, &mut Tracer::default());
        refs[i] = Some(tally.book(&format!("warm-up {engine:?}"), &rep, &inputs, true, refs[i]));
    }
    inputs
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorted seconds from ns samples.
fn sorted_secs(ns: &[u64]) -> Vec<f64> {
    let mut s: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e9).collect();
    s.sort_by(f64::total_cmp);
    s
}

fn mbps(bytes: u64, ns: u64) -> f64 {
    bytes as f64 / (ns as f64 / 1e9) / 1e6
}

/// Peak resident set of this process, decimal MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unparsable VmHWM")?;
    Ok(kb * 1024.0 / 1e6)
}

fn run(args: &Args) -> Result<bool, String> {
    let workload = args.workload;
    let mut tally = Tally::default();
    let mut refs = [None; 2];

    // Set up several times and report the median, so that set-up time is
    // a measurement and not one sample. The traced run needs one.
    let n_setups = if args.smoke || args.trace { 1 } else { 3 };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut inputs = None;
    for _ in 0..n_setups {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(set_up(args, &mut tally, &mut refs));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let refs = refs.map(|r| r.expect("set-up ran both engines"));

    // Timed section: flexible and ROMIO interleaved, so that machine drift
    // hits both alike. The traced run keeps part of the window for the
    // traced pair and the probes.
    let window = if args.smoke {
        0.0
    } else if args.trace {
        args.seconds * 0.4
    } else {
        args.seconds
    };
    let min_pairs = if args.smoke { 1 } else { 3 };
    let mut wall_ns = [Vec::new(), Vec::new()];
    let start = Instant::now();
    while wall_ns[0].len() < min_pairs || start.elapsed().as_secs_f64() < window {
        for (i, engine) in ENGINES.into_iter().enumerate() {
            let rep = run_rep(&inputs, engine, &mut Tracer::default());
            tally.book(
                &format!("timed {engine:?}"),
                &rep,
                &inputs,
                false,
                Some(refs[i]),
            );
            wall_ns[i].push(rep.host_wall_ns);
        }
    }
    let wall = [sorted_secs(&wall_ns[0]), sorted_secs(&wall_ns[1])];
    let median_pair = quantile(&wall[0], 0.5) + quantile(&wall[1], 0.5);
    setup_s.sort_by(f64::total_cmp);
    let median_setup = quantile(&setup_s, 0.5);

    let mut metrics = Metrics::default();
    if args.trace {
        let mut tracer = Tracer::recording();
        tracer.set_request("traced-flexible");
        let (flex, alloc_count, alloc_bytes) =
            trace::count_allocs(|| run_rep(&inputs, Engine::Flexible, &mut tracer));
        tally.book("traced Flexible", &flex, &inputs, false, Some(refs[0]));
        tracer.set_request("traced-romio");
        let romio = run_rep(&inputs, Engine::Romio, &mut tracer);
        tally.book("traced Romio", &romio, &inputs, false, Some(refs[1]));

        probes::counters(&inputs, &flex, &romio, &tracer, &mut metrics);
        probes::run(&inputs, &mut tracer, &mut metrics);

        let median_wall = quantile(&wall[0], 0.5);
        metrics.put(
            "core.host_ns_per_msg",
            median_wall * 1e9 / sum_stat(&flex, |s| s.msgs_sent).max(1) as f64,
        );
        metrics.put(
            "core.host_ns_per_pair",
            median_wall * 1e9 / sum_stat(&flex, |s| s.pairs_processed).max(1) as f64,
        );
        metrics.put("bench.alloc_count", alloc_count as f64);
        metrics.put("bench.alloc_bytes", alloc_bytes as f64);
        metrics.put(
            "bench.trace_overhead_pct",
            (flex.host_wall_ns as f64 / 1e9 / median_wall - 1.0) * 100.0,
        );
        metrics.put("bench.reps", wall[0].len() as f64);
        metrics.put("bench.setup_raw_s", median_setup);
        for (prefix, w) in [("bench.wall", &wall[0]), ("bench.romio_wall", &wall[1])] {
            metrics.put(&format!("{prefix}_median_s"), quantile(w, 0.5));
            metrics.put(&format!("{prefix}_p25_s"), quantile(w, 0.25));
            metrics.put(&format!("{prefix}_p75_s"), quantile(w, 0.75));
            metrics.put(&format!("{prefix}_min_s"), w[0]);
            metrics.put(&format!("{prefix}_max_s"), w[w.len() - 1]);
        }

        std::fs::create_dir_all(&args.out_dir)
            .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
        let path = args.out_dir.join(format!("{}.trace.json", workload.name));
        let doc = json::object([
            ("workload", Value::Str(workload.name.into())),
            ("seed", Value::Num(args.seed as f64)),
            ("clock", Value::Str("host ns since process start".into())),
            ("spans", tracer.to_json(workload.name)),
            ("counters", metrics_json(&metrics)?),
        ]);
        std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        let bytes = inputs.useful_bytes();
        metrics.put("virtual_mbps", mbps(bytes, refs[0].virtual_ns));
        metrics.put("romio_virtual_mbps", mbps(bytes, refs[1].virtual_ns));
        // Each flexible repetition over the ROMIO one beside it: whatever
        // the machine was doing in those seconds divides out.
        let mut ratios: Vec<f64> = wall_ns[0]
            .iter()
            .zip(&wall_ns[1])
            .map(|(&f, &r)| f as f64 / r as f64)
            .collect();
        ratios.sort_by(f64::total_cmp);
        metrics.put("host_ratio", quantile(&ratios, 0.5));
        metrics.put("peak_rss_mb", peak_rss_mb()?);
        // Set-up seconds at the reference machine speed: a set-up is mostly
        // one pair, so the pair time of this run measures the machine.
        metrics.put(
            "setup_s",
            median_setup / median_pair * workload.nominal_pair_s,
        );
    }

    let correct = tally.failed == 0;
    let mut want: Vec<&str> = if args.trace {
        registry::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        registry::END_TO_END.iter().map(|(m, _)| m.name).collect()
    };
    let mut got: Vec<&str> = metrics.0.iter().map(|(n, _)| n.as_str()).collect();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "emitted metrics differ from the registry: {got:?} vs {want:?}"
        ));
    }

    for (name, value) in &metrics.0 {
        println!(
            "{name:<36} {:<6} {value}",
            registry::unit_of(name).unwrap_or("?")
        );
    }
    // Raw host seconds, for the reader; the machine's speed is in them.
    for (name, unit, value) in [
        ("raw.host_wall_s", "s", quantile(&wall[0], 0.5)),
        ("raw.romio_host_wall_s", "s", quantile(&wall[1], 0.5)),
        ("raw.setup_s", "s", median_setup),
        ("raw.pairs_timed", "count", wall[0].len() as f64),
    ] {
        println!("{name:<36} {unit:<6} {value}");
    }
    let result = json::object([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(tally.attempted as f64)),
        ("failed", Value::Num(tally.failed as f64)),
        ("metrics", metrics_json(&metrics)?),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

fn sum_stat(rep: &RepOut, f: impl Fn(&flexio_sim::Stats) -> u64) -> u64 {
    rep.phases.iter().flat_map(|p| &p.stats).map(f).sum()
}

fn metrics_json(metrics: &Metrics) -> Result<Value, String> {
    let mut fields = Vec::new();
    for (name, value) in &metrics.0 {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let unit =
            registry::unit_of(name).ok_or(format!("metric {name} is not in the registry"))?;
        fields.push((
            name.clone(),
            json::object([
                ("value", Value::Num(*value)),
                ("unit", Value::Str(unit.into())),
            ]),
        ));
    }
    Ok(Value::Object(fields))
}

fn main() -> ExitCode {
    trace::now_ns(); // pin the trace clock's epoch to process start
    let first = std::env::args().nth(1);
    match first.as_deref() {
        Some("--manifest") => {
            println!("{}", registry::manifest().render());
            return ExitCode::SUCCESS;
        }
        Some("--list") => {
            for w in registry::WORKLOADS {
                println!("{}", w.name);
            }
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("flexbench: verification failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("flexbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--smoke` (one set-up, one timed pair, no probes) verifies all four
    /// workloads quickly enough to run on every change.
    #[test]
    fn smoke_runs_every_workload() {
        let start = Instant::now();
        for w in registry::WORKLOADS {
            let args = Args {
                workload: w,
                seed: 1,
                seconds: 0.0,
                trace: false,
                smoke: true,
                out_dir: PathBuf::from("unused"),
            };
            assert_eq!(run(&args), Ok(true), "{}", w.name);
        }
        // About 12 s in release mode on the reference box; the limit only
        // guards against the smoke mode growing a timed window.
        if !cfg!(debug_assertions) {
            assert!(
                start.elapsed().as_secs() < 60,
                "smoke took {:?}",
                start.elapsed()
            );
        }
    }
}
