//! # flexio-bench — harness utilities for regenerating the paper's figures
//!
//! Each `src/bin/fig*.rs` binary reproduces one figure of the evaluation
//! section; `ablation_*.rs` binaries cover the design-choice studies
//! DESIGN.md calls out. Binaries print CSV (one row per point) plus a
//! human-readable table, and take `--paper` for full paper scale or the
//! default reduced scale that finishes in seconds.
//!
//! Bandwidth is aggregate useful bytes divided by the **virtual** time of
//! the slowest rank — the same metric the paper plots. Runs repeat
//! `best_of` times and keep the fastest (the paper reports best-of-5 on a
//! shared file system).

#![warn(missing_docs)]

use flexio_core::{Engine, Hints, MpiFile};
use flexio_hpio::{HpioSpec, TypeStyle};
use flexio_pfs::Pfs;
use flexio_sim::{run, CostModel};
use flexio_types::Datatype;
use std::sync::Arc;

/// Number of repetitions to take the best of (paper: 5; default here: 3).
pub const BEST_OF: usize = 3;

/// Convert (bytes, virtual ns) into MB/s.
pub fn mbps(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        return f64::INFINITY;
    }
    bytes as f64 / (ns as f64 / 1e9) / 1e6
}

/// Parse command-line flags shared by all harnesses.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Full paper scale (64 procs, 4096 regions, 1 GiB files)?
    pub paper: bool,
    /// Repetitions to take the best of.
    pub best_of: usize,
    /// Process-count override (`--nprocs N`). `None` = the scale's
    /// default (64 at paper scale). The event-loop runtime makes worlds
    /// far past 64 ranks practical; every harness honours this flag.
    pub nprocs: Option<usize>,
}

impl Scale {
    /// Read from `std::env::args`: `--paper`, `--repeat N` (with
    /// `--best-of N` accepted as a synonym), and `--nprocs N`. Defaults
    /// to best-of-3 per DESIGN.md.
    pub fn from_args() -> Scale {
        Self::from_arg_list(&std::env::args().collect::<Vec<_>>())
    }

    fn from_arg_list(args: &[String]) -> Scale {
        let paper = args.iter().any(|a| a == "--paper");
        let best_of = args
            .iter()
            .position(|a| a == "--repeat" || a == "--best-of")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(BEST_OF);
        let nprocs = args
            .iter()
            .position(|a| a == "--nprocs")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .filter(|&n: &usize| n > 0);
        Scale { paper, best_of, nprocs }
    }

    /// The process count to run at: the `--nprocs` override if given,
    /// else the harness's default for this scale.
    pub fn nprocs_or(&self, default: usize) -> usize {
        self.nprocs.unwrap_or(default)
    }

    /// The standard header line every figure binary prints, recording the
    /// exact scale and repetition count a results file was generated with.
    pub fn describe(&self) -> String {
        let mut s = format!(
            "scale: {} | best-of: {}",
            if self.paper { "paper" } else { "default" },
            self.best_of
        );
        if let Some(n) = self.nprocs {
            s.push_str(&format!(" | nprocs: {n}"));
        }
        s
    }
}

/// Engines selected by the shared `--engine {romio,flexible,both}` flag
/// (default `both` — the pipeline runs on shared machinery now, so the
/// ablations compare engines at equal depth by default), labelled for
/// CSV rows and table series.
pub fn engines_from_args() -> Vec<(&'static str, Engine)> {
    engines_from_arg_list(&std::env::args().collect::<Vec<_>>())
}

fn engines_from_arg_list(args: &[String]) -> Vec<(&'static str, Engine)> {
    let choice =
        args.iter().position(|a| a == "--engine").and_then(|i| args.get(i + 1)).map(String::as_str);
    match choice {
        Some("romio") => vec![("romio", Engine::Romio)],
        Some("flexible") => vec![("flexible", Engine::Flexible)],
        None | Some("both") => vec![("romio", Engine::Romio), ("flexible", Engine::Flexible)],
        Some(other) => panic!("--engine must be romio, flexible, or both, got {other:?}"),
    }
}

/// Run one HPIO collective write and return the slowest rank's elapsed
/// virtual ns (the collective-write time only, excluding open/close).
pub fn hpio_collective_write_ns(
    pfs: &Arc<Pfs>,
    spec: HpioSpec,
    style: TypeStyle,
    hints: &Hints,
    path: &str,
) -> u64 {
    hpio_collective_write_sample(pfs, spec, style, hints, path).0
}

/// [`hpio_collective_write_ns`] plus the staging-copy ledger: returns
/// `(slowest rank's elapsed ns, sum of Stats::bytes_copied over ranks)`.
/// The ledger counts the copies the engines' data path is charged (a
/// sieved group's double-buffer copy, ROMIO's placement into its
/// integrated sieve buffer); it is deterministic for a given workload
/// and hint set.
pub fn hpio_collective_write_sample(
    pfs: &Arc<Pfs>,
    spec: HpioSpec,
    style: TypeStyle,
    hints: &Hints,
    path: &str,
) -> (u64, u64) {
    let pfs = Arc::clone(pfs);
    let path = path.to_string();
    let hints = hints.clone();
    let out = run(spec.nprocs, CostModel::default(), move |rank| {
        let mut f = MpiFile::open(rank, &pfs, &path, hints.clone()).unwrap();
        let (disp, ftype) = spec.file_view(rank.rank(), style);
        f.set_view(disp, &Datatype::bytes(1), &ftype).unwrap();
        let buf = spec.make_buffer(rank.rank());
        rank.barrier();
        let t0 = rank.now();
        f.write_all(&buf, &spec.mem_type(), spec.mem_count()).unwrap();
        let elapsed = rank.now() - t0;
        f.close().unwrap();
        (rank.allreduce_max(elapsed), rank.stats().bytes_copied)
    });
    (out[0].0, out.iter().map(|(_, c)| c).sum())
}

/// Best-of-N wrapper: fresh file system per repetition (fresh OST clocks).
pub fn best_of_ns(n: usize, mut f: impl FnMut() -> u64) -> u64 {
    (0..n.max(1)).map(|_| f()).min().unwrap()
}

/// Render one figure panel as an aligned text table: rows = x values,
/// columns = series.
pub fn print_table(title: &str, xlabel: &str, xs: &[String], series: &[(String, Vec<f64>)]) {
    println!("\n## {title}");
    print!("{:>12}", xlabel);
    for (name, _) in series {
        print!("{name:>14}");
    }
    println!();
    for (i, x) in xs.iter().enumerate() {
        print!("{x:>12}");
        for (_, vals) in series {
            print!("{:>14.2}", vals[i]);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbps_math() {
        assert_eq!(mbps(1_000_000, 1_000_000_000), 1.0);
        assert_eq!(mbps(2_000_000, 500_000_000), 4.0);
        assert!(mbps(1, 0).is_infinite());
    }

    #[test]
    fn best_of_takes_min() {
        let mut vals = vec![5u64, 3, 4].into_iter();
        assert_eq!(best_of_ns(3, || vals.next().unwrap()), 3);
    }

    #[test]
    fn scale_defaults() {
        let s = Scale { paper: false, best_of: BEST_OF, nprocs: None };
        assert_eq!(s.best_of, 3);
        assert_eq!(s.nprocs_or(64), 64);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn engine_flag_selects_engines() {
        let both = [("romio", Engine::Romio), ("flexible", Engine::Flexible)];
        assert_eq!(engines_from_arg_list(&args(&["bin"])), both);
        assert_eq!(engines_from_arg_list(&args(&["bin", "--engine", "both"])), both);
        assert_eq!(
            engines_from_arg_list(&args(&["bin", "--engine", "romio"])),
            [("romio", Engine::Romio)]
        );
        assert_eq!(
            engines_from_arg_list(&args(&["bin", "--engine", "flexible"])),
            [("flexible", Engine::Flexible)]
        );
    }

    #[test]
    fn scale_parses_repeat_and_best_of() {
        let s = Scale::from_arg_list(&args(&["bin"]));
        assert!(!s.paper);
        assert_eq!(s.best_of, BEST_OF);
        let s = Scale::from_arg_list(&args(&["bin", "--paper", "--repeat", "7"]));
        assert!(s.paper);
        assert_eq!(s.best_of, 7);
        let s = Scale::from_arg_list(&args(&["bin", "--best-of", "1"]));
        assert_eq!(s.best_of, 1);
        // Malformed counts fall back to the default rather than panicking.
        let s = Scale::from_arg_list(&args(&["bin", "--repeat", "lots"]));
        assert_eq!(s.best_of, BEST_OF);
        assert_eq!(s.describe(), "scale: default | best-of: 3");
    }

    #[test]
    fn scale_parses_nprocs_override() {
        let s = Scale::from_arg_list(&args(&["bin"]));
        assert_eq!(s.nprocs, None);
        let s = Scale::from_arg_list(&args(&["bin", "--paper", "--nprocs", "1024"]));
        assert_eq!(s.nprocs, Some(1024));
        assert_eq!(s.nprocs_or(64), 1024);
        assert_eq!(s.describe(), "scale: paper | best-of: 3 | nprocs: 1024");
        // Malformed or zero counts fall back to the harness default.
        assert_eq!(Scale::from_arg_list(&args(&["bin", "--nprocs", "many"])).nprocs, None);
        assert_eq!(Scale::from_arg_list(&args(&["bin", "--nprocs", "0"])).nprocs, None);
    }
}
