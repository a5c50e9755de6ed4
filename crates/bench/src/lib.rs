//! # flexio-bench — one runner for the paper's figures and the ablations
//!
//! `bench <exp>` runs one entry of [`EXPERIMENTS`] — the paper's figures
//! (E1–E3), the design-choice ablations (A1–A4, A6–A8), the read-direction
//! study, the scenario suite and the host-capacity measurement — and
//! prints it in one format: `#` comment lines, CSV rows under a
//! `# columns:` line, pivot tables (see the `report` module). An experiment is a
//! value: a name, a title, the flags it takes and a `run` that pushes rows
//! into a `Report`; argument parsing, the header and all printing
//! belong to the runner.
//!
//! Bandwidth is aggregate useful bytes divided by the **virtual** time of
//! the slowest rank — the same metric the paper plots. The simulator is
//! bit-deterministic, so every row of a virtual-time experiment is the
//! same on every run: `results/<exp>_default.txt` and `_paper.txt` are
//! this binary's stdout, and `scripts/verify.sh` diffs them exactly.

mod ablations;
mod figures;
mod host;
mod report;
mod scenario;
mod worlds;

use flexio_core::Engine;
use report::Report;
use std::process::ExitCode;

/// The flags every virtual-time experiment takes: `--paper` for full
/// paper scale (the default reduced scale finishes in seconds), `--nprocs
/// N` to run the same shape at another world size and `--ost-log` to print
/// what the OSTs served after the rows.
const SCALE: &[&str] = &["--paper", "--nprocs", "--ost-log"];
/// [`SCALE`] plus `--engine {romio,flexible,both}`.
const SCALE_ENGINE: &[&str] = &["--paper", "--nprocs", "--ost-log", "--engine"];

/// One entry of the registry.
pub struct Experiment {
    /// What `bench <exp>` calls it: EXPERIMENTS.md's section name.
    pub name: &'static str,
    /// First line of its output.
    title: &'static str,
    /// Whether its rows are virtual-time results — bit-reproducible, and
    /// therefore golden files under `results/` — or host wall-clock.
    pub virtual_time: bool,
    /// The flags it takes.
    flags: &'static [&'static str],
    run: fn(&Args, &mut Report),
}

/// A virtual-time experiment.
const fn virt(
    name: &'static str,
    title: &'static str,
    flags: &'static [&'static str],
    run: fn(&Args, &mut Report),
) -> Experiment {
    Experiment { name, title, virtual_time: true, flags, run }
}

/// Every experiment, in EXPERIMENTS.md's order.
pub const EXPERIMENTS: &[Experiment] = &[
    virt("e1", "E1 / Fig. 4 — HPIO scalability: struct vs vector vs old ROMIO", SCALE, figures::e1),
    virt(
        "e2",
        "E2 / Fig. 5 — conditional data sieving and naive I/O beneath collective writes",
        SCALE,
        figures::e2,
    ),
    virt(
        "e2-spikes",
        "E2 / Fig. 5 — the page-alignment spikes, isolated",
        SCALE,
        figures::e2_spikes,
    ),
    virt("e3", "E3 / Fig. 7 — persistent file realms x file-realm alignment", SCALE, figures::e3),
    virt("a1", "A1 — metadata representation (§5.3)", SCALE, ablations::a1),
    virt("a3", "A3 — realm assignment on sparse clustered access (§7)", SCALE, ablations::a3),
    virt("a4", "A4 — exchange-schedule cache on a checkpoint overwrite", SCALE, ablations::a4),
    virt("a6", "A6 — pipeline depth (adaptive vs fixed)", SCALE_ENGINE, ablations::a6),
    virt("a7", "A7 — fault injection: retries and straggler rebalancing", SCALE, ablations::a7),
    virt("a8", "A8 — crash recovery: survivor completion vs crash point", SCALE, ablations::a8),
    virt("read", "Collective read — Fig. 4's patterns in the read direction", SCALE, figures::read),
    virt(
        "scenario",
        "E-workloads — scenario suite: five families, both engines",
        SCALE_ENGINE,
        scenario::scenario,
    ),
    Experiment {
        name: "host",
        title: "E-host — host-capacity scaling: ranks simulated per wall-second",
        virtual_time: false,
        flags: &["--nprocs", "--full", "--check"],
        run: host::host,
    },
];

const BOTH_ENGINES: [(&str, Engine); 2] =
    [("romio", Engine::Romio), ("flexible", Engine::Flexible)];

/// What the command line asked of an experiment.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    /// Full paper scale (64 procs, 4096 regions, 1 GiB files)?
    paper: bool,
    /// World-size override; `None` = the scale's default.
    nprocs: Option<usize>,
    /// Engines to run, labelled for CSV rows and table series.
    engines: Vec<(&'static str, Engine)>,
    /// `host`: extend the sweep to 4096 ranks.
    full: bool,
    /// `host`: assert the deterministic counters and exit.
    check: bool,
    /// Log every file system's OST service and print it after the rows
    /// (`Report::print_ost_log`); the rows are the same.
    ost_log: bool,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            paper: false,
            nprocs: None,
            engines: BOTH_ENGINES.to_vec(),
            full: false,
            check: false,
            ost_log: false,
        }
    }
}

impl Args {
    /// The process count to run at: the `--nprocs` override if given,
    /// else the experiment's default for this scale.
    fn nprocs_or(&self, default: usize) -> usize {
        self.nprocs.unwrap_or(default)
    }

    /// The world size and the two aggregator counts to sweep: the
    /// experiment's defaults for this scale, or `--nprocs N` with an
    /// eighth and a half of it.
    fn world(&self, default: (usize, [usize; 2])) -> (usize, [usize; 2]) {
        self.nprocs.map_or(default, |n| (n, [(n / 8).max(1), (n / 2).max(1)]))
    }

    /// The header line recording what a results file was generated with.
    fn describe(&self, exp: &Experiment) -> String {
        let mut s = format!("bench {}", exp.name);
        if exp.flags.contains(&"--paper") {
            s += if self.paper { " | scale: paper" } else { " | scale: default" };
        }
        if let Some(n) = self.nprocs {
            s += &format!(" | nprocs: {n}");
        }
        if let [(engine, _)] = self.engines[..] {
            s += &format!(" | engine: {engine}");
        }
        for (on, flag) in [(self.full, "full"), (self.check, "check")] {
            if on {
                s += &format!(" | {flag}");
            }
        }
        s
    }
}

#[derive(Debug, PartialEq)]
enum Command {
    List,
    Run(&'static str, Args),
}

fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Parse the arguments after the program name. Everything that is not
/// understood is an error: a silently ignored `--papr` would print
/// default-scale rows under no warning.
fn parse(argv: &[String]) -> Result<Command, String> {
    let mut argv = argv.iter().map(String::as_str);
    let exp = match argv.next() {
        None => return Err("missing experiment".to_string()),
        Some("--list") => {
            return match argv.next() {
                None => Ok(Command::List),
                Some(extra) => Err(format!("`--list` takes no argument, got `{extra}`")),
            }
        }
        Some(name) => find(name).ok_or_else(|| format!("unknown experiment `{name}`"))?,
    };
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        if !["--paper", "--nprocs", "--engine", "--full", "--check", "--ost-log"].contains(&flag) {
            return Err(format!("unknown flag `{flag}`"));
        }
        if !exp.flags.contains(&flag) {
            return Err(format!("`{}` does not take `{flag}`", exp.name));
        }
        let mut value = || argv.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag {
            "--paper" => args.paper = true,
            "--full" => args.full = true,
            "--check" => args.check = true,
            "--ost-log" => args.ost_log = true,
            "--nprocs" => {
                let v = value()?;
                args.nprocs = match v.parse() {
                    Ok(n) if n > 0 => Some(n),
                    _ => return Err(format!("`--nprocs` needs a positive integer, got `{v}`")),
                };
            }
            "--engine" => {
                args.engines = match value()? {
                    "both" => BOTH_ENGINES.to_vec(),
                    v => match BOTH_ENGINES.iter().find(|(name, _)| *name == v) {
                        Some(&one) => vec![one],
                        None => {
                            return Err(format!(
                                "`--engine` must be romio, flexible or both, got `{v}`"
                            ))
                        }
                    },
                };
            }
            _ => unreachable!("listed above"),
        }
    }
    Ok(Command::Run(exp.name, args))
}

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: bench <exp> [--paper] [--nprocs N] [--engine romio|flexible|both] [--ost-log]\n\
         \x20      bench host [--nprocs N] [--full] [--check]\n\
         \x20      bench --list\n\
         experiments: {}",
        names.join(" ")
    )
}

/// The `bench` binary: run what `argv` (without the program name) asks
/// for. A bad command line prints one line naming the problem plus the
/// usage on stderr, nothing on stdout, and exits 2.
pub fn run_cli(argv: &[String]) -> ExitCode {
    match parse(argv) {
        Err(problem) => {
            eprintln!("bench: {problem}\n{}", usage());
            ExitCode::from(2)
        }
        Ok(Command::List) => {
            for e in EXPERIMENTS {
                let clock = if e.virtual_time { "virtual" } else { "host" };
                println!("{}\t{clock}\t{}", e.name, e.title);
            }
            ExitCode::SUCCESS
        }
        Ok(Command::Run(name, args)) => {
            let exp = find(name).expect("parse returns registered names");
            let mut report = Report::default();
            if args.ost_log {
                flexio_pfs::log_ost_service();
                report.log_ost_service();
            }
            report.note(exp.title);
            report.note(&args.describe(exp));
            (exp.run)(&args, &mut report);
            report.print_ost_log();
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::mbps;

    fn parse_line(line: &str) -> Result<Command, String> {
        parse(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    fn args_of(line: &str) -> Args {
        match parse_line(line) {
            Ok(Command::Run(_, args)) => args,
            other => panic!("{line:?} parsed to {other:?}"),
        }
    }

    #[test]
    fn mbps_math() {
        assert_eq!(mbps(1_000_000, 1_000_000_000), 1.0);
        assert_eq!(mbps(2_000_000, 500_000_000), 4.0);
        assert!(mbps(1, 0).is_infinite());
    }

    #[test]
    fn scale_defaults() {
        let a = args_of("e1");
        assert_eq!(a, Args::default());
        assert!(!a.paper && !a.full && !a.check);
        assert_eq!(a.nprocs_or(64), 64);
        assert_eq!(a.describe(find("e1").unwrap()), "bench e1 | scale: default");
        assert_eq!(a.describe(find("host").unwrap()), "bench host");
    }

    #[test]
    fn engine_flag_selects_engines() {
        assert_eq!(args_of("a6").engines, BOTH_ENGINES);
        assert_eq!(args_of("a6 --engine both").engines, BOTH_ENGINES);
        assert_eq!(args_of("a6 --engine romio").engines, [("romio", Engine::Romio)]);
        let a = args_of("scenario --paper --engine flexible");
        assert_eq!(a.engines, [("flexible", Engine::Flexible)]);
        assert_eq!(
            a.describe(find("scenario").unwrap()),
            "bench scenario | scale: paper | engine: flexible"
        );
    }

    #[test]
    fn scale_parses_nprocs_override() {
        assert_eq!(args_of("e1").nprocs, None);
        let a = args_of("e1 --paper --nprocs 1024");
        assert!(a.paper);
        assert_eq!(a.nprocs, Some(1024));
        assert_eq!(a.nprocs_or(64), 1024);
        assert_eq!(a.describe(find("e1").unwrap()), "bench e1 | scale: paper | nprocs: 1024");
        let a = args_of("host --nprocs 256 --full --check");
        assert_eq!((a.nprocs, a.full, a.check), (Some(256), true, true));
        assert_eq!(a.describe(find("host").unwrap()), "bench host | nprocs: 256 | full | check");
        // The log changes no row, so the header does not name it.
        let a = args_of("a6 --ost-log --engine flexible");
        assert!(a.ost_log);
        assert_eq!(a.describe(find("a6").unwrap()), "bench a6 | scale: default | engine: flexible");
    }

    #[test]
    fn list_is_a_command_of_its_own() {
        assert_eq!(parse_line("--list"), Ok(Command::List));
        assert_eq!(parse_line("--list e1"), Err("`--list` takes no argument, got `e1`".into()));
    }

    #[test]
    fn a_missing_or_unknown_experiment_is_rejected() {
        assert_eq!(parse_line(""), Err("missing experiment".into()));
        assert_eq!(parse_line("nope"), Err("unknown experiment `nope`".into()));
        // Flags do not stand in for the experiment.
        assert_eq!(parse_line("--paper e3"), Err("unknown experiment `--paper`".into()));
    }

    #[test]
    fn an_unknown_flag_is_rejected() {
        assert_eq!(parse_line("e3 --papr"), Err("unknown flag `--papr`".into()));
        assert_eq!(parse_line("e3 extra"), Err("unknown flag `extra`".into()));
        // The repetition knob is gone, not ignored.
        assert_eq!(parse_line("e3 --repeat 3"), Err("unknown flag `--repeat`".into()));
        assert_eq!(parse_line("e3 --best-of 3"), Err("unknown flag `--best-of`".into()));
    }

    #[test]
    fn a_missing_or_malformed_value_is_rejected() {
        assert_eq!(parse_line("e3 --nprocs"), Err("`--nprocs` needs a value".into()));
        assert_eq!(parse_line("a6 --engine"), Err("`--engine` needs a value".into()));
        let positive = |v: &str| Err(format!("`--nprocs` needs a positive integer, got `{v}`"));
        assert_eq!(parse_line("e3 --nprocs many"), positive("many"));
        assert_eq!(parse_line("e3 --nprocs 0"), positive("0"));
        assert_eq!(parse_line("e3 --nprocs -4"), positive("-4"));
        assert_eq!(parse_line("e3 --nprocs --paper"), positive("--paper"));
        assert_eq!(
            parse_line("a6 --engine mpich"),
            Err("`--engine` must be romio, flexible or both, got `mpich`".into())
        );
    }

    #[test]
    fn a_flag_the_experiment_does_not_take_is_rejected() {
        assert_eq!(parse_line("a1 --engine romio"), Err("`a1` does not take `--engine`".into()));
        assert_eq!(parse_line("e3 --check"), Err("`e3` does not take `--check`".into()));
        assert_eq!(parse_line("host --paper"), Err("`host` does not take `--paper`".into()));
        assert_eq!(parse_line("host --ost-log"), Err("`host` does not take `--ost-log`".into()));
    }

    #[test]
    fn the_registry_is_the_thirteen_experiments_with_unique_names() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.join(" "), "e1 e2 e2-spikes e3 a1 a3 a4 a6 a7 a8 read scenario host");
        assert!(usage().ends_with(&names.join(" ")));
        let host_time: Vec<&str> =
            EXPERIMENTS.iter().filter(|e| !e.virtual_time).map(|e| e.name).collect();
        assert_eq!(host_time, ["host"]);
    }
}
