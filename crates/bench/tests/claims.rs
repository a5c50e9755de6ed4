//! The paper's claims (and this reproduction's own), asserted on the
//! golden rows: every test reads both `results/<exp>_default.txt` and
//! `results/<exp>_paper.txt` — the files `scripts/verify.sh` and CI's
//! `golden-paper` job diff against what `bench <exp>` prints — and checks
//! a claim EXPERIMENTS.md makes on every row it quantifies over. A claim
//! that does not hold at one scale is asserted there as its exception,
//! named with its scale and rows, so that the exception changing fails
//! too. Scale-dependent constants come from the files' header lines.
//! No world is run here. A claim that stops holding fails with its row;
//! EXPERIMENTS.md lists the claims that are known *not* to hold instead
//! of asserting them here.

use flexio_bench::EXPERIMENTS;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// The two scales every results file is written at.
const SCALES: [&str; 2] = ["default", "paper"];

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// One row family of a results file: the names of its `# columns:` line
/// and its rows as text fields.
struct Family {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Family {
    fn col(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column {name:?} in {:?}", self.columns))
    }

    /// The rows whose `column` reads `value`.
    fn select(&self, column: &str, value: &str) -> Family {
        let c = self.col(column);
        let rows = self.rows.iter().filter(|r| r[c] == value).cloned().collect();
        Family { columns: self.columns.clone(), rows }
    }

    /// The distinct values of `column`, in order of first appearance.
    fn distinct(&self, column: &str) -> Vec<String> {
        let c = self.col(column);
        let mut seen: Vec<String> = Vec::new();
        for r in &self.rows {
            if !seen.contains(&r[c]) {
                seen.push(r[c].clone());
            }
        }
        seen
    }

    /// `column` of every row, as numbers.
    fn nums(&self, column: &str) -> Vec<f64> {
        let c = self.col(column);
        self.rows.iter().map(|r| r[c].parse().unwrap_or_else(|_| panic!("{:?}", r[c]))).collect()
    }

    /// `column` of the one row left after `select`s.
    fn num(&self, column: &str) -> f64 {
        let v = self.nums(column);
        assert_eq!(v.len(), 1, "expected one row, got {:?}", self.rows);
        v[0]
    }
}

/// The text of `results/<exp>_<scale>.txt`.
fn read(exp: &str, scale: &str) -> String {
    let path = results_dir().join(format!("{exp}_{scale}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The row families of `results/<exp>_<scale>.txt`, by the grammar
/// `flexio_bench`'s report module fixes: a `# columns:` line opens a
/// family, a blank line ends it, `#` lines inside it are comments.
fn families_at(exp: &str, scale: &str) -> Vec<Family> {
    let mut out: Vec<Family> = Vec::new();
    let mut open = false;
    for line in read(exp, scale).lines() {
        if let Some(names) = line.strip_prefix("# columns: ") {
            out.push(Family {
                columns: names.split(',').map(String::from).collect(),
                rows: vec![],
            });
            open = true;
        } else if line.is_empty() {
            open = false;
        } else if open && !line.starts_with('#') {
            let family = out.last_mut().unwrap();
            let row: Vec<String> = line.split(',').map(String::from).collect();
            assert_eq!(row.len(), family.columns.len(), "{exp}: ragged row {line:?}");
            family.rows.push(row);
        }
    }
    assert!(out.iter().all(|f| !f.rows.is_empty()), "{exp}: a family without rows");
    out
}

/// The single family of a one-family experiment.
fn rows_at(exp: &str, scale: &str) -> Family {
    let mut f = families_at(exp, scale);
    assert_eq!(f.len(), 1, "{exp} has {} row families", f.len());
    f.remove(0)
}

/// The number written before ` <unit>` on the `#` lines above the first
/// family of `results/<exp>_<scale>.txt`: 1024 for `regions/client` in
/// `# 16 procs, 1024 regions/client, …`.
fn header_count(exp: &str, scale: &str, unit: &str) -> f64 {
    let text = read(exp, scale);
    let header = text.lines().take_while(|l| !l.starts_with("# columns: "));
    let words: Vec<&str> =
        header.flat_map(|l| l.split([' ', ',']).filter(|w| !w.is_empty())).collect();
    let at = words
        .windows(2)
        .find(|w| w[1] == unit)
        .unwrap_or_else(|| panic!("{exp}_{scale}: no `<n> {unit}` in the header"));
    at[0].parse().unwrap_or_else(|_| panic!("{exp}_{scale}: {:?} before {unit}", at[0]))
}

#[test]
fn results_are_exactly_the_virtual_experiments_files_and_flexbench_records() {
    let mut want = BTreeSet::new();
    for e in EXPERIMENTS.iter().filter(|e| e.virtual_time) {
        want.insert(format!("{}_default.txt", e.name));
        want.insert(format!("{}_paper.txt", e.name));
    }
    let got: BTreeSet<String> = generated_files().into_iter().collect();
    let orphans: Vec<_> = got.difference(&want).collect();
    let ungated: Vec<_> = want.difference(&got).collect();
    assert!(orphans.is_empty(), "results/ files no experiment generates: {orphans:?}");
    assert!(ungated.is_empty(), "experiments without a results file: {ungated:?}");
}

#[test]
fn results_files_hold_only_what_the_runner_prints() {
    for name in generated_files() {
        let text = std::fs::read_to_string(results_dir().join(&name)).unwrap();
        let mut lines = text.lines();
        for want in ["#@ stdout of `bench ", "#@ commit: "] {
            let line = lines.next().unwrap_or_default();
            assert!(line.starts_with(want), "{name}: provenance line {line:?}");
        }
        // Below the provenance lines: comments, rows of an open family,
        // table bodies, blank lines — and nothing cargo or a retired
        // runtime wrote.
        let (mut in_family, mut in_table) = (false, false);
        for line in lines {
            for stale in ["Compiling", "Finished", "Running", "shards-", "best-of:"] {
                assert!(!line.contains(stale), "{name}: stale line {line:?}");
            }
            if line.is_empty() {
                (in_family, in_table) = (false, false);
            } else if line.starts_with("## ") {
                (in_family, in_table) = (false, true);
            } else if line.starts_with("# columns: ") {
                in_family = true;
            } else if !line.starts_with('#') {
                assert!(
                    in_family || in_table,
                    "{name}: {line:?} is neither a row nor a table line"
                );
                assert!(
                    in_table || line.contains(','),
                    "{name}: {line:?} under a `# columns:` line"
                );
            }
        }
    }
}

/// Every file under `results/` but the `flexbench_pr*.txt` records.
fn generated_files() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(results_dir())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| !n.starts_with("flexbench_pr"))
        .collect();
    names.sort();
    names
}

#[test]
fn e1_struct_beats_vector_at_every_small_region_for_every_aggregator_count() {
    for scale in SCALES {
        let f = rows_at("e1", scale);
        for aggs in f.distinct("aggs") {
            for size in ["8", "16", "32", "64", "128"] {
                let at = f.select("aggs", &aggs).select("region_size_bytes", size);
                let (st, ve) = (at.select("method", "new+struct"), at.select("method", "new+vect"));
                assert!(st.num("mbps") > ve.num("mbps"), "{scale}: {aggs} aggs, {size} B");
            }
        }
    }
}

#[test]
fn e1_every_method_copies_each_byte_once() {
    // The staging-copy ledger is one pass per byte on the run path, for
    // both engines and both filetype styles: every rank's regions, once.
    for scale in SCALES {
        let f = rows_at("e1", scale);
        let regions =
            header_count("e1", scale, "procs") * header_count("e1", scale, "regions/client");
        for size in f.distinct("region_size_bytes") {
            let at = f.select("region_size_bytes", &size);
            let bytes = regions * size.parse::<f64>().unwrap();
            assert!(at.nums("bytes_copied").iter().all(|&c| c == bytes), "{scale}: {size} B");
        }
    }
}

#[test]
fn e1_new_struct_is_comparable_to_old_vec_in_every_cell() {
    // Fig. 4: the new engine with struct filetypes and ROMIO with flattened
    // vectors are comparable, each ahead in some cells. At the paper's
    // scale new+struct ÷ old+vec stays within 0.95–1.20 in all 40 cells
    // and ROMIO leads three of them; at default scale the flexible engine
    // leads every cell, by at most 40 %.
    for (scale, lo, hi, romio_leads) in [("default", 1.0, 1.4, 0), ("paper", 0.95, 1.2, 3)] {
        let f = rows_at("e1", scale);
        let mut leads = 0;
        for aggs in f.distinct("aggs") {
            for size in f.distinct("region_size_bytes") {
                let at = f.select("aggs", &aggs).select("region_size_bytes", &size);
                let ratio = at.select("method", "new+struct").num("mbps")
                    / at.select("method", "old+vec").num("mbps");
                assert!((lo..=hi).contains(&ratio), "{scale}: {aggs} aggs, {size} B: {ratio}");
                leads += usize::from(ratio < 1.0);
            }
        }
        assert_eq!(leads, romio_leads, "{scale}: cells old+vec leads");
    }
}

#[test]
fn e2_conditional_picks_the_winner_and_the_crossover_is_between_8_and_64_kib() {
    for scale in SCALES {
        let f = rows_at("e2", scale);
        let panel = |extent: &str, method: &str| {
            f.select("extent_bytes", extent).select("method", method).nums("mbps")
        };
        // The conditional's 16 KiB threshold picks the winner on every row
        // of every panel, except at `--paper` in the 16 KiB panel: there
        // the crossover falls inside the panel, and the first four points
        // go to sieving while naive is ahead.
        for extent in f.distinct("extent_bytes") {
            let (sieve, naive) = (panel(&extent, "datasieve"), panel(&extent, "naive"));
            for (i, cond) in panel(&extent, "conditional").into_iter().enumerate() {
                if scale == "paper" && extent == "16384" && i < 4 {
                    assert!(cond == sieve[i] && naive[i] > sieve[i], "paper 16 KiB point {i}");
                } else {
                    assert_eq!(cond, sieve[i].max(naive[i]), "{scale}: extent {extent}, point {i}");
                }
            }
        }
        for extent in ["1024", "8192"] {
            let (sieve, naive) = (panel(extent, "datasieve"), panel(extent, "naive"));
            assert!(
                sieve.iter().zip(&naive).all(|(s, n)| s >= n),
                "{scale}: sieving wins at {extent} B"
            );
        }
        let (sieve, naive) = (panel("65536", "datasieve"), panel("65536", "naive"));
        assert!(sieve.iter().zip(&naive).all(|(s, n)| n >= s), "{scale}: naive wins at 64 KiB");
        // The winner within a panel does not depend on the fraction of
        // useful data; only the last point (100 %: contiguous) is a tie.
        for extent in f.distinct("extent_bytes") {
            let (sieve, naive) = (panel(&extent, "datasieve"), panel(&extent, "naive"));
            assert_eq!(sieve.last(), naive.last(), "{scale}: contiguous fast path at {extent} B");
        }
    }
}

#[test]
fn e2_every_panel_spikes_at_the_contiguous_point() {
    for scale in SCALES {
        let f = rows_at("e2", scale);
        for extent in f.distinct("extent_bytes") {
            for method in f.distinct("method") {
                let v = f.select("extent_bytes", &extent).select("method", &method).nums("mbps");
                let (last, before) = (v[v.len() - 1], v[v.len() - 2]);
                assert!(last > 1.5 * before, "{scale}: {method} at {extent} B: {before} -> {last}");
            }
        }
    }
}

#[test]
fn e2_spikes_page_multiples_have_no_rmw_reads_and_beat_their_neighbours() {
    for scale in SCALES {
        let f = rows_at("e2-spikes", scale);
        for page_multiple in [4096u64, 8192] {
            let at = |size: u64| f.select("region_size", &size.to_string());
            let on = at(page_multiple);
            assert_eq!(on.num("rmw_page_reads"), 0.0);
            // The spike is two-sided: both neighbours pay the RMW page
            // reads again and fall below it. Bandwidth grows with region
            // size across the sweep, so the *larger* neighbour is the
            // sharp test.
            for neighbour in [page_multiple - 128, page_multiple + 128] {
                let n = at(neighbour);
                let what = format!("{scale}: {page_multiple} B vs {neighbour} B");
                assert!(n.num("rmw_page_reads") > 0.0, "{what}");
                assert!(on.num("mbps") > n.num("mbps"), "{what}");
            }
        }
    }
}

#[test]
fn e3_pfr_with_alignment_is_strictly_best_and_unaligned_is_below_either_aligned_combo() {
    for scale in SCALES {
        let f = rows_at("e3", scale);
        assert_eq!(f.distinct("clients").len(), 4);
        for clients in f.distinct("clients") {
            let at = |combo: &str| f.select("clients", &clients).select("combo", combo).num("mbps");
            let (both, align_only) = (at("pfr/fr-align"), at("no-pfr/fr-align"));
            assert!(both > align_only, "{scale}: {clients} clients");
            for unaligned in ["pfr/no-fr-align", "no-pfr/no-fr-align"] {
                let what = format!("{scale}: {clients} clients, {unaligned}");
                assert!(at(unaligned) < both.min(align_only), "{what}");
            }
        }
    }
}

#[test]
fn a1_struct_ships_the_least_metadata_and_vector_the_most() {
    for scale in SCALES {
        let f = rows_at("a1", scale);
        for regions in f.distinct("regions") {
            let at = |variant: &str, column: &str| {
                f.select("regions", &regions).select("variant", variant).num(column)
            };
            let (old, vector, st) = ("old(flattened-access)", "new+vector(D=M)", "new+struct(D=1)");
            let what = format!("{scale}: {regions} regions");
            assert!(at(st, "metadata_bytes") < at(old, "metadata_bytes"), "{what}");
            assert!(at(old, "metadata_bytes") < at(vector, "metadata_bytes"), "{what}");
            assert!(at(st, "pairs_processed") < at(old, "pairs_processed"), "{what}");
            assert!(at(old, "pairs_processed") < at(vector, "pairs_processed"), "{what}");
        }
        // new+struct's metadata does not grow with the access: it shrinks
        // to nothing while the old engine's grows ∝ M.
        let st = f.select("variant", "new+struct(D=1)").nums("metadata_bytes");
        assert!(st.windows(2).all(|w| w[1] <= w[0]), "{scale}: {st:?}");
        let old = f.select("variant", "old(flattened-access)").nums("metadata_bytes");
        assert!(old.windows(2).all(|w| w[1] > 2.0 * w[0]), "{scale}: {old:?}");
    }
}

#[test]
fn a3_balanced_load_beats_the_even_split_at_every_world_size() {
    for scale in SCALES {
        let f = rows_at("a3", scale);
        for nprocs in f.distinct("nprocs") {
            let at = |a: &str| f.select("nprocs", &nprocs).select("assigner", a).num("mbps");
            assert!(at("balanced-load") > 1.3 * at("even-aar"), "{scale}: {nprocs} procs");
        }
    }
}

#[test]
fn a4_the_cache_charges_call_1_in_full_and_replays_every_later_call() {
    for scale in SCALES {
        let f = rows_at("a4", scale);
        let (on, off) = (f.nums("pairs_cache_on"), f.nums("pairs_cache_off"));
        assert_eq!(on[0], off[0], "{scale}: call 1 derives either way");
        assert!(off.iter().all(|&p| p == off[0]), "{scale}: without the cache every call derives");
        assert!(on[1..].iter().all(|&p| p == on[1] && p < off[0] / 100.0), "{scale}: {on:?}");
        let (ms_on, ms_off) = (f.nums("ms_cache_on"), f.nums("ms_cache_off"));
        let cheaper = ms_on[1..].iter().zip(&ms_off[1..]).all(|(a, b)| a < b);
        assert!(cheaper, "{scale}: a hit is cheaper");
    }
}

#[test]
fn a6_depth_2_is_never_slower_than_depth_1_and_depth_1_hides_nothing() {
    for scale in SCALES {
        let f = rows_at("a6", scale);
        for aggs in f.distinct("aggs") {
            for engine in f.distinct("engine") {
                let at = |depth: &str| {
                    f.select("aggs", &aggs).select("engine", &engine).select("depth", depth)
                };
                let what = format!("{scale}: {engine}, {aggs} aggs");
                assert!(at("depth-2").num("ns") <= at("depth-1").num("ns"), "{what}");
                assert_eq!(at("depth-1").num("hidden_ns"), 0.0, "{what}");
                assert!(at("depth-2").num("hidden_ns") > 0.0, "{what}");
            }
        }
    }
}

#[test]
fn a6_auto_depth_is_within_1_percent_of_the_best_fixed_depth() {
    for scale in SCALES {
        let f = rows_at("a6", scale);
        let copied = f.nums("bytes_copied");
        assert!(copied.iter().all(|&c| c == copied[0]), "depth moves no extra bytes");
        for aggs in f.distinct("aggs") {
            for engine in f.distinct("engine") {
                let at = |depth: &str| {
                    f.select("aggs", &aggs).select("engine", &engine).select("depth", depth)
                };
                let fixed = ["depth-1", "depth-2", "depth-4"].iter().map(|d| at(d).num("mbps"));
                let best = fixed.fold(0.0, f64::max);
                let auto = at("auto").num("mbps");
                assert!(auto >= 0.99 * best, "{scale}, {engine}, {aggs} aggs: {auto} vs {best}");
            }
        }
        // A6 writes a fresh file: ROMIO's sieving read has nothing below
        // the agreed size to fetch, so its commit writes overlap the next
        // cycle as the flexible engine's do, and depth 4 buys over 20 %
        // on depth 2 — except at `--paper` with 32 aggregators, where the
        // curve is flat past depth 2 (under 5 %). Where the file holds the
        // bytes the read blocks each write cycle and the curve is flat
        // past depth 2 at any scale (`tests/agreed_size.rs`).
        for aggs in f.distinct("aggs") {
            let romio = |d: &str| {
                f.select("aggs", &aggs).select("engine", "romio").select("depth", d).num("mbps")
            };
            let gain = romio("depth-4") / romio("depth-2");
            if scale == "paper" && aggs == "32" {
                assert!((1.0..1.05).contains(&gain), "paper, 32 aggs: depth 4 ÷ 2 = {gain}");
            } else {
                assert!(gain > 1.2, "{scale}, {aggs} aggs: depth 4 ÷ 2 = {gain}");
            }
        }
    }
}

#[test]
fn a7_retries_turn_aborts_into_bounded_slowdowns_and_rebalancing_wins_at_x16() {
    for scale in SCALES {
        let panels = families_at("a7", scale);
        let (faults, straggler) = (&panels[0], &panels[1]);
        let retried = faults.select("io_retries", "4");
        assert!(retried.distinct("outcome") == ["ok"], "{scale}: retry-4 never aborts");
        // Retries bound the slowdown under 1.5×, except at `--paper` at
        // the 10 % fault rate, where `retry-4` slows by 1.6×.
        for (rate, slowdown) in retried.distinct("rate").iter().zip(retried.nums("slowdown")) {
            if scale == "paper" && rate == "0.1" {
                assert!((1.5..1.7).contains(&slowdown), "paper, rate 0.1: {slowdown}");
            } else {
                assert!(slowdown < 1.5, "{scale}, rate {rate}: {slowdown}");
            }
        }
        let bare = faults.select("io_retries", "0");
        let injected = bare.col("faults_injected");
        for (outcome, injected) in bare.rows.iter().map(|r| (&r[bare.col("outcome")], &r[injected]))
        {
            assert_eq!(
                outcome == "aborted",
                injected != "0",
                "{scale}: no-retry aborts iff a fault lands"
            );
        }
        for aggs in straggler.distinct("aggs") {
            let at = |mult: &str, mode: &str| {
                straggler.select("aggs", &aggs).select("multiplier", mult).select("mode", mode)
            };
            // Below the detector's 2x threshold nothing moves.
            assert_eq!(at("2", "rebalance").num("realms_rebalanced"), 0.0);
            assert_eq!(at("2", "rebalance").num("ns"), at("2", "static").num("ns"));
            let what = format!("{scale}: {aggs} aggs");
            assert!(at("16", "rebalance").num("ns") < at("16", "static").num("ns"), "{what}");
        }
    }
}

#[test]
fn a8_recovery_publishes_abort_keeps_the_old_epoch_and_cost_is_linear_in_the_watchdog() {
    for scale in SCALES {
        let panels = families_at("a8", scale);
        let (crash, watchdog) = (&panels[0], &panels[1]);
        assert!(crash.select("mode", "recover").distinct("committed") == ["Some(1)"]);
        assert!(crash.select("mode", "abort").distinct("committed") == ["Some(0)"]);
        let survivors = (header_count("a8", scale, "procs") - 1.0).to_string();
        assert!(crash.distinct("survivors") == [survivors], "{scale}: exactly the victim dies");
        for aggs in crash.distinct("aggs") {
            for mode in ["recover", "abort"] {
                let s = crash.select("aggs", &aggs).select("mode", mode).nums("slowdown");
                assert!(s.windows(2).all(|w| w[1] >= w[0]), "{scale}: {aggs} aggs {mode}: {s:?}");
            }
            // One more microsecond of watchdog is one more microsecond of
            // recovery: detection latency is the deadline.
            let w = watchdog.select("aggs", &aggs);
            let (us, ns) = (w.nums("watchdog_us"), w.nums("gen_ns"));
            for i in 1..us.len() {
                assert_eq!(ns[i] - ns[i - 1], (us[i] - us[i - 1]) * 1e3, "{scale}: {aggs} aggs");
            }
        }
    }
}

#[test]
fn read_new_struct_is_at_least_old_vec_in_every_row_and_every_method_grows_up_to_1_kib() {
    for scale in SCALES {
        let f = rows_at("read", scale);
        // Except at `--paper` from 1 KiB up, where old+vec leads.
        for size in f.distinct("region_size") {
            let at =
                |method: &str| f.select("region_size", &size).select("method", method).num("mbps");
            let (st, old) = (at("new+struct"), at("old+vec"));
            if scale == "paper" && size.parse::<u64>().unwrap() >= 1024 {
                assert!(old > st, "paper, {size} B: old+vec {old} leads new+struct {st}");
            } else {
                assert!(st >= old, "{scale}, {size} B: new+struct {st}, old+vec {old}");
            }
        }
        // Past 1 KiB the realms start on two OSTs and convoy (EXPERIMENTS
        // "Read"), so growth is claimed only up to 1 KiB.
        let sizes = f.distinct("region_size");
        let n = sizes.iter().filter(|s| s.parse::<u64>().unwrap() <= 1024).count();
        assert!(n >= 4 && sizes[n - 1] == "1024", "{scale}: {sizes:?}");
        for method in f.distinct("method") {
            let v = f.select("method", &method).nums("mbps");
            assert!(v[..n].windows(2).all(|w| w[1] > w[0]), "{scale}: {method}: {v:?}");
        }
    }
}

#[test]
fn scenario_flexible_engine_leads_romio_in_every_family_but_many_task_and_paper_mixed() {
    for scale in SCALES {
        let f = rows_at("scenario", scale);
        assert_eq!(f.distinct("scenario").len(), 5);
        for scenario in f.distinct("scenario") {
            let at = |engine: &str| f.select("scenario", &scenario).select("engine", engine);
            let (flex, romio) = (at("flexible").num("mbps"), at("romio").num("mbps"));
            // ROMIO leads `many-task` at both scales, by under 5 %, and
            // `mixed` at `--paper`, by under 15 %.
            let romio_leads = scenario == "many-task" || (scale == "paper" && scenario == "mixed");
            if romio_leads {
                let lead = romio / flex;
                assert!(
                    (1.0..1.15).contains(&lead),
                    "{scale}: {scenario}: ROMIO ÷ flexible {lead}"
                );
                if scenario == "many-task" {
                    assert!(lead < 1.05, "{scale}: many-task: ROMIO ÷ flexible {lead}");
                }
            } else {
                assert!(flex > romio, "{scale}: {scenario}: flexible {flex}, ROMIO {romio}");
            }
            // Both engines move the same bytes.
            for column in ["write_bytes", "read_bytes"] {
                assert_eq!(at("flexible").num(column), at("romio").num(column), "{scenario}");
            }
        }
    }
}
