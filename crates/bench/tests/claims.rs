//! The paper's claims (and this reproduction's own), asserted on the
//! golden rows: every test reads `results/<exp>_default.txt` — the file
//! `scripts/verify.sh` diffs against what `bench <exp>` prints — and
//! checks a claim EXPERIMENTS.md makes on every row it quantifies over.
//! A claim made at both scales reads `results/<exp>_paper.txt` too.
//! No world is run here. A claim that stops holding fails with its row;
//! EXPERIMENTS.md lists the claims that are known *not* to hold instead
//! of asserting them here.

use flexio_bench::EXPERIMENTS;
use std::collections::BTreeSet;
use std::path::PathBuf;

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

/// The row families of `results/<exp>_default.txt`, by the grammar
/// `flexio_bench`'s report module fixes: a `# columns:` line opens a
/// family, a blank line ends it, `#` lines inside it are comments.
fn families(exp: &str) -> Vec<Family> {
    families_at(exp, "default")
}

/// [`families`] of `results/<exp>_<scale>.txt`.
fn families_at(exp: &str, scale: &str) -> Vec<Family> {
    let path = results_dir().join(format!("{exp}_{scale}.txt"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut out: Vec<Family> = Vec::new();
    let mut open = false;
    for line in text.lines() {
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
fn rows(exp: &str) -> Family {
    let mut f = families(exp);
    assert_eq!(f.len(), 1, "{exp} has {} row families", f.len());
    f.remove(0)
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
    let f = rows("e1");
    for aggs in f.distinct("aggs") {
        for size in ["8", "16", "32", "64", "128"] {
            let at = f.select("aggs", &aggs).select("region_size_bytes", size);
            let (st, ve) = (at.select("method", "new+struct"), at.select("method", "new+vect"));
            assert!(st.num("mbps") > ve.num("mbps"), "{aggs} aggs, {size} B");
        }
    }
}

#[test]
fn e1_every_method_copies_each_byte_once() {
    // The staging-copy ledger is one pass per byte on the run path, for
    // both engines and both filetype styles.
    let f = rows("e1");
    for size in f.distinct("region_size_bytes") {
        let at = f.select("region_size_bytes", &size);
        let bytes = 16.0 * 1024.0 * size.parse::<f64>().unwrap();
        assert!(at.nums("bytes_copied").iter().all(|&c| c == bytes), "{size} B");
    }
}

#[test]
fn e2_conditional_picks_the_winner_and_the_crossover_is_between_8_and_64_kib() {
    let f = rows("e2");
    let panel = |extent: &str, method: &str| {
        f.select("extent_bytes", extent).select("method", method).nums("mbps")
    };
    // At this scale the crossover falls between the 16 and the 64 KiB
    // panel, so the conditional's 16 KiB threshold picks the winner on
    // every row of every panel.
    for extent in f.distinct("extent_bytes") {
        let (sieve, naive) = (panel(&extent, "datasieve"), panel(&extent, "naive"));
        for (i, cond) in panel(&extent, "conditional").into_iter().enumerate() {
            assert_eq!(cond, sieve[i].max(naive[i]), "extent {extent}, point {i}");
        }
    }
    for extent in ["1024", "8192"] {
        let (sieve, naive) = (panel(extent, "datasieve"), panel(extent, "naive"));
        assert!(sieve.iter().zip(&naive).all(|(s, n)| s >= n), "sieving wins at {extent} B");
    }
    let (sieve, naive) = (panel("65536", "datasieve"), panel("65536", "naive"));
    assert!(sieve.iter().zip(&naive).all(|(s, n)| n >= s), "naive wins at 64 KiB");
    // The winner within a panel does not depend on the fraction of
    // useful data; only the last point (100 %: contiguous) is a tie.
    for extent in f.distinct("extent_bytes") {
        let (sieve, naive) = (panel(&extent, "datasieve"), panel(&extent, "naive"));
        assert_eq!(sieve.last(), naive.last(), "contiguous fast path at {extent} B");
    }
}

#[test]
fn e2_every_panel_spikes_at_the_contiguous_point() {
    let f = rows("e2");
    for extent in f.distinct("extent_bytes") {
        for method in f.distinct("method") {
            let v = f.select("extent_bytes", &extent).select("method", &method).nums("mbps");
            let (last, before) = (v[v.len() - 1], v[v.len() - 2]);
            assert!(last > 1.5 * before, "{method} at {extent} B: {before} -> {last}");
        }
    }
}

#[test]
fn e2_spikes_page_multiples_have_no_rmw_reads_and_beat_their_neighbours() {
    let f = rows("e2-spikes");
    for page_multiple in [4096u64, 8192] {
        let at = |size: u64| f.select("region_size", &size.to_string());
        let on = at(page_multiple);
        assert_eq!(on.num("rmw_page_reads"), 0.0);
        // The spike is two-sided: both neighbours pay the RMW page reads
        // again and fall below it. Bandwidth grows with region size
        // across the sweep, so the *larger* neighbour is the sharp test.
        for neighbour in [page_multiple - 128, page_multiple + 128] {
            let n = at(neighbour);
            assert!(n.num("rmw_page_reads") > 0.0, "{page_multiple} B vs {neighbour} B");
            assert!(on.num("mbps") > n.num("mbps"), "{page_multiple} B vs {neighbour} B");
        }
    }
}

#[test]
fn e3_pfr_with_alignment_is_strictly_best_and_unaligned_is_below_either_aligned_combo() {
    let f = rows("e3");
    assert_eq!(f.distinct("clients").len(), 4);
    for clients in f.distinct("clients") {
        let at = |combo: &str| f.select("clients", &clients).select("combo", combo).num("mbps");
        let (both, align_only) = (at("pfr/fr-align"), at("no-pfr/fr-align"));
        assert!(both > align_only, "{clients} clients");
        for unaligned in ["pfr/no-fr-align", "no-pfr/no-fr-align"] {
            assert!(at(unaligned) < both.min(align_only), "{clients} clients, {unaligned}");
        }
    }
}

#[test]
fn a1_struct_ships_the_least_metadata_and_vector_the_most() {
    let f = rows("a1");
    for regions in f.distinct("regions") {
        let at = |variant: &str, column: &str| {
            f.select("regions", &regions).select("variant", variant).num(column)
        };
        let (old, vector, st) = ("old(flattened-access)", "new+vector(D=M)", "new+struct(D=1)");
        assert!(at(st, "metadata_bytes") < at(old, "metadata_bytes"), "{regions} regions");
        assert!(at(old, "metadata_bytes") < at(vector, "metadata_bytes"), "{regions} regions");
        assert!(at(st, "pairs_processed") < at(old, "pairs_processed"), "{regions} regions");
        assert!(at(old, "pairs_processed") < at(vector, "pairs_processed"), "{regions} regions");
    }
    // new+struct's metadata does not grow with the access: it shrinks to
    // nothing while the old engine's grows ∝ M.
    let st = f.select("variant", "new+struct(D=1)").nums("metadata_bytes");
    assert!(st.windows(2).all(|w| w[1] <= w[0]), "{st:?}");
    let old = f.select("variant", "old(flattened-access)").nums("metadata_bytes");
    assert!(old.windows(2).all(|w| w[1] > 2.0 * w[0]), "{old:?}");
}

#[test]
fn a3_balanced_load_beats_the_even_split_at_every_world_size() {
    let f = rows("a3");
    for nprocs in f.distinct("nprocs") {
        let at = |a: &str| f.select("nprocs", &nprocs).select("assigner", a).num("mbps");
        assert!(at("balanced-load") > 1.3 * at("even-aar"), "{nprocs} procs");
    }
}

#[test]
fn a4_the_cache_charges_call_1_in_full_and_replays_every_later_call() {
    let f = rows("a4");
    let (on, off) = (f.nums("pairs_cache_on"), f.nums("pairs_cache_off"));
    assert_eq!(on[0], off[0], "call 1 derives either way");
    assert!(off.iter().all(|&p| p == off[0]), "without the cache every call derives");
    assert!(on[1..].iter().all(|&p| p == on[1] && p < off[0] / 100.0), "{on:?}");
    let (ms_on, ms_off) = (f.nums("ms_cache_on"), f.nums("ms_cache_off"));
    assert!(ms_on[1..].iter().zip(&ms_off[1..]).all(|(a, b)| a < b), "a hit is cheaper");
}

#[test]
fn a6_depth_2_is_never_slower_than_depth_1_and_depth_1_hides_nothing() {
    let f = rows("a6");
    for aggs in f.distinct("aggs") {
        for engine in f.distinct("engine") {
            let at = |depth: &str| {
                f.select("aggs", &aggs).select("engine", &engine).select("depth", depth)
            };
            assert!(at("depth-2").num("ns") <= at("depth-1").num("ns"), "{engine}, {aggs} aggs");
            assert_eq!(at("depth-1").num("hidden_ns"), 0.0);
            assert!(at("depth-2").num("hidden_ns") > 0.0);
        }
    }
}

#[test]
fn a6_auto_depth_is_within_1_percent_of_the_best_fixed_depth() {
    for scale in ["default", "paper"] {
        let f = families_at("a6", scale).remove(0);
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
    }
    // A6 writes a fresh file: ROMIO's sieving read has nothing below the
    // agreed size to fetch, so its commit writes overlap the next cycle as
    // the flexible engine's do, and depth 4 buys 26 % at both counts.
    // Where the file holds the bytes the read blocks each write cycle and
    // the curve is flat past depth 2 (`tests/agreed_size.rs`).
    let f = rows("a6");
    for aggs in f.distinct("aggs") {
        let romio = |d: &str| f.select("aggs", &aggs).select("engine", "romio").select("depth", d);
        assert!(romio("depth-4").num("mbps") > 1.2 * romio("depth-2").num("mbps"), "{aggs} aggs");
    }
}

#[test]
fn a7_retries_turn_aborts_into_bounded_slowdowns_and_rebalancing_wins_at_x16() {
    let panels = families("a7");
    let (faults, straggler) = (&panels[0], &panels[1]);
    let retried = faults.select("io_retries", "4");
    assert!(retried.distinct("outcome") == ["ok"], "retry-4 never aborts");
    assert!(retried.nums("slowdown").iter().all(|&s| s < 1.5));
    let bare = faults.select("io_retries", "0");
    for (outcome, injected) in bare.rows.iter().map(|r| (&r[bare.col("outcome")], &r[6])) {
        assert_eq!(outcome == "aborted", injected != "0", "no-retry aborts iff a fault lands");
    }
    for aggs in straggler.distinct("aggs") {
        let at = |mult: &str, mode: &str| {
            straggler.select("aggs", &aggs).select("multiplier", mult).select("mode", mode)
        };
        // Below the detector's 2x threshold nothing moves.
        assert_eq!(at("2", "rebalance").num("realms_rebalanced"), 0.0);
        assert_eq!(at("2", "rebalance").num("ns"), at("2", "static").num("ns"));
        assert!(at("16", "rebalance").num("ns") < at("16", "static").num("ns"), "{aggs} aggs");
    }
}

#[test]
fn a8_recovery_publishes_abort_keeps_the_old_epoch_and_cost_is_linear_in_the_watchdog() {
    let panels = families("a8");
    let (crash, watchdog) = (&panels[0], &panels[1]);
    assert!(crash.select("mode", "recover").distinct("committed") == ["Some(1)"]);
    assert!(crash.select("mode", "abort").distinct("committed") == ["Some(0)"]);
    assert!(crash.distinct("survivors") == ["7"], "exactly the victim dies");
    for aggs in crash.distinct("aggs") {
        for mode in ["recover", "abort"] {
            let s = crash.select("aggs", &aggs).select("mode", mode).nums("slowdown");
            assert!(s.windows(2).all(|w| w[1] >= w[0]), "{aggs} aggs {mode}: {s:?}");
        }
        // One more microsecond of watchdog is one more microsecond of
        // recovery: detection latency is the deadline.
        let w = watchdog.select("aggs", &aggs);
        let (us, ns) = (w.nums("watchdog_us"), w.nums("gen_ns"));
        for i in 1..us.len() {
            assert_eq!(ns[i] - ns[i - 1], (us[i] - us[i - 1]) * 1e3, "{aggs} aggs");
        }
    }
}

#[test]
fn read_new_struct_is_at_least_old_vec_in_every_row_and_every_method_grows_up_to_1_kib() {
    let f = rows("read");
    for size in f.distinct("region_size") {
        let at = |method: &str| f.select("region_size", &size).select("method", method).num("mbps");
        assert!(at("new+struct") >= at("old+vec"), "{size} B");
    }
    // Past 1 KiB the realms start on two OSTs and convoy (EXPERIMENTS
    // "Read"), so growth is claimed only up to 1 KiB.
    let sizes = f.distinct("region_size");
    let n = sizes.iter().filter(|s| s.parse::<u64>().unwrap() <= 1024).count();
    assert!(n >= 4 && sizes[n - 1] == "1024", "{sizes:?}");
    for method in f.distinct("method") {
        let v = f.select("method", &method).nums("mbps");
        assert!(v[..n].windows(2).all(|w| w[1] > w[0]), "{method}: {v:?}");
    }
}

#[test]
fn scenario_flexible_engine_leads_romio_in_every_family() {
    let f = rows("scenario");
    assert_eq!(f.distinct("scenario").len(), 5);
    for scenario in f.distinct("scenario") {
        let at = |engine: &str| f.select("scenario", &scenario).select("engine", engine);
        assert!(at("flexible").num("mbps") > at("romio").num("mbps"), "{scenario}");
        // Both engines move the same bytes.
        for column in ["write_bytes", "read_bytes"] {
            assert_eq!(at("flexible").num(column), at("romio").num(column), "{scenario}");
        }
    }
}
