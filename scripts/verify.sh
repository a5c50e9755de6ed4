#!/usr/bin/env sh
# Tier-1 verification: build + test the workspace and the benchmark
# package, fully offline (no external crates).
# Run from the repository root: sh scripts/verify.sh
#
# --thorough additionally re-runs the test suite with 512 property-test
# cases per property under the pinned base seed (the in-repo harness in
# flexio_sim::prop honours PROPTEST_CASES and FLEXIO_PROP_SEED) and diffs
# the `--paper` results files, for a nightly-ish deeper sweep.
set -eu

cd "$(dirname "$0")/.."

THOROUGH=0
for arg in "$@"; do
  case "$arg" in
    --thorough) THOROUGH=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# One executor: every collective file world of the bench experiments and
# of the workload crate is calls built for `flexio_workload::FileWorld::run`
# (crates/workload/src/runner.rs), so no experiment or workload grows a
# rank body of its own again. One body in the crates keeps its own: the
# crash workload's generation body (crates/workload/src/crash.rs), which
# runs under a victim schedule and may not close its file, since a dead
# peer would hang `close`'s barrier. The benchmark package (benchmark/)
# keeps its own worlds and is not checked here.
echo "== one executor: MpiFile::open only in runner.rs and once in crash.rs =="
opens="$(grep -rn 'MpiFile::open' crates/bench/src crates/workload/src \
  | grep -v '^crates/workload/src/runner.rs:' || true)"
echo "$opens"
case "$opens" in
  *"
"*|"") bad=1 ;;
  "crates/workload/src/crash.rs:"*) bad=0 ;;
  *) bad=1 ;;
esac
if [ "$bad" -ne 0 ]; then
  echo "a world opens a file itself: build its calls for FileWorld::run" >&2
  exit 1
fi

# One world entry: a world's virtual time starts on idle OSTs because its
# first collective open enters it into the file system
# (`Pfs::enter_world`). The contract lives in that one call — no runner,
# test or benchmark clears the OSTs' calendars itself. Every tracked
# Rust file, up to its first `#[cfg(test)]` line and skipping comments,
# may hold exactly one call, in `MpiFile::open`.
echo "== one world entry: Pfs::enter_world is called only by MpiFile::open =="
calls="$(git ls-files -- '*.rs' | awk '
{
    file = $0
    n = 0
    while ((getline line < file) > 0) {
        n++
        if (line ~ /^[ \t]*#\[cfg\(test\)\]/) break
        if (line ~ /^[ \t]*\/\//) continue
        if (match(line, /fn [a-z_0-9]+/)) fname = substr(line, RSTART + 3, RLENGTH - 3)
        if (line ~ /enter_world\(/ && line !~ /fn enter_world\(/) print file ":" n ": in fn " fname
    }
    close(file)
}')"
echo "$calls"
case "$calls" in
  "crates/core/src/file.rs:"*": in fn open") ;;
  *)
    echo "Pfs::enter_world must be called once, by MpiFile::open, and nowhere else" >&2
    exit 1
    ;;
esac

# No engine on the dense all-to-all: ROMIO sends its offset lists as
# `ADIOI_Calc_others_req` does, a count `alltoall` and then a list only
# where a count is non-zero (DESIGN "Virtual-time model"), and the
# flexible engine exchanges through the sparse `exchange`. `Rank::alltoallv`
# stays for the benchmark's probe and the tests.
echo "== no engine calls the dense alltoallv =="
if grep -rn 'alltoallv(' crates/core/src; then
  echo "crates/core/src calls Rank::alltoallv: use Rank::alltoall or Rank::exchange" >&2
  exit 1
fi

# Citations resolve: a citation is DESIGN or EXPERIMENTS (`.md` optional)
# and one or more quoted titles, as in `DESIGN.md "Rank runtime", "Why
# there is no pool"`. Each title in a tracked file must begin a heading
# or a bold lead-in (`**Why there is no pool.**`) of the file it names,
# up to a word boundary, so no rewrite of the two files
# leaves a citation pointing nowhere. Comment markers at line starts are
# dropped and lines joined first, so a citation may wrap. Of the
# top-level Markdown files only DESIGN, EXPERIMENTS, README and ROADMAP
# are checked: the others (CHANGES.md among them) and the dated flexbench
# records under results/ state what was true when they were written.
echo "== every DESIGN/EXPERIMENTS citation names a heading or bold lead-in =="
unresolved="$(git ls-files \
  | grep -v -e '^[^/]*\.md$' -e '^results/flexbench_pr' \
  | { cat; printf '%s\n' DESIGN.md EXPERIMENTS.md README.md ROADMAP.md; } \
  | awk '
    function titles(doc, file,   line) {
        while ((getline line < file) > 0) {
            if (line ~ /^#+ /) {
                sub(/^#+ +/, "", line)
            } else if (line ~ /^[ \t]*([-*] )?\*\*[^*]+\*\*/) {
                sub(/^[ \t]*([-*] )?\*\*/, "", line)
                sub(/\*\*.*/, "", line)
            } else {
                continue
            }
            title[doc, ++nt[doc]] = line
        }
        close(file)
    }
    function resolves(doc, t,   i, h) {
        for (i = 1; i <= nt[doc]; i++) {
            h = title[doc, i]
            if (h == t) return 1
            if (substr(h, 1, length(t)) == t && substr(h, length(t) + 1, 1) !~ /[A-Za-z0-9_]/) return 1
        }
        return 0
    }
    BEGIN { titles("DESIGN", "DESIGN.md"); titles("EXPERIMENTS", "EXPERIMENTS.md") }
    {
        file = $0
        text = ""
        while ((getline line < file) > 0) {
            sub(/^[ \t]*((\/\/[\/!]?|#+|\*|>)[ \t]*)?/, "", line)
            text = text " " line
        }
        close(file)
        while (match(text, /(DESIGN|EXPERIMENTS)(\.md)? +"[^"`]+"(, *"[^"`]+")*/)) {
            cite = substr(text, RSTART, RLENGTH)
            text = substr(text, RSTART + RLENGTH)
            doc = cite ~ /^DESIGN/ ? "DESIGN" : "EXPERIMENTS"
            while (match(cite, /"[^"]+"/)) {
                t = substr(cite, RSTART + 1, RLENGTH - 2)
                cite = substr(cite, RSTART + RLENGTH)
                if (!resolves(doc, t)) print file ": " doc " \"" t "\""
            }
        }
    }
')"
if [ -n "$unresolved" ]; then
  echo "$unresolved" >&2
  echo "a citation names no heading or bold lead-in of DESIGN.md or EXPERIMENTS.md" >&2
  exit 1
fi

# One format: every workspace member is as rustfmt (rustfmt.toml at the
# root) writes it. The benchmark package (benchmark/) is its own package
# and not checked here.
echo "== cargo fmt --all --check =="
cargo fmt --all --check

echo "== cargo build --release --offline =="
cargo build --release --offline

# The examples: clippy compiles them, this runs them (~1 s for all four).
# `climate_checkpoint` verifies its image and `tiled_matrix` spot-checks
# its quadrants, so a broken example fails here.
for example in quickstart climate_checkpoint tiled_matrix custom_realms; do
  echo "== cargo run --release --offline --example $example =="
  cargo run -q --release --offline --example "$example"
done

echo "== cargo clippy --workspace --all-targets --offline -- -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

# Public documentation may link only to items that exist and are public,
# so a renamed or deleted item cannot survive in a doc link (~3 s).
echo "== RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps --offline =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The root manifest's `default-members` is the whole workspace, so this is
# every member's unit tests as well as the root package's integration
# suites (and `cargo build` above built the `bench` binary the golden-rows
# leg below runs). `--no-fail-fast`: one red run names every failing test
# binary, not only the first.
echo "== cargo test -q --release --offline --no-fail-fast =="
cargo test -q --release --offline --no-fail-fast

# `cargo test` stops at 512 ranks so that it stays seconds in a debug
# build too; every change still drives one 4096-rank world (release
# only: ~5 s here, most of a minute in debug).
echo "== 4096-rank scale smoke (tests/scale_smoke.rs) =="
cargo test -q --release --offline --test scale_smoke -- --ignored --exact scale_smoke_4096_ranks

# The scheduler's proof obligation (under 1 s): the messages, fiber
# switches and heap pushes, and the summed pairs, of a 256-, a 512- and a
# 1024-rank flexible world and a 512-rank ROMIO world, exactly.
echo "== bench host --check =="
cargo run -q --release --offline -p flexio-bench -- host --check

# Every other leg is a release build, where no `debug_assert!` executes.
# One debug-profile leg (seconds) over exactly the crates that hold one —
# the data path's segment-list shape (`check_segs`: sorted, disjoint, no
# empty segment; `check_shape`: "segment outside span"; the run list's
# *length* is an `assert!` in every profile), "partial write to uncached
# page", "invalidating dirty page"; the rank runtime's ("wake entry for a
# parked rank", "a rank may only take from its own mailbox", a park
# entry set twice, "collective step … overflows the tag layout"); the
# flattener's and the engines' own — plus the differential property
# that drives the data path hardest and the fixture that drives late
# entrants, crash-stops and two communicators through the collectives.
# (`flexio-hpio`, `flexio-workload` and `flexio-bench` hold none; the
# release leg above runs their tests.)
echo "== cargo test (debug profile): types, sim, pfs, io, core + data_path_differential, sim_collective_charges =="
cargo test -q --offline -p flexio-types -p flexio-sim -p flexio-pfs -p flexio-io -p flexio-core
cargo test -q --offline --test data_path_differential --test sim_collective_charges

# The two charge-and-order fixtures again on 64 KiB fiber stacks (the
# default is 1 MiB). Everything a rank runs is on its fiber — its body,
# the engine above it, the collectives' loops — and the two pass at
# 12 KiB and overflow at 10. The stack canary turns a frame that
# balloons into a failure here.
echo "== FLEXIO_SIM_STACK_KB=64 cargo test --test sim_collective_charges --test shared_derivation =="
FLEXIO_SIM_STACK_KB=64 cargo test -q --release --offline \
  --test sim_collective_charges --test shared_derivation

# The OST service log (`flexio_pfs::log`, `bench <exp> --ost-log`) only
# records: with every file system logging, the two fixtures that drive
# file systems replay every charge line and `bench host --check`'s
# constants hold (`sim_collective_charges` builds no file system).
echo "== FLEXIO_OST_LOG=1: data_path_charges, shared_derivation, bench host --check =="
FLEXIO_OST_LOG=1 cargo test -q --release --offline --test data_path_charges --test shared_derivation
FLEXIO_OST_LOG=1 cargo run -q --release --offline -p flexio-bench -- host --check

# The benchmark is a package of its own (benchmark/, outside the
# workspace) that imports engine internals — ClientStream, merge_pieces,
# group_by_window, write_gathered_nb, resolve, LockTable, AssignCtx, ... —
# so a signature change there must fail here, not at the benchmark gate.
# Its tests check the metric registry against BENCHMARK.json and run every
# workload once (--smoke, ~13 s). `--locked`: a crate-manifest change that
# would rewrite benchmark/Cargo.lock fails here ("cannot update the lock
# file") instead of leaving a modified file under benchmark/.
echo "== cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml =="
cargo test -q --release --offline --locked --manifest-path benchmark/Cargo.toml

# Golden rows: virtual results are bit-reproducible, so every virtual-time
# experiment `bench --list` names must print its results/<exp>_default.txt
# exactly (everything below the file's `#@` provenance lines; ~20 s for all
# 12, and A4, A6-A8 assert their byte-identity and shape claims while their
# rows are being diffed), and no results/ file may outlive its experiment.
# --thorough diffs the 12 `--paper` files as well
# (~8 min). A change that moves a row regenerates the files —
# `sh scripts/regen_results.sh [--paper]` — and pastes the moved-row
# report it prints into CHANGES;
# crates/bench/tests/claims.rs then checks the paper's claims on the new
# rows.
if [ "$THOROUGH" = 1 ]; then
  echo "== golden rows: bench <exp> and bench <exp> --paper vs results/ =="
  sh scripts/regen_results.sh --check --paper
else
  echo "== golden rows: bench <exp> vs results/<exp>_default.txt =="
  sh scripts/regen_results.sh --check
fi

if [ "$THOROUGH" = 1 ]; then
  # The property sweep: the whole suite at 512 cases a property under one
  # pinned base seed. A case's seed is a function of the base seed, the
  # property's name and the case index alone, so this one run is every
  # seeded suite's sweep (fault injection, the data-path differential,
  # engine parity, the layer and engine-equivalence properties, the
  # workload and crash-point fuzzers, crash recovery) case for case. A red
  # case prints a `cc <seed>` line (plus its shrunk `s<level>` form) to
  # pin in the suite's .proptest-regressions; override FLEXIO_PROP_SEED /
  # PROPTEST_CASES in the environment to explore another slice.
  echo "== property sweep: the suite at 512 cases, pinned seed =="
  FLEXIO_PROP_SEED="${FLEXIO_PROP_SEED:-0xf1e810}" \
    PROPTEST_CASES="${PROPTEST_CASES:-512}" \
    cargo test -q --release --offline

  # Scale leg: the 16384-rank collective write/read smoke (byte-identity
  # + phase-sum invariants; minutes).
  echo "== 16384-rank scale smoke (tests/scale_smoke.rs) =="
  cargo test -q --release --offline --test scale_smoke -- --ignored --exact scale_smoke_16384_ranks
fi

echo "== tier-1 verification passed =="
