#!/usr/bin/env sh
# Tier-1 verification: build + test the workspace and the benchmark
# package, fully offline (no external crates).
# Run from the repository root: sh scripts/verify.sh
#
# --thorough additionally re-runs the test suite with 512 property-test
# cases per property (the in-repo harness in flexio_sim::prop honours
# PROPTEST_CASES) and diffs the `--paper` results files, for a nightly-ish
# deeper sweep.
set -eu

cd "$(dirname "$0")/.."

THOROUGH=0
for arg in "$@"; do
  case "$arg" in
    --thorough) THOROUGH=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo clippy --workspace --all-targets --offline -- -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

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

# Every other leg is a release build, where no `debug_assert!` executes.
# One debug-profile leg (seconds) over exactly the crates that hold one —
# the data path's segment-list shape (`check_segs`: sorted, disjoint, no
# empty segment; `check_shape`: "segment outside span"; the run list's
# *length* is an `assert!` in every profile), "partial write to uncached
# page", "invalidating dirty page"; the rank runtime's dense-round step
# loop ("delivered twice", "two messages for step", "left round … with an
# untaken message", "resumed with a half-stepped round", "wake entry for a
# parked rank"); the flattener's and the engines' own — plus the
# differential property that drives the data path hardest and the fixture
# that drives late entrants, crash-stops and two communicators' boards
# through the step loop. (`flexio-hpio`, `flexio-workload` and
# `flexio-bench` hold none; the release leg above runs their tests.)
echo "== cargo test (debug profile): types, sim, pfs, io, core + data_path_differential, sim_collective_charges =="
cargo test -q --offline -p flexio-types -p flexio-sim -p flexio-pfs -p flexio-io -p flexio-core
cargo test -q --offline --test data_path_differential --test sim_collective_charges

# The two charge-and-order fixtures again on 64 KiB fiber stacks (the
# default is 1 MiB): a dense round's step loop runs on the scheduler's
# stack, not on its rank's fiber, and what is left on the fibers — rank
# bodies, the engine above them — passes at 32 KiB and overflows at 16.
# The stack canary turns a step loop that creeps back onto the fibers,
# or a frame that balloons, into a failure here.
echo "== FLEXIO_SIM_STACK_KB=64 cargo test --test sim_collective_charges --test shared_derivation =="
FLEXIO_SIM_STACK_KB=64 cargo test -q --release --offline \
  --test sim_collective_charges --test shared_derivation

# The benchmark is a package of its own (benchmark/, outside the
# workspace) that imports engine internals — ClientStream, merge_pieces,
# group_by_window, write_gathered_nb, resolve, LockTable, AssignCtx, ... —
# so a signature change there must fail here, not at the benchmark gate.
# Its tests check the metric registry against BENCHMARK.json and run every
# workload once (--smoke, ~13 s).
echo "== cargo test --release --offline --manifest-path benchmark/Cargo.toml =="
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

# Golden rows: virtual results are bit-reproducible, so every virtual-time
# experiment `bench --list` names must print its results/<exp>_default.txt
# exactly (everything below the file's `#@` provenance lines; ~20 s for all
# 14, and A4-A8 assert their byte-identity and shape claims while their
# rows are being diffed). --thorough diffs the 14 `--paper` files as well
# (~8 min). A change that moves a row regenerates the files —
# `sh scripts/regen_results.sh [--paper]` — and says why in EXPERIMENTS;
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
  echo "== PROPTEST_CASES=512 cargo test -q --release --offline (property sweep) =="
  PROPTEST_CASES=512 cargo test -q --release --offline

  # Chaos sweep: the fault-injection suite with an explicitly pinned
  # base seed, so a failure here reproduces verbatim from the log.
  # Override FLEXIO_PROP_SEED / PROPTEST_CASES in the environment to
  # explore a different slice of the fault space.
  echo "== chaos sweep (tests/fault_injection.rs) =="
  FLEXIO_PROP_SEED="${FLEXIO_PROP_SEED:-0xf1e810}" \
    PROPTEST_CASES="${PROPTEST_CASES:-512}" \
    cargo test -q --release --offline --test fault_injection

  # Data-path differential sweep: run-wise pfs/io against the
  # one-buffer-per-request reference, same pinned seed discipline.
  echo "== data-path differential sweep (tests/data_path_differential.rs) =="
  FLEXIO_PROP_SEED="${FLEXIO_PROP_SEED:-0xf1e810}" \
    PROPTEST_CASES="${PROPTEST_CASES:-512}" \
    cargo test -q --release --offline --test data_path_differential

  # Differential engine-parity sweep: pipelined flexible AND ROMIO runs
  # against their depth-1 serial oracles on the shared pipeline core,
  # same pinned seed discipline as the chaos sweep.
  echo "== engine parity sweep (tests/engine_pipeline_parity.rs) =="
  FLEXIO_PROP_SEED="${FLEXIO_PROP_SEED:-0xf1e810}" \
    PROPTEST_CASES="${PROPTEST_CASES:-512}" \
    cargo test -q --release --offline --test engine_pipeline_parity

  # Layer and engine-equivalence properties: datatypes and views, the
  # file system against a flat reference, the realm assigners, engine vs
  # engine and hint vs hint bytes, same pinned seed discipline.
  echo "== property sweep (tests/properties.rs, tests/engine_equivalence.rs) =="
  FLEXIO_PROP_SEED="${FLEXIO_PROP_SEED:-0xf1e810}" \
    PROPTEST_CASES="${PROPTEST_CASES:-512}" \
    cargo test -q --release --offline --test properties --test engine_equivalence

  # Workload-fuzz leg: the seeded scenario fuzzer (five workload
  # families x oracle/engine/fault/determinism axes) and the crash-point
  # fuzz axis, which verifies every drawn crash-point / victim /
  # torn-rate case with `flexio_crash_recovery` on and off; same pinned
  # seed discipline; a red case prints a `cc <seed>` line (plus its
  # shrunk `s<level>` form) to pin in the suite's .proptest-regressions.
  echo "== workload and crash-point fuzz sweep (tests/workload_fuzz.rs) =="
  FLEXIO_PROP_SEED="${FLEXIO_PROP_SEED:-0xf1e810}" \
    PROPTEST_CASES="${PROPTEST_CASES:-512}" \
    cargo test -q --release --offline --test workload_fuzz

  echo "== crash-recovery directed suite (tests/crash_recovery.rs) =="
  FLEXIO_PROP_SEED="${FLEXIO_PROP_SEED:-0xf1e810}" \
    cargo test -q --release --offline --test crash_recovery

  # Scale leg: the 16384-rank collective write/read smoke (byte-identity
  # + phase-sum invariants; minutes) and `bench host --check` (the
  # scheduler's messages, fiber switches and heap pushes for a 256- and a
  # 512-rank world, exactly).
  echo "== 16384-rank scale smoke (tests/scale_smoke.rs) =="
  cargo test -q --release --offline --test scale_smoke -- --ignored --exact scale_smoke_16384_ranks

  echo "== bench host --check =="
  cargo run -q --release --offline -p flexio-bench -- host --check
fi

echo "== tier-1 verification passed =="
