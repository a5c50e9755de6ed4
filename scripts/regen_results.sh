#!/usr/bin/env sh
# results/<exp>_default.txt and results/<exp>_paper.txt are generated: each
# is `bench <exp> [--paper]`'s stdout under `#@` provenance lines, for every
# virtual-time experiment `bench --list` names, and nothing else. Virtual
# results are bit-reproducible, so the files are golden: a regenerated file
# differs from the checked-in one only where a change moved a row — say why
# in EXPERIMENTS.
#
#   sh scripts/regen_results.sh                  write the default-scale files (~20 s)
#   sh scripts/regen_results.sh --paper          and the --paper files (~8 min)
#   sh scripts/regen_results.sh --check          write nothing: diff every file, then
#   sh scripts/regen_results.sh --check --paper  fail listing each one that is not
#                                                exactly what this tree prints
#                                                (scripts/verify.sh and CI run these)
#
# Either mode fails on an orphan: a results/<exp>_{default,paper}.txt whose
# <exp> is not in `bench --list` (the flexbench_* records are not golden).
#
# Only a release build is run, and a file is replaced only by the complete
# output of a run that exited 0. A file whose rows did not move keeps its
# provenance lines: `#@ commit:` names the tree that last changed it.
#
# The tree is built once, at the start, and every experiment runs a copy of
# that one binary: a change to the tree (or another build into the same
# target directory) while the script runs cannot put a different build
# behind some of the rows.
set -eu

cd "$(dirname "$0")/.."

CHECK=0
SCALES="default"
for arg in "$@"; do
  case "$arg" in
    --check) CHECK=1 ;;
    --paper) SCALES="default paper" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

commit="$(git rev-parse --short HEAD)"
git diff --quiet HEAD -- crates src Cargo.toml || commit="$commit + uncommitted changes"

mkdir -p target
tmp="target/regen_results.$$"
bin="target/regen_results.$$.bench"
trap 'rm -f "$tmp" "$bin"' EXIT

cargo build -q --release --offline -p flexio-bench
cp "${CARGO_TARGET_DIR:-target}/release/bench" "$bin"

bench() {
  "$bin" "$@"
}

exps="$(bench --list | awk -F '\t' '$2 == "virtual" { print $1 }')"

# A golden file of an experiment `bench --list` no longer names is an
# orphan: nothing regenerates or checks it, so it fails either mode.
orphans=""
for out in results/*_default.txt results/*_paper.txt; do
  [ -f "$out" ] || continue
  case "$out" in results/flexbench_*) continue ;; esac
  exp="$(basename "$out" .txt)"
  exp="${exp%_default}"
  exp="${exp%_paper}"
  echo "$exps" | grep -qx -- "$exp" || orphans="$orphans $out"
done

mismatched=""
for exp in $exps; do
  for scale in $SCALES; do
    out="results/${exp}_$scale.txt"
    flag=""
    [ "$scale" = paper ] && flag="--paper"
    # `bench` is not the last command of a pipeline here, so a run that
    # dies half-way fails the script (set -e) before anything is compared
    # or replaced.
    bench "$exp" $flag >"$tmp"
    if [ -f "$out" ] && diff -I '^#@' "$out" "$tmp" >/dev/null; then
      echo "ok        $out"
    elif [ "$CHECK" = 1 ]; then
      echo "MISMATCH  $out is not what \`bench $exp${flag:+ $flag}\` prints:" >&2
      diff -I '^#@' "$out" "$tmp" >&2 || true
      mismatched="$mismatched $out"
    else
      {
        echo "#@ stdout of \`bench $exp${flag:+ $flag}\` (flexio-bench, release)"
        echo "#@ commit: $commit"
        cat "$tmp"
      } >"$out"
      echo "wrote     $out"
    fi
  done
done

if [ -n "$orphans" ]; then
  echo "$(echo $orphans | wc -w) golden file(s) of no experiment \`bench --list\` names:" >&2
  for out in $orphans; do
    echo "  $out" >&2
  done
  echo "(delete them with the experiment, and say so in EXPERIMENTS)" >&2
fi
if [ -n "$mismatched" ]; then
  echo "$(echo $mismatched | wc -w) file(s) do not match what this tree prints:" >&2
  for out in $mismatched; do
    echo "  $out" >&2
  done
  echo "(if the rows moved on purpose: sh scripts/regen_results.sh [--paper], and say why in EXPERIMENTS)" >&2
fi
[ -z "$orphans$mismatched" ] || exit 1
