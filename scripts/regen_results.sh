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
#   sh scripts/regen_results.sh --check          write nothing: fail unless every
#   sh scripts/regen_results.sh --check --paper  file is exactly what this tree prints
#                                                (scripts/verify.sh and CI run these)
#
# Only a release build is run, and a file is replaced only by the complete
# output of a run that exited 0. A file whose rows did not move keeps its
# provenance lines: `#@ commit:` names the tree that last changed it.
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

bench() {
  cargo run -q --release --offline -p flexio-bench -- "$@"
}

commit="$(git rev-parse --short HEAD)"
git diff --quiet HEAD -- crates src Cargo.toml || commit="$commit + uncommitted changes"

mkdir -p target
tmp="target/regen_results.$$"
trap 'rm -f "$tmp"' EXIT

cargo build -q --release --offline -p flexio-bench
for exp in $(bench --list | awk -F '\t' '$2 == "virtual" { print $1 }'); do
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
      echo "(if the rows moved on purpose: sh scripts/regen_results.sh${flag:+ $flag}, and say why in EXPERIMENTS)" >&2
      exit 1
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
