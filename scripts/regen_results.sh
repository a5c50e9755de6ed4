#!/usr/bin/env sh
# Regenerate the results files that are gated or quoted as "what this tree
# prints": each is one bench bin's stdout (no cargo lines) under `#@`
# provenance lines naming the commit and the command. Virtual results are
# bit-reproducible, so a regenerated file differs from the checked-in one
# only where a change moved a row — say why in EXPERIMENTS.
#
#   sh scripts/regen_results.sh           default-scale files (~10 s)
#   sh scripts/regen_results.sh --paper   also fig7_paper.txt and
#                                         ablation_schedule_cache_paper.txt (~3 min)
set -eu

cd "$(dirname "$0")/.."

PAPER=0
for arg in "$@"; do
  case "$arg" in
    --paper) PAPER=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cargo build --release --offline -p flexio-bench

commit="$(git rev-parse --short HEAD)"
git diff --quiet HEAD -- crates src Cargo.toml || commit="$commit + uncommitted changes"

# gen FILE BIN [ARGS...]
gen() {
  out="results/$1"
  bin="$2"
  shift 2
  {
    echo "#@ stdout of \`$bin${*:+ $*}\` (flexio-bench, release)"
    echo "#@ commit: $commit"
    "target/release/$bin" "$@"
  } >"$out.tmp"
  mv "$out.tmp" "$out"
  echo "wrote $out"
}

gen fig7_default.txt fig7_pfr_alignment
gen ablation_schedule_cache_default.txt ablation_schedule_cache
if [ "$PAPER" = 1 ]; then
  gen fig7_paper.txt fig7_pfr_alignment --paper
  gen ablation_schedule_cache_paper.txt ablation_schedule_cache --paper
fi
