#!/usr/bin/env bash
# The benchmark's one command: build flexbench offline in release mode and
# run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in one process (the form BENCHMARK.json's command
#       takes); prints every metric by name with its unit, then one JSON
#       line.
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload, each in its own process (so peak RSS is per
#       workload), untraced and traced; the merged JSON goes to
#       benchmark/out/results.json. Exits non-zero if any run failed
#       verification.
#
# Build output goes to $CARGO_TARGET_DIR, or benchmark/target when unset.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/flexbench"

for arg in "$@"; do
    if [[ $arg == --workload ]]; then
        exec "$bin" --out-dir "$here/out" "$@"
    fi
done

mkdir -p "$here/out"
status=0
merged=""
for workload in $("$bin" --list); do
    entry=""
    for trace in 0 1; do
        echo "== $workload (trace $trace)"
        out="$("$bin" --workload "$workload" --trace "$trace" --out-dir "$here/out" "$@")" || status=1
        # Everything but the last line is the name/unit/value table.
        sed '$d' <<<"$out"
        json="$(tail -n 1 <<<"$out")"
        [[ $json == {* ]] || json=null
        entry+="${entry:+,}\"trace$trace\":$json"
    done
    merged+="${merged:+,}\"$workload\":{$entry}"
done
echo "{$merged}" >"$here/out/results.json"
echo "merged results: $here/out/results.json"
exit $status
