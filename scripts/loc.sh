#!/bin/sh
# Non-test lines of the library sources: every `.rs` file under
# `crates/*/src` that git tracks, counted up to its first `#[cfg(test)]`
# line (the whole file when it has none). Prints one line per
# `crates/<name>/src` and the total.
#
#   sh scripts/loc.sh
#
# A measure for change records, not a gate.
set -eu
cd "$(git rev-parse --show-toplevel)"
git ls-files -- 'crates/*/src/*.rs' | awk '
{
    file = $0
    split(file, part, "/")
    dir = "crates/" part[2] "/src"
    if (!(dir in lines)) lines[dir] = 0
    while ((getline line < file) > 0) {
        if (line ~ /^[ \t]*#\[cfg\(test\)\]/) break
        lines[dir]++
        total++
    }
    close(file)
}
END {
    for (dir in lines) printf "%7d  %s\n", lines[dir], dir | "sort -k2"
    close("sort -k2")
    printf "%7d  total\n", total
}'
