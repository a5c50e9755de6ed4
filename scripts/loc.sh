#!/bin/sh
# Library and test lines of the tracked Rust sources. Every `.rs` file
# under `crates/*/src` that git tracks counts as library lines up to its
# first `#[cfg(test)]` line (the whole file when it has none) and as test
# lines from that line on; every `.rs` file under `tests/` and
# `crates/*/tests` counts as test lines. Prints one line per
# `crates/<name>/src` (library, then test lines), one per test directory,
# and the totals. Code moved from a library into a test shows as library
# lines going down and test lines going up by the same amount; code
# deleted shows in one column alone.
#
#   sh scripts/loc.sh
#
# A measure for change records, not a gate.
set -eu
cd "$(git rev-parse --show-toplevel)"
git ls-files -- 'crates/*/src/*.rs' 'crates/*/tests/*.rs' 'tests/*.rs' | awk '
{
    file = $0
    split(file, part, "/")
    if (part[1] == "tests") dir = "tests"
    else dir = "crates/" part[2] "/" part[3]
    if (!(dir in lib)) { lib[dir] = 0; test[dir] = 0 }
    in_test = (part[1] == "tests" || part[3] == "tests")
    while ((getline line < file) > 0) {
        if (line ~ /^[ \t]*#\[cfg\(test\)\]/) in_test = 1
        if (in_test) { test[dir]++; tests++ } else { lib[dir]++; total++ }
    }
    close(file)
}
END {
    printf "%7s  %7s\n", "library", "test"
    for (dir in lib) printf "%7d  %7d  %s\n", lib[dir], test[dir], dir | "sort -k3"
    close("sort -k3")
    printf "%7d  %7d  total\n", total, tests
}'
