#!/usr/bin/env sh
# results/<exp>_default.txt and results/<exp>_paper.txt are generated: each
# is `bench <exp> [--paper]`'s stdout under `#@` provenance lines, for every
# virtual-time experiment `bench --list` names, and nothing else. Virtual
# results are bit-reproducible, so the files are golden: a regenerated file
# differs from the checked-in one only where a change moved a row.
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
# A file whose rows moved gets a moved-row report, after its diff under
# --check and as it is rewritten otherwise: per `# columns:` family, how
# many rows differ, and per numeric column how many rose and fell by more
# than 1 %, the range of those changes and their geometric mean. A change
# that moves rows on purpose pastes the report into CHANGES.
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

# moved_rows OLD NEW: the moved-row report. Rows pair by position within
# each family. A key column is one that holds a non-numeric value in some
# row (a method, an engine, a mode); a family whose column list or row
# count changed, or whose pair differs in a key column, is "rows
# reshaped" and gets no numbers. For `mbps` higher is faster; for `ns`,
# `gen_ns`, `virtual_ns`, `last_step_ns`, `ms_cache_*` and `slowdown`
# lower is; other columns rise and fall. A pair with a zero or a sign
# change has no ratio, and is counted apart.
moved_rows() {
  awk '
    function isnum(v) { return v ~ /^-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$/ }
    function pct(q) { return sprintf("%+.1f %%", (q - 1) * 100) }
    FNR == 1 { side++; fam = 0; open = 0 }
    /^# columns: / {
      fam++; nfam[side] = fam; cols[side, fam] = substr($0, 12); nrow[side, fam] = 0; open = 1
      next
    }
    /^$/ { open = 0; next }
    /^#/ { next }
    open { nrow[side, fam]++; row[side, fam, nrow[side, fam]] = $0 }
    END {
      for (f = 1; f <= nfam[2]; f++) {
        name = "  family " f " (" cols[2, f] ")"
        if (f > nfam[1] || cols[1, f] != cols[2, f] || nrow[1, f] != nrow[2, f]) {
          print name ": rows reshaped"
          continue
        }
        n = nrow[2, f]
        nc = split(cols[2, f], cn, ",")
        split("", key)
        differ = 0
        for (r = 1; r <= n; r++) {
          split(row[1, f, r], a, ","); split(row[2, f, r], b, ",")
          for (c = 1; c <= nc; c++) if (!isnum(a[c]) || !isnum(b[c])) key[c] = 1
          differ += row[1, f, r] != row[2, f, r]
        }
        if (!differ) continue
        reshaped = 0
        for (r = 1; r <= n; r++) {
          split(row[1, f, r], a, ","); split(row[2, f, r], b, ",")
          for (c in key) if (a[c] != b[c]) reshaped = 1
        }
        if (reshaped) { print name ": rows reshaped"; continue }
        print name ": " differ " of " n " rows differ"
        for (c = 1; c <= nc; c++) {
          if (c in key) continue
          up = 0; down = 0; apart = 0; logsum = 0; lo = 0; hi = 0
          for (r = 1; r <= n; r++) {
            split(row[1, f, r], a, ","); split(row[2, f, r], b, ",")
            x = a[c] + 0; y = b[c] + 0
            if (x == y) continue
            if (x == 0 || y == 0 || (x < 0) != (y < 0)) { apart++; continue }
            q = y / x
            if (q > 1.01) up++
            else if (q < 1 / 1.01) down++
            else continue
            if (up + down == 1 || q < lo) lo = q
            if (up + down == 1 || q > hi) hi = q
            logsum += log(q)
          }
          if (up + down + apart == 0) continue
          rise = "rose"; fall = "fell"
          if (cn[c] ~ /mbps$/) { rise = "faster"; fall = "slower" }
          if (cn[c] ~ /^(ns|gen_ns|virtual_ns|last_step_ns|slowdown)$/ || cn[c] ~ /^ms_/) {
            rise = "slower"; fall = "faster"
          }
          line = "    " cn[c] ": " up " " rise ", " down " " fall " by more than 1 %"
          if (up + down) {
            line = line "; " pct(lo) " to " pct(hi) ", geometric mean " pct(exp(logsum / (up + down)))
          }
          if (apart) line = line "; " apart " to or from zero"
          print line
        }
      }
    }
  ' "$1" "$2"
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
      echo "moved rows of $out:" >&2
      moved_rows "$out" "$tmp" >&2
      mismatched="$mismatched $out"
    else
      if [ -f "$out" ]; then
        echo "moved rows of $out:"
        moved_rows "$out" "$tmp"
      fi
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
  echo "(delete them with the experiment, and say so in CHANGES)" >&2
fi
if [ -n "$mismatched" ]; then
  echo "$(echo $mismatched | wc -w) file(s) do not match what this tree prints:" >&2
  for out in $mismatched; do
    echo "  $out" >&2
  done
  echo "(if the rows moved on purpose: sh scripts/regen_results.sh [--paper], and paste the moved-row reports into CHANGES)" >&2
fi
[ -z "$orphans$mismatched" ] || exit 1
