#!/usr/bin/env python3
"""Measure the benchmark's own noise, the way the driver does.

Runs the command in BENCHMARK.json `--runs` times on each workload, each
time with another seed, `--sets` times over. For every workload x
end-to-end metric it prints each set's median and quartiles
(`statistics.quantiles(values, n=4)`), the spread (Q3 - Q1) / median as a
share of the metric's bound, and how much worse each later set's median is
than the first's, again as a share of the bound. Exits non-zero if a run
fails, a spread exceeds its bound (setup_s excepted, as in the driver), or
a median worsens by more than its bound.

    python3 benchmark/noise.py [--runs 10] [--sets 2] [--workloads a,b]
                               [--seconds S] [--dump runs.json]

The table is markdown; benchmark/NOISE.md records the one that passed.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(manifest, workload, seed, seconds):
    cmd = manifest["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]  # fmt: skip
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: verification failed: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--dump", default="", help="write every run's metrics here as JSON")
    args = ap.parse_args()

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or manifest["run_seconds"]
    workloads = [w["name"] for w in manifest["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]

    # values[workload][set][metric] = [one value per seed]
    values = {}
    for s in range(args.sets):
        for w in workloads:
            runs = []
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                runs.append(run_once(manifest, w, seed, seconds))
                print(f"set {s + 1} {w} seed {seed}: {runs[-1]}", file=sys.stderr)
            per_metric = {m: [r[m] for r in runs] for m in runs[0]}
            values.setdefault(w, []).append(per_metric)
    if args.dump:
        pathlib.Path(args.dump).write_text(json.dumps(values, indent=1))

    ok = True
    print("| workload | metric | set | median | Q1 | Q3 | spread | spread/bound | worse than set 1 | /bound |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for s, per_metric in enumerate(values[w]):
                vals = per_metric[name]
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                spread = (q3 - q1) / med
                if first is None:
                    first = med
                worse = (med - first) / first
                if metric["better"] == "higher":
                    worse = -worse
                if (spread > bound and name != "setup_s") or worse > bound:
                    ok = False
                print(
                    f"| {w} | {name} | {s + 1} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                    f"| {spread:.4f} | {spread / bound:.2f} | {worse:+.4f} | {worse / bound:+.2f} |"
                )
    if not ok:
        sys.exit("noise exceeds a bound")


if __name__ == "__main__":
    main()
