#!/usr/bin/env bash
# bench_diff.sh [BENCH_*.json ...]
#
# What the committed perf records add up to. Reads the given records in
# the order given -- by default every BENCH_*.json at the repository
# root, in PR order -- and prints, per workload and end-to-end metric of
# BENCHMARK.json, each record's change/parent ratio of the medians ("-"
# where a record has no pairs of that workload), then the running
# product of those ratios. A product past the metric's BENCHMARK.json
# bound in the wrong direction is marked. Exits non-zero on a record it
# cannot read: no "end_to_end" table, or a ratio that is not a positive
# number.
#
#   scripts/bench_diff.sh                                   # every record
#   scripts/bench_diff.sh BENCH_36.json BENCH_38.json BENCH_40.json
#
# Ratios are the only thing that carries across records: absolute
# medians move with the host from one session to the next.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
exec python3 - "$root" "$@" <<'PY'
import glob, json, math, os, re, sys

root, paths = sys.argv[1], sys.argv[2:]
if not paths:
    number = lambda p: int(re.search(r"(\d+)", os.path.basename(p)).group(1))
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")), key=number)
spec = json.load(open(os.path.join(root, "BENCHMARK.json")))

def ratios(path):
    """{(workload, metric): ratio} of one record."""
    found = {}
    for workload, run in json.load(open(path)).items():
        if "end_to_end" not in run:
            sys.exit(f"{path}: workload {workload} has no end_to_end table")
        for metric, row in run["end_to_end"].items():
            ratio = row.get("ratio")
            if not isinstance(ratio, (int, float)) or not ratio > 0 or math.isinf(ratio):
                sys.exit(f"{path}: {workload} {metric}: ratio {ratio!r} is not a positive number")
            found[(workload, metric)] = ratio
    return found

records = [(os.path.basename(p), ratios(p)) for p in paths]
names = [re.sub(r"^BENCH_|\.json$", "", name) for name, _ in records]
width = max([6] + [len(n) + 1 for n in names])
print(f"{'workload':<15}{'metric':<13}" + "".join(f"{n:>{width}}" for n in names)
      + f"{'product':>9}  verdict")
for workload in (w["name"] for w in spec["workloads"]):
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        cells, product = [], 1.0
        for _, found in records:
            ratio = found.get((workload, name))
            cells.append("-" if ratio is None else f"{ratio:.3f}")
            product *= 1.0 if ratio is None else ratio
        if all(c == "-" for c in cells):
            continue
        worse = product - 1 if lower else 1 - product
        verdict = "WORSE THAN BOUND" if worse > metric["bound"] else "within bound"
        print(f"{workload:<15}{name:<13}" + "".join(f"{c:>{width}}" for c in cells)
              + f"{product:>9.3f}  {verdict}")
PY
