#!/usr/bin/env bash
# bench_pair.sh <parent-checkout> <workload> [pairs=10]
#
# How a perf PR shows its claim (choosing-metrics, "Measuring in a small
# sandbox"): alternate the BENCHMARK.json command between a checkout of
# the parent commit and this tree -- pair k runs both sides with
# `--seed k --trace 0` for BENCHMARK.json's run_seconds, odd pairs parent
# first, even pairs change first -- and print, per end-to-end metric, both
# medians, both quartile pairs, the change/parent ratio of the medians,
# and how many pairs the change won (ties count for neither), after one
# line per pair with every run's value (parent -> change). A gain
# holds when the change wins at least nine tenths of the pairs and the
# medians differ by more than the parent's own interquartile range; the
# last column says which metrics are outside their BENCHMARK.json bound
# in the wrong direction. Exits non-zero if any run failed or was
# incorrect.
#
# Make the parent checkout with
#   git clone /root/repo /root/scratch/parent && git -C /root/scratch/parent checkout <parent>
# Both sides are built before the first timed run.
set -euo pipefail
parent=${1:?usage: scripts/bench_pair.sh <parent-checkout> <workload> [pairs=10]}
workload=${2:?usage: scripts/bench_pair.sh <parent-checkout> <workload> [pairs=10]}
pairs=${3:-10}
change=$(cd "$(dirname "$0")/.." && pwd)
parent=$(cd "$parent" && pwd)
exec python3 - "$parent" "$change" "$workload" "$pairs" <<'PY'
import json, os, statistics, subprocess, sys

parent, change, workload, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
spec = json.load(open(os.path.join(change, "BENCHMARK.json")))
seconds = str(spec["run_seconds"])
sides = {"parent": parent, "change": change}

def run(side, seed, secs):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", secs, "--trace", "0"]
    done = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{side} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{side} seed {seed}: incorrect: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}

for side in sides:  # build (and warm the page cache) outside the timed pairs
    run(side, 1, "1")
print(f"{workload}: {pairs} pairs x {seconds} s, {os.cpu_count()} hardware thread(s)\n"
      f"  parent {parent}\n  change {change}")
values = {side: {} for side in sides}
for k in range(1, pairs + 1):
    for side in (("parent", "change") if k % 2 else ("change", "parent")):
        for name, value in run(side, k, seconds).items():
            values[side].setdefault(name, []).append(value)
    print(f"  pair {k}: " + "; ".join(
        f"{name} {values['parent'][name][-1]:.4f} -> {values['change'][name][-1]:.4f}"
        for name in values["parent"]), flush=True)

def quartiles(v):
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
    return q1, q3

print(f"\n  {'metric':<13}{'parent median [q1, q3]':>42}{'change median [q1, q3]':>42}"
      f"{'ratio':>8}{'wins':>7}  verdict")
for metric in spec["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    p, c = values["parent"].get(name), values["change"].get(name)
    if not p or not c:
        continue
    pm, cm = statistics.median(p), statistics.median(c)
    (pq1, pq3), (cq1, cq3) = quartiles(p), quartiles(c)
    wins = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
    losses = sum((y > x) if lower else (y < x) for x, y in zip(p, c))
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    gain = wins >= 0.9 * len(p) and abs(cm - pm) > (pq3 - pq1)
    verdict = ("WORSE THAN BOUND" if worse > metric["bound"]
               else "gain" if gain else "within bound")
    print(f"  {name:<13}{pm:>16.4f} [{pq1:>11.4f},{pq3:>11.4f}]"
          f"{cm:>16.4f} [{cq1:>11.4f},{cq3:>11.4f}]"
          f"{cm / pm:>8.3f}{wins:>4}/{wins + losses:<2}  {verdict}")
PY
