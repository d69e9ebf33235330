#!/usr/bin/env bash
# bench_pair.sh [--json PATH] <parent-checkout> <workload> [pairs=10]
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
# A pair line ends in `trimmed: <side>` when that side's run shows
# glibc's heap-trim mode: `setup_s` at least 1.3x the median of the
# side's earlier runs next to a `peak_rss_mb` at least 1 MiB below
# theirs (the set-up re-faults what the previous round's drop gave
# back; the verify skill has the mechanism). Each side is held to its
# own runs, so a change that lowers memory is not read as trimming, and
# pair 1 has nothing to be held to. The summary counts marked pairs per
# side. A marked run is a lead, not a verdict.
#
# With --json PATH the same run is also merged into PATH (created if
# needed) under the workload's name: host parallelism, run seconds, both
# checkouts, every pair's values per side in run order, and per
# end-to-end metric what the table prints. Other workloads in PATH stay.
#
# Make the parent checkout with
#   git clone /root/repo /root/scratch/parent && git -C /root/scratch/parent checkout <parent>
# Both sides are built before the first timed run.
set -euo pipefail
usage="usage: scripts/bench_pair.sh [--json PATH] <parent-checkout> <workload> [pairs=10]"
json=
args=()
while (($#)); do
    case $1 in
        --json) json=${2:?$usage}; shift 2 ;;
        *) args+=("$1"); shift ;;
    esac
done
set -- "${args[@]}"
parent=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
change=$(cd "$(dirname "$0")/.." && pwd)
parent=$(cd "$parent" && pwd)
exec python3 - "$parent" "$change" "$workload" "$pairs" "$json" <<'PY'
import json, os, statistics, subprocess, sys

parent, change, workload, pairs, json_path = sys.argv[1:6]
pairs = int(pairs)
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
runs = []
TRIM_SETUP, TRIM_RSS_MIB = 1.3, 1.0
trimmed = {side: 0 for side in sides}

def trimmed_sides():
    """Sides whose latest run reads as heap-trimmed against their earlier runs."""
    marked = []
    for side in sides:
        setup, rss = values[side].get("setup_s", []), values[side].get("peak_rss_mb", [])
        if len(setup) > 1 and len(rss) > 1 \
                and setup[-1] >= TRIM_SETUP * statistics.median(setup[:-1]) \
                and rss[-1] <= statistics.median(rss[:-1]) - TRIM_RSS_MIB:
            marked.append(side)
    return marked

for k in range(1, pairs + 1):
    order = ("parent", "change") if k % 2 else ("change", "parent")
    pair = {"seed": k, "order": list(order)}
    for side in order:
        pair[side] = run(side, k, seconds)
        for name, value in pair[side].items():
            values[side].setdefault(name, []).append(value)
    trim = trimmed_sides()
    for side in trim:
        trimmed[side] += 1
    pair["trimmed"] = trim
    runs.append(pair)
    print(f"  pair {k}: " + "; ".join(
        f"{name} {values['parent'][name][-1]:.4f} -> {values['change'][name][-1]:.4f}"
        for name in values["parent"]) + (f"; trimmed: {', '.join(trim)}" if trim else ""),
        flush=True)

def quartiles(v):
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
    return q1, q3

print(f"\n  {'metric':<13}{'parent median [q1, q3]':>42}{'change median [q1, q3]':>42}"
      f"{'ratio':>8}{'wins':>7}  verdict")
summary = {}
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
    summary[name] = {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": {"median": pm, "q1": pq1, "q3": pq3},
        "change": {"median": cm, "q1": cq1, "q3": cq3},
        "ratio": cm / pm, "wins": wins, "losses": losses, "verdict": verdict,
    }

print(f"\n  heap-trim pairs: parent {trimmed['parent']}, change {trimmed['change']}")

if json_path:
    def checkout(path):
        head = subprocess.run(["git", "-C", path, "rev-parse", "HEAD"],
                              capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", path, "status", "--porcelain"],
                               capture_output=True, text=True).stdout.strip() != ""
        return {"path": path, "head": head, "uncommitted_changes": dirty}
    record = json.load(open(json_path)) if os.path.exists(json_path) else {}
    record[workload] = {
        "host_parallelism": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "checkouts": {side: checkout(path) for side, path in sides.items()},
        "pairs": runs,
        "end_to_end": summary,
        "trimmed_pairs": trimmed,
    }
    with open(json_path, "w") as out:
        json.dump(record, out, indent=2, sort_keys=True)
        out.write("\n")
PY
