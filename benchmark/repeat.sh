#!/usr/bin/env bash
# repeat.sh N [SECONDS] -- run every workload of ../BENCHMARK.json N times,
# each time with another seed, and print for every end-to-end metric its
# min / median / max and its spread (interquartile range over median, as
# Python's statistics.quantiles(values, n=4) gives the quartiles) beside
# the host's steal share. Exits non-zero when a run is incorrect or a
# spread other than setup_s's leaves the metric's bound: the same test the
# driver applies before it accepts the benchmark. Use N >= 5; the bounds
# in BENCHMARK.json were set from N = 10.
set -euo pipefail
runs=${1:?usage: benchmark/repeat.sh N [SECONDS]}
seconds=${2:-}
cd "$(dirname "$0")/.."
exec python3 - "$runs" "$seconds" <<'PY'
import json, statistics, subprocess, sys

runs = int(sys.argv[1])
spec = json.load(open("BENCHMARK.json"))
seconds = sys.argv[2] or str(spec["run_seconds"])
failed = False
print(f"host parallelism: {__import__('os').cpu_count()} hardware thread(s); "
      f"{runs} runs x {seconds} s per workload")
for workload in (w["name"] for w in spec["workloads"]):
    values, steal = {}, []
    for seed in range(1, runs + 1):
        cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", seconds, "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
            failed = True
            continue
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"{workload} seed {seed}: incorrect: {lines[-1]}")
            failed = True
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        steal += [float(l.split()[1]) for l in lines if l.startswith("host.steal_share")]
    print(f"\n{workload}  (host.steal_share median "
          f"{statistics.median(steal) if steal else float('nan'):.4f})")
    print(f"  {'metric':<16}{'min':>14}{'median':>14}{'max':>14}{'spread':>9}{'bound':>7}")
    for metric in spec["end_to_end"]:
        v = values.get(metric["name"], [])
        if len(v) < 2:
            continue
        q1, _, q3 = statistics.quantiles(v, n=4)
        mid = statistics.median(v)
        spread = (q3 - q1) / mid
        over = spread > metric["bound"] and metric["name"] != "setup_s"
        failed |= over
        print(f"  {metric['name']:<16}{min(v):>14.4f}{mid:>14.4f}{max(v):>14.4f}"
              f"{spread:>9.3f}{metric['bound']:>7.2f}{'  OUT OF BOUND' if over else ''}")
sys.exit(1 if failed else 0)
PY
