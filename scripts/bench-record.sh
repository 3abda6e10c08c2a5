#!/usr/bin/env bash
# Appends the repo benchmark's reading of the checked-out revision to the
# committed trajectory, BENCH_trajectory.json.
#
#   benchmark/run.sh [--seed N]        # writes benchmark/out/results.json
#   scripts/bench-record.sh [results.json]
#
# One entry per recording: {rev, date, nproc, seed, runs, workloads}, with
# median and quartiles of setup_s, pass_s, units_per_s and peak_rss_mb for
# every workload in the results. Refuses a dirty tree and results that
# were not measured on a clean checkout of HEAD. (The trajectory file
# itself may be dirty: several results.json files, all measured before the
# first was recorded, can go into one commit.) Reads benchmark/out/;
# touches neither benchmark/ nor BENCHMARK.json.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
results="${1:-$root/benchmark/out/results.json}"
trajectory="$root/BENCH_trajectory.json"

if [ -n "$(git -C "$root" status --porcelain -- . ':!BENCH_trajectory.json')" ]; then
    echo "bench-record: the working tree is dirty; commit or stash first" >&2
    exit 1
fi

python3 - "$results" "$trajectory" "$(git -C "$root" rev-parse --short HEAD)" "$(date -u +%F)" <<'PY'
import json, sys

results, trajectory, head, today = sys.argv[1:5]
doc = json.load(open(results))
meta = doc["meta"]
if meta.get("git_dirty") is not False or meta.get("git_rev") != head:
    sys.exit(f"bench-record: {results} was measured at {meta.get('git_rev')}"
             f"{' (dirty)' if meta.get('git_dirty') else ''}, not at a clean {head}")
metrics = ("setup_s", "pass_s", "units_per_s", "peak_rss_mb")
entry = {
    "rev": head, "date": today, "nproc": meta["nproc"], "seed": meta["seed"],
    # One run of the harness; quartiles are over its passes.
    "runs": 1,
    "workloads": {
        name: {m: {"median": w["metrics"][m]["value"], "q1": w["metrics"][m]["q1"],
                   "q3": w["metrics"][m]["q3"]} for m in metrics}
        for name, w in doc["workloads"].items()
    },
}
book = json.load(open(trajectory))
book["entries"].append(entry)
with open(trajectory, "w") as out:
    json.dump(book, out, indent=1)
    out.write("\n")
print(f"bench-record: {head} seed {meta['seed']}: {len(entry['workloads'])} workloads -> {trajectory}")
PY
