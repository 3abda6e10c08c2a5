#!/usr/bin/env bash
# Alternating parent/change pairs of one workload of the repo benchmark —
# the protocol of benchmark/README.md "Protocol for a PR that claims a
# gain", in one command.
#
#   scripts/bench-pairs.sh <workload> [--pairs 10] [--seconds 24] [--seed N] [--parent REV]
#
# Checks the parent revision out beside the working tree, builds both with
# the frozen benchmark/run.sh into target directories of their own, runs
# the pairs alternately (parent first in odd pairs, change first in even
# ones), prints each side's median and quartiles per end-to-end metric,
# the paired ratio and in how many pairs the change was ahead, hands the
# runs to `benchmark compare`, and appends one entry to
# BENCH_trajectory.json: {rev, parent_rev, parent_workloads, workloads},
# `rev` being the commit measured, or "worktree of <sha>" for uncommitted
# changes on top of it.
#
# The parent defaults to HEAD when the tree has uncommitted changes (they
# are the change) and to HEAD~1 when it is clean. The parent's files come
# from `git archive`, which leaves nothing behind in .git; the harness
# needs the files only. Everything is built and written under
# $BENCH_PAIRS_DIR (default .bench_build/pairs); benchmark/ and
# BENCHMARK.json are read, never written.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="${BENCH_PAIRS_DIR:-$root/.bench_build/pairs}"

usage() {
    sed -n '2,8p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
    exit 1
}

workload="" pairs=10 seconds=24 seed=1 parent=""
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="${2:?--pairs needs a count}"; shift 2 ;;
        --seconds) seconds="${2:?--seconds needs a number}"; shift 2 ;;
        --seed) seed="${2:?--seed needs a number}"; shift 2 ;;
        --parent) parent="${2:?--parent needs a revision}"; shift 2 ;;
        -h | --help) usage ;;
        -*) echo "bench-pairs: unknown option $1" >&2; usage ;;
        *) [ -z "$workload" ] || usage; workload="$1"; shift ;;
    esac
done
[ -n "$workload" ] || usage
case "$pairs" in '' | *[!0-9]* | 0) echo "bench-pairs: --pairs must be a positive count" >&2; exit 1 ;; esac

head="$(git -C "$root" rev-parse --short HEAD)"
if [ -n "$(git -C "$root" status --porcelain -- . ':!BENCH_trajectory.json')" ]; then
    rev="worktree of $head"
    parent="${parent:-HEAD}"
else
    rev="$head"
    parent="${parent:-HEAD~1}"
fi
parent_rev="$(git -C "$root" rev-parse --short "$parent^{commit}")"

mkdir -p "$work"
rm -rf "$work/parent-src" "$work/runs"
mkdir -p "$work/parent-src" "$work/runs"
git -C "$root" archive "$parent_rev" | tar -x -C "$work/parent-src"

# Build each side (and see its checks pass at 1/50 size) before timing any.
echo "bench-pairs: $workload, $rev against $parent_rev: building" >&2
CARGO_TARGET_DIR="$work/parent-target" "$work/parent-src/benchmark/run.sh" \
    --smoke --workload "$workload" >/dev/null
CARGO_TARGET_DIR="$work/change-target" "$root/benchmark/run.sh" \
    --smoke --workload "$workload" >/dev/null

# One harness run of one side; its result, wrapped the way `compare` reads it.
run_side() { # side pair src
    local out="$work/runs/$1-$2"
    (cd "$3" && "$work/$1-target/release/benchmark" run \
        --worker-exe "$work/$1-target/release/propdiff-run" --out-dir "$out" \
        --workload "$workload" --seconds "$seconds" --seed "$seed" >/dev/null)
    printf '{"meta":{"seed":%s},"workloads":{"%s":%s}}\n' \
        "$seed" "$workload" "$(cat "$out/result-$workload.json")" >"$out.json"
}
for i in $(seq "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run_side parent "$i" "$work/parent-src"
        run_side change "$i" "$root"
    else
        run_side change "$i" "$root"
        run_side parent "$i" "$work/parent-src"
    fi
    echo "bench-pairs: pair $i of $pairs done" >&2
done

python3 - "$work/runs" "$workload" "$pairs" "$seed" "$seconds" "$rev" "$parent_rev" \
    "$root/BENCH_trajectory.json" "$(date -u +%F)" "$(nproc)" <<'PY'
import json, statistics, sys

runs, workload, pairs, seed, seconds, rev, parent_rev, trajectory, today, nproc = sys.argv[1:11]
pairs = int(pairs)
# Metric -> whether lower is better.
METRICS = {"setup_s": True, "pass_s": True, "units_per_s": False, "peak_rss_mb": True}

def side(name):
    docs = [json.load(open(f"{runs}/{name}-{i}.json")) for i in range(1, pairs + 1)]
    return [d["workloads"][workload] for d in docs]

def spread(xs):
    if len(xs) == 1:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}

parent, change = side("parent"), side("change")
summary = {"parent": {}, "change": {}}
print(f"{workload}: {rev} against {parent_rev}, {pairs} alternating pairs, "
      f"seed {seed}, {seconds} s a run")
print(f"  {'metric':<12} {'parent median [q1, q3]':<36} {'change median [q1, q3]':<36} "
      f"parent÷change (gain > 1), paired")
for metric, lower in METRICS.items():
    p = [r["metrics"][metric]["value"] for r in parent]
    c = [r["metrics"][metric]["value"] for r in change]
    summary["parent"][metric], summary["change"][metric] = spread(p), spread(c)
    gain = spread([(a / b if lower else b / a) for a, b in zip(p, c)])
    ahead = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    cell = lambda s: f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
    print(f"  {metric:<12} {cell(summary['parent'][metric]):<36} "
          f"{cell(summary['change'][metric]):<36} "
          f"{gain['median']:.3f} [{gain['q1']:.3f}, {gain['q3']:.3f}], ahead {ahead} of {pairs}")
for name, results in (("parent", parent), ("change", change)):
    failed = sum(r["failed"] for r in results)
    digests = sorted({r["digest"] for r in results})
    print(f"  {name}: {failed} of {sum(r['attempted'] for r in results)} operations failed, "
          f"digest {', '.join(digests)}")

book = json.load(open(trajectory))
book["entries"].append({
    "rev": rev, "parent_rev": parent_rev, "date": today, "nproc": int(nproc),
    "seed": int(seed), "runs": pairs,
    "source": f"scripts/bench-pairs.sh {workload}: {pairs} alternating pairs at "
              f"--seconds {seconds}; medians [q1, q3] of the run medians",
    "parent_workloads": {workload: summary["parent"]},
    "workloads": {workload: summary["change"]},
})
with open(trajectory, "w") as out:
    json.dump(book, out, indent=1)
    out.write("\n")
print(f"bench-pairs: entry for {rev} appended to {trajectory}")
PY

list() { # side
    local files=()
    for i in $(seq "$pairs"); do files+=("$work/runs/$1-$i.json"); done
    (IFS=,; echo "${files[*]}")
}
"$work/change-target/release/benchmark" compare "$(list parent)" "$(list change)"
