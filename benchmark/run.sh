#!/usr/bin/env bash
# The repository's benchmark in one command.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
#   benchmark/run.sh compare A.json B.json
#
# Builds `propdiff-run` (the farm workloads spawn it as their worker) and
# the harness, offline, then hands over to the harness. Everything is
# read and written inside the checkout: build products under
# $CARGO_TARGET_DIR (default: target/), results under benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds, so the libraries are compiled
# once. A relative $CARGO_TARGET_DIR means relative to the checkout.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build chatter goes to standard error; standard output is the harness's.
cargo build --release --offline --quiet \
    --manifest-path "$root/Cargo.toml" -p orchestrator --bin propdiff-run >&2
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

if [ "${1:-}" = compare ]; then
    exec "$target/release/benchmark" "$@"
fi
exec "$target/release/benchmark" run \
    --worker-exe "$target/release/propdiff-run" --out-dir "$here/out" "$@"
