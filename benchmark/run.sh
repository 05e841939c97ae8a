#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last line of standard output is the JSON result
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--suite-out FILE]
#       all six workloads; standard output ends with the suite summary
#   benchmark/run.sh compare A.json B.json
#       judges suite B against suite A by the bounds in BENCHMARK.json
#
# Run it from the root of the checkout. Everything it writes stays inside
# the checkout: the build in $CARGO_TARGET_DIR (default benchmark/target),
# cargo's own lock and cache files under it, trace.json in benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
export CARGO_HOME="$CARGO_TARGET_DIR/cargo-home"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

bin="$CARGO_TARGET_DIR/release/pls-benchmark"
if [ "${1:-}" = "compare" ]; then
    exec "$bin" "$@"
fi
exec "$bin" \
    --meta "rustc=$(rustc -V 2>/dev/null || echo unknown)" \
    --meta "git_rev=$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)" \
    "$@"
