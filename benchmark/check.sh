#!/usr/bin/env bash
# Checks the benchmark package itself: formatting, unit tests, and a
# small-scale run of every workload, untraced and traced, in which every
# metric BENCHMARK.json declares must be printed with its unit and a
# finite value, and every span in trace.json must lie inside its parent.
#
# Run it from the root of the checkout: benchmark/check.sh
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
export CARGO_HOME="$CARGO_TARGET_DIR/cargo-home"

(cd "$here" && cargo fmt --all --check)
cargo test --offline --quiet --workspace --manifest-path "$here/Cargo.toml"

cd "$root"
mkdir -p "$here/out"
for workload in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    for trace in 0 1; do
        # 0.04 of the default op counts is 0.01 of the issue's.
        bash benchmark/run.sh --workload "$workload" --seed 7 --seconds 1 --scale 0.04 --trace "$trace" \
            | tail -n 1 > "$here/out/check-line.json"
        python3 - "$workload" "$trace" "$here/out" <<'PY'
import json, math, sys
workload, trace, out = sys.argv[1], sys.argv[2], sys.argv[3]
spec = json.load(open("BENCHMARK.json"))
line = json.load(open(f"{out}/check-line.json"))
assert sorted(line) == ["attempted", "correct", "failed", "metrics"], sorted(line)
assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1, line
declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
assert sorted(line["metrics"]) == sorted(m["name"] for m in declared), (
    set(line["metrics"]) ^ {m["name"] for m in declared})
for m in declared:
    got = line["metrics"][m["name"]]
    assert got["unit"] == m["unit"], (m["name"], got)
    assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m["name"], got)
    if trace == "0":
        assert got["value"] > 0, (m["name"], got)
if trace == "1":
    doc = json.load(open(f"{out}/trace.json"))
    assert doc["workload"] == workload, doc["workload"]
    spans = {s["id"]: s for s in doc["spans"]}
    assert len(spans) == len(doc["spans"]), "span ids repeat"
    for s in doc["spans"]:
        assert s["start_ns"] <= s["end_ns"] and s["calls"] >= 1, s
        if s["parent"]:
            p = spans[s["parent"]]
            assert p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"], (s, p)
    names = {s["name"] for s in doc["spans"]}
    assert {"run", "pass", "layers"} <= names, names
print(f"ok: {workload} trace={trace}: {len(declared)} metrics")
PY
    done
done
rm -f "$here/out/check-line.json"
echo "benchmark/check.sh: all checks passed"
