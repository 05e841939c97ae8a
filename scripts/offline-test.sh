#!/usr/bin/env bash
# Runs the tests of crates/{net,core,metrics,sim,telemetry,wire} where
# there is no crate registry. Those six crates reach crates.io only for
# `rand`, `parking_lot` and (as a dev-dependency) `proptest`; the first two
# have API-subset shims under benchmark/shims, the third has none, so the
# property tests are left out and everything else runs — among it
# pls-wire's shard tests (`shard::tests`: replay is apply per strategy on
# a temp-dir WAL, the donor-merge table, the repair verdicts, the rebuild
# guard, the spec/engine races), the only tests of the server's
# durability and repair logic that run without tokio.
#
#   scripts/offline-test.sh [CARGO ARGS...]   default: test --offline
#   scripts/offline-test.sh test --offline -p pls-core node::
#   scripts/offline-test.sh test --offline -p pls-wire
#   scripts/offline-test.sh test --offline --release -p pls-core --test alloc_gate
#   scripts/offline-test.sh clippy --offline --all-targets
#
# It copies the six crates and the shims to target/offline-ws (inside the
# gitignored /target), writes a workspace manifest with path-only
# dependencies, removes what needs proptest — the `proptest` dev-dependency
# lines, crates/core/tests/{properties,directory_properties}.rs and their
# [[test]] entries, and in crates/{core,wire}/src every `proptest! { }`
# block and every function that names a proptest item — and runs cargo
# there. The shim `rand` draws a different stream from the real `SmallRng`;
# no test pins exact draws. `pls-cluster`, `pls-bench` and the root package
# need tokio and are not covered. Needs cargo and python3.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
ws="$root/target/offline-ws"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/offline}"

rm -rf "$ws"
mkdir -p "$ws/crates"
for crate in net core metrics sim telemetry wire; do
    cp -R "$root/crates/$crate" "$ws/crates/$crate"
done
cp -R "$root/benchmark/shims" "$ws/shims"
cp "$root/rustfmt.toml" "$ws/"

# The root manifest's [workspace.package], with the members that resolve.
{
    printf '[workspace]\nmembers = ["crates/*"]\nresolver = "2"\n\n'
    sed -n '/^\[workspace\.package\]/,/^$/p' "$root/Cargo.toml"
    cat <<'TOML'
[workspace.dependencies]
pls-net = { path = "crates/net" }
pls-core = { path = "crates/core" }
pls-metrics = { path = "crates/metrics" }
pls-telemetry = { path = "crates/telemetry" }
pls-sim = { path = "crates/sim" }
pls-wire = { path = "crates/wire" }
rand = { path = "shims/rand" }
parking_lot = { path = "shims/parking_lot" }
TOML
} > "$ws/Cargo.toml"

rm -f "$ws/crates/core/tests/properties.rs" "$ws/crates/core/tests/directory_properties.rs"

python3 - "$ws" <<'PY'
import pathlib, re, sys

ws = pathlib.Path(sys.argv[1])

# Manifests: no proptest, no [[test]] entry for a deleted file.
for manifest in ws.glob("crates/*/Cargo.toml"):
    text = re.sub(r"(?m)^proptest\b.*\n", "", manifest.read_text())
    text = re.sub(r'\[\[test\]\]\nname = "(?:properties|directory_properties)"\n(?:[a-z_]+ = .*\n)*\n?', "", text)
    manifest.write_text(text)

PROPTEST = re.compile(r"proptest!|\bprop_[a-z_]+!|\bTestCaseError\b|\bStrategy<")
ITEM = re.compile(r"\s*(?:pub(?:\([a-z]+\))? )?fn \w|\s*proptest! \{")

def strip(source):
    """Drops `use proptest…` lines, and each fn or proptest! block (with the
    doc comments and attributes above it) whose text names a proptest item."""
    lines = source.split("\n")
    out, i = [], 0
    while i < len(lines):
        if re.match(r"\s*use proptest::", lines[i]):
            i += 1
            continue
        if not ITEM.match(lines[i]):
            out.append(lines[i])
            i += 1
            continue
        depth, opened, end = 0, False, i
        while True:
            depth += lines[end].count("{") - lines[end].count("}")
            opened = opened or "{" in lines[end]
            if opened and depth == 0:
                break
            end += 1
        if PROPTEST.search("\n".join(lines[i:end + 1])):
            while out and re.match(r"\s*(?:///|#\[)", out[-1]):
                out.pop()
        else:
            out.extend(lines[i:end + 1])
        i = end + 1
    return "\n".join(out)

for path in [*ws.glob("crates/core/src/**/*.rs"), *ws.glob("crates/wire/src/**/*.rs")]:
    source = path.read_text()
    if "proptest" in source:
        path.write_text(strip(source))
PY

cd "$ws"
if [ "$#" -eq 0 ]; then
    set -- test --offline
fi
exec cargo "$@"
