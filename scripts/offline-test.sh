#!/usr/bin/env bash
# Runs cargo on crates/{net,core,metrics,sim,telemetry,wire} — the six
# crates that depend on nothing outside this repository — where there is no
# crate registry. Plain `cargo test -p pls-core` at the root cannot do it:
# cargo resolves the whole workspace before `-p` filters, and pls-cluster,
# pls-bench and the root package need tokio. So this copies the six crates
# to target/offline-ws (inside the gitignored /target), writes a workspace
# manifest naming only them, and runs cargo there.
#
#   scripts/offline-test.sh [CARGO ARGS...]   default: test --offline
#   scripts/offline-test.sh test --offline -p pls-wire --lib shard
#   scripts/offline-test.sh test --offline --release -p pls-core --test alloc_gate
#   scripts/offline-test.sh clippy --offline --all-targets -- -D warnings
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
ws="$root/target/offline-ws"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/offline}"

rm -rf "$ws"
mkdir -p "$ws/crates"
cp "$root/rustfmt.toml" "$ws/"
{
    printf '[workspace]\nmembers = ["crates/*"]\nresolver = "2"\n\n'
    sed -n '/^\[workspace\.package\]/,/^$/p' "$root/Cargo.toml"
    printf '[workspace.dependencies]\n'
    for crate in net core metrics sim telemetry wire; do
        cp -R "$root/crates/$crate" "$ws/crates/$crate"
        printf 'pls-%s = { path = "crates/%s" }\n' "$crate" "$crate"
    done
} > "$ws/Cargo.toml"

cd "$ws"
if [ "$#" -eq 0 ]; then
    set -- test --offline
fi
exec cargo "$@"
