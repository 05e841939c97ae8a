#!/usr/bin/env bash
# Counts the Rust lines a deletion PR is judged by: every line of
# crates/*/src/**/*.rs that is not inside a `#[cfg(test)] mod … { }`.
# Integration tests (crates/*/tests), benches (crates/*/benches) and the
# benchmark package (benchmark/) are not product code and are not counted,
# so moving code into them does not count as removing it.
#
#   scripts/loc.sh [CHECKOUT]     per-file table, per-crate table, total
#
# CHECKOUT defaults to the repository this script lives in; pass another
# checkout (e.g. a clone of the parent commit) to get the "before" side.
# Needs only find, sort and a POSIX awk.
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"

find crates -path 'crates/*/src/*' -name '*.rs' | sort | xargs awk '
    function braces(line,    opens, closes) {
        opens = gsub(/\{/, "{", line); closes = gsub(/\}/, "}", line)
        return opens - closes
    }
    FNR == 1 { depth = 0; pending = 0 }
    depth > 0 { depth += braces($0); next }              # inside a test module
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; held = 1; next }
    pending && /^[[:space:]]*#\[/ { held++; next }       # further attributes on the same item
    pending && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{/ {
        pending = 0; depth = braces($0); next
    }
    pending { pending = 0; lines[FILENAME] += held }     # cfg(test) on something else: code
    { lines[FILENAME]++ }
    FNR == 1 { files[++nfiles] = FILENAME }              # (input is sorted: so is the output)
    END {
        printf "%-52s %7s\n", "file", "lines"
        for (i = 1; i <= nfiles; i++) {
            f = files[i]; split(f, part, "/"); c = part[2]
            if (!(c in crate)) crates[++ncrates] = c
            crate[c] += lines[f]; total += lines[f]
            printf "%-52s %7d\n", f, lines[f]
        }
        printf "\n%-52s %7s\n", "crate", "lines"
        for (i = 1; i <= ncrates; i++) printf "%-52s %7d\n", "crates/" crates[i], crate[crates[i]]
        printf "%-52s %7d\n", "total (non-test lines under crates/*/src)", total
    }'
