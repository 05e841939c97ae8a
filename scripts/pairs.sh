#!/usr/bin/env bash
# Times a change against its parent in alternating pairs of benchmark runs,
# and says whether a gain in ops_per_s may be claimed.
#
#   scripts/pairs.sh PARENT CHANGE WORKLOAD SEED PAIRS [SECONDS] [-- BENCH_ARGS]
#
# PARENT and CHANGE are checkouts (a clone of the parent commit and the
# change; the same one twice times a build against itself). Each side's
# pls-benchmark is built once, `cargo build --release --offline`, into a
# target directory of its own under $PAIRS_TARGET, which defaults to a
# temporary directory removed on exit, so the build writes nothing into
# either checkout; a benchmark/Cargo.lock the build rewrote is put back.
# Pair i runs the parent first when i is odd and the change first when it
# is even, so drift in a shared machine hits both sides. Each run is
#
#   pls-benchmark --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0 BENCH_ARGS
#
# (SECONDS defaults to 12), started in its own checkout; the last line it
# prints is its result. The script prints one row per run: ops_per_s,
# op_p50_ns and the five count metrics. It ends with each side's median
# and quartiles of ops_per_s and op_p50_ns, the pairs the change won on
# each (ties count for neither), and a verdict line: a gain holds when at
# least ten pairs ran, the change won at least nine in ten of them, and the
# medians differ by more than the distance between the parent's quartiles.
# Then, for each count metric, each side's median and min-max range and
# the change in percent, and a `counts:` line naming the counts whose
# medians differ in their first six significant digits. Needs bash, cargo
# and a POSIX awk.
set -euo pipefail

usage() {
    echo "usage: $0 PARENT CHANGE WORKLOAD SEED PAIRS [SECONDS] [-- BENCH_ARGS]" >&2
    exit 2
}
[ $# -ge 5 ] || usage
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd) workload=$3 seed=$4 pairs=$5
shift 5
seconds=12
if [ $# -gt 0 ] && [ "$1" != "--" ]; then
    seconds=$1
    shift
fi
if [ $# -gt 0 ]; then
    [ "$1" = "--" ] || usage
    shift
fi
bench_args=("$@")

if [ -n "${PAIRS_TARGET:-}" ]; then
    work=$PAIRS_TARGET
    mkdir -p "$work"
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi

# build SIDE CHECKOUT: the checkout's pls-benchmark, at $work/SIDE/release.
build() {
    local target=$work/$1 lock=$2/benchmark/Cargo.lock saved=$work/$1.lock
    mkdir -p "$target"
    if [ -f "$lock" ]; then cp "$lock" "$saved"; else rm -f "$saved"; fi
    CARGO_TARGET_DIR=$target CARGO_HOME=$target/cargo-home \
        cargo build --release --offline --quiet --manifest-path "$2/benchmark/Cargo.toml" >&2
    if [ -f "$saved" ]; then
        cmp -s "$saved" "$lock" || cp "$saved" "$lock"
    else
        rm -f "$lock"
    fi
}
build parent "$parent"
build change "$change"

# run SIDE CHECKOUT: the last line of one run.
run() {
    (cd "$2" && "$work/$1/release/pls-benchmark" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 "${bench_args[@]}") | tail -n 1
}

printf '%-6s %4s %12s %10s %10s %10s %10s %12s %10s\n' side pair ops_per_s op_p50_ns \
    msgs/op storage/e allocs/op bytes/op heap_mb
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
        echo "$side $i $(run "$side" "$dir")"
    done
done | awk '
    BEGIN {
        ncounts = split("msgs_per_op storage_per_entry allocs_per_op alloc_bytes_per_op peak_heap_mb",
            counts, " ")
    }
    # The value of metric `name` in a result line.
    function metric(line, name,    at, rest) {
        at = index(line, "\"" name "\":")
        if (at == 0) { print "no " name " in: " line > "/dev/stderr"; bad = 1; exit 1 }
        rest = substr(line, at)
        rest = substr(rest, index(rest, "\"value\":") + 8)
        sub(/^ */, "", rest)
        match(rest, /^[-+0-9.eE]+/)
        return substr(rest, 1, RLENGTH) + 0
    }
    # The p-quantile of v[1..n], sorted, by linear interpolation.
    function quantile(v, n, p,    h, lo) {
        h = 1 + p * (n - 1); lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    # dst[1..n]: the values src holds for side, in ascending order.
    function sorted(src, side, n, dst,    i, j, t) {
        for (i = 1; i <= n; i++) dst[i] = src[side, i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
                t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
            }
    }
    {
        side = $1; pair = $2
        if ($0 !~ /"correct": *true/ || $0 !~ /"failed": *0[,}]/) {
            print "run " pair " of " side " failed or was wrong: " $0 > "/dev/stderr"
            bad = 1; exit 1
        }
        ops[side, pair] = metric($0, "ops_per_s"); p50[side, pair] = metric($0, "op_p50_ns")
        for (c = 1; c <= ncounts; c++) count[c, side, pair] = metric($0, counts[c])
        printf "%-6s %4d %12.0f %10.1f %10.5f %10.5f %10.6f %12.4f %10.4f\n", side, pair,
            ops[side, pair], p50[side, pair], count[1, side, pair], count[2, side, pair],
            count[3, side, pair], count[4, side, pair], count[5, side, pair]
        fflush()
        n = pair
    }
    # summary NAME VALUES SIGN: SIGN is 1 where higher is better, -1 where lower is.
    function summary(name, values, sign,    a, b, i, wins, pq1, pq3, pm, cm, gap, holds) {
        sorted(values, "parent", n, a); sorted(values, "change", n, b)
        for (i = 1; i <= n; i++) wins += (sign * (values["change", i] - values["parent", i]) > 0)
        pq1 = quantile(a, n, 0.25); pm = quantile(a, n, 0.5); pq3 = quantile(a, n, 0.75)
        cm = quantile(b, n, 0.5); gap = sign * (cm - pm)
        holds = n >= 10 && wins * 10 >= n * 9 && gap > pq3 - pq1
        printf "%-10s parent %.1f [%.1f-%.1f]  change %.1f [%.1f-%.1f]  %+.1f%%  won %d/%d\n",
            name, pm, pq1, pq3, cm, quantile(b, n, 0.25), quantile(b, n, 0.75),
            100 * (cm - pm) / pm, wins, n
        return holds
    }
    # count_summary C: one row for count metric C; true when its medians differ.
    function count_summary(c,    v, a, b, i, pm, cm) {
        for (i = 1; i <= n; i++) {
            v["parent", i] = count[c, "parent", i]; v["change", i] = count[c, "change", i]
        }
        sorted(v, "parent", n, a); sorted(v, "change", n, b)
        pm = quantile(a, n, 0.5); cm = quantile(b, n, 0.5)
        printf "%-18s parent %.6g [%.6g-%.6g]  change %.6g [%.6g-%.6g]  %+.2f%%\n", counts[c],
            pm, a[1], a[n], cm, b[1], b[n], pm == 0 ? 0 : 100 * (cm - pm) / pm
        return sprintf("%.6g", pm) != sprintf("%.6g", cm)
    }
    END {
        if (bad || n == 0) exit 1
        print ""
        gain = summary("ops_per_s", ops, 1)
        summary("op_p50_ns", p50, -1)
        printf "verdict: an ops_per_s gain %s", gain ? "holds" : "does not hold"
        print " (needs >= 10 pairs, >= 9/10 wins, a median gap > the parent IQR)"
        print ""
        moved = ""
        for (c = 1; c <= ncounts; c++)
            if (count_summary(c)) moved = moved " " counts[c]
        print "counts:" (moved == "" ? " none moved" : moved)
    }'
