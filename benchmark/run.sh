#!/usr/bin/env bash
# Runs every e2e workload in order and summarizes the result set.
#
#   benchmark/run.sh [--seed N] [--repeat K] [--trace] [--seconds S] [--out DIR]
#   benchmark/run.sh --compare A B
#
# Each workload runs K times, in its own process, with seeds N .. N+K-1.
# Result lines go to DIR/<workload>.jsonl, full output to
# DIR/<workload>.log, the program's own log lines to DIR/<workload>.err
# and nproc and CPU model to DIR/machine.txt (DIR defaults to
# target/e2e/runs/<timestamp>); then
# the median, quartiles and spread of every end-to-end metric are
# printed. With --trace each workload also gets one traced run, whose
# loss digest must equal the untraced run's. --compare A B fails when a
# median of set B is worse than set A's by more than the bound
# BENCHMARK.json declares.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
repeat=1
trace=0
seconds=""
out=""
compare=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --repeat) repeat="$2"; shift 2 ;;
        --trace) trace=1; shift ;;
        --seconds) seconds="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --compare) compare=("$2" "$3"); shift 3 ;;
        *) echo "usage: $0 [--seed N] [--repeat K] [--trace] [--seconds S] [--out DIR] | --compare A B" >&2; exit 2 ;;
    esac
done

manifest=benchmark/e2e/Cargo.toml
cargo build --release -q --manifest-path "$manifest"
bin="${CARGO_TARGET_DIR:-benchmark/e2e/target}/release/magic-e2e-bench"

if [[ ${#compare[@]} -eq 2 ]]; then
    exec "$bin" compare "${compare[0]}" "${compare[1]}"
fi

if [[ -z "$seconds" ]]; then
    seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
fi
out="${out:-target/e2e/runs/$(date +%Y%m%d-%H%M%S)}"
mkdir -p "$out"
workloads=$(sed -n '/"workloads"/,/]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)
echo "nproc $(nproc), cpu $(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -1)" > "$out/machine.txt"
echo "result set $out: seeds $seed..$((seed + repeat - 1)), $seconds s per run ($(cat "$out/machine.txt"))"

status=0
for w in $workloads; do
    : > "$out/$w.jsonl"
    : > "$out/$w.log"
    : > "$out/$w.err"
    for ((i = 0; i < repeat; i++)); do
        s=$((seed + i))
        start=$(date +%s)
        if ! "$bin" --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 > "$out/run.tmp" 2>> "$out/$w.err"; then
            status=1
        fi
        cat "$out/run.tmp" >> "$out/$w.log"
        tail -n 1 "$out/run.tmp" >> "$out/$w.jsonl"
        echo "$w seed $s: $(( $(date +%s) - start )) s, $(grep -c '' "$out/$w.jsonl") run(s)"
    done
    if [[ $trace -eq 1 ]]; then
        if ! "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 > "$out/$w.trace.log" 2>> "$out/$w.err"; then
            status=1
        fi
        sed -n '/^per-layer attribution/,/^$/p;/^trace.overhead_ratio/p;/^check.loss_digest/p' "$out/$w.trace.log"
        untraced=$(grep -m1 '^check.loss_digest' "$out/$w.log" | cut -d' ' -f2 || true)
        traced=$(grep -m1 '^check.loss_digest .* traced' "$out/$w.trace.log" | cut -d' ' -f2 || true)
        if [[ "$untraced" != "$traced" ]]; then
            echo "$w: traced loss digest $traced differs from untraced $untraced"
            status=1
        fi
    fi
done
rm -f "$out/run.tmp"
"$bin" summarize "$out" || status=1
exit $status
