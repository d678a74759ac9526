#!/usr/bin/env bash
# Tier-1 CI gate: release build, full test suite, doctests, warning-free
# rustdoc, and a warning-free clippy pass over all targets. Run from the
# repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --manifest-path benchmark/e2e/Cargo.toml"
# The end-to-end benchmark is a workspace of its own, so the root
# `cargo test` skips it. Its debug smoke run of all four workloads is
# what catches a library change breaking the calls the benchmark makes.
cargo test -q --manifest-path benchmark/e2e/Cargo.toml

echo "==> cargo test --doc -q"
cargo test --doc -q

echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# All targets: tests, benches, examples and binaries are linted like the
# libraries, so test code cannot drift from the lint set unseen.
cargo clippy --workspace --all-targets -- -D warnings

# Perf-regression gates: re-measure each quick benchmark and compare it
# against its committed baseline. A gate only fires when the baseline
# was recorded on this same machine (cross-host timings don't compare);
# on a fresh host it prints a skip notice and stays green until
# `scripts/bench_snapshot.sh` commits a local baseline.
#
# perf_gate <bench> <baseline> <threshold>
perf_gate() {
    local bench="$1" baseline="$2" threshold="$3"
    echo "==> perf gate: quick $bench bench vs committed baseline"
    if [ ! -f "$baseline" ]; then
        echo "no committed baseline at $baseline; skipping perf gate"
        return
    fi
    # Absolute path: cargo runs bench binaries from the package dir,
    # not the workspace root.
    MAGIC_RESULTS_DIR="$PWD/target/ci-bench" MAGIC_BENCH_QUICK=1 \
        cargo bench -q -p magic-bench --bench "$bench"
    ./target/release/magic bench diff \
        "$baseline" "target/ci-bench/$(basename "$baseline")" \
        --threshold "$threshold" --require-same-machine
}

perf_gate train_parallel results/BENCH_train_parallel_quick.json 0.20
perf_gate graph_conv results/BENCH_graph_conv_quick.json 0.20
# Wider threshold than the other gates: the conv_head quick cells are
# sub-millisecond and their medians swing ±30% run-to-run on a busy
# 1-core container (measured band; the train_parallel ms-scale gate
# stays within ±5%). 0.40 still fails hard on a ≥2x kernel slowdown
# such as losing the GEMM lowering.
perf_gate conv_head results/BENCH_conv_head_quick.json 0.40
# Same wide threshold as conv_head: the quick cells are single-digit
# millisecond training epochs (one per pooling head) on a 1-core
# container and swing with host load. 0.40 still catches a step change
# in the per-head epoch cost.
perf_gate batched_forward results/BENCH_batched_forward_quick.json 0.40
# Wide threshold like the other sub-ms gates: loopback HTTP latency on
# a busy container swings run-to-run. The gated row is the p50 of the
# closed-loop load generator; 0.40 still fails hard on the step change
# of losing micro-batching or warm-tape reuse in the serving path.
perf_gate serve_load results/BENCH_serve_quick.json 0.40
# Wide threshold like the other quick gates: the warm-load cell is
# single-digit milliseconds and tracks disk/page-cache state. 0.40
# still fails hard on the step change of losing the parallel shard
# decode or falling back to generate+extract.
perf_gate corpus_cache results/BENCH_corpus_cache_quick.json 0.40
# Widest threshold of the gates: the gated rows are 11-37 ms training
# epochs whose *whole-run* medians swing up to ~1.7x with container
# load (measured band; per-sample medians don't dampen a systemically
# slow run). The step change this gate guards — reduction stopping to
# shrink graphs, snapping the coarsen:2 epoch back to the unreduced
# cost — is >=3x, so 1.00 still fails hard on it. The one-off
# reduce-pass rows are deliberately not gated (keyed `pass_median_ns`).
perf_gate graph_reduce results/BENCH_graph_reduce_quick.json 1.00

echo "==> reduce gate: mismatched-strategy cache opens fail with a typed error"
# A cache stores *reduced* graphs, so serving it under a different
# --reduce would silently feed the model wrong-shaped graphs. The
# fingerprint embeds the strategy; `cache info` with expectation flags
# recomputes it and must fail with the typed mismatch error when the
# expected strategy differs from what the cache was built with.
RD_DIR="$(mktemp -d /tmp/magic_reduce_gate.XXXXXX)"
./target/release/magic cache build --corpus yancfg --scale 0.002 --seed 7 \
    --reduce chain --cache-dir "$RD_DIR" >/dev/null
./target/release/magic cache info --cache-dir "$RD_DIR" \
    --corpus yancfg --scale 0.002 --seed 7 --reduce chain >/dev/null
if OUT="$(./target/release/magic cache info --cache-dir "$RD_DIR" \
    --corpus yancfg --scale 0.002 --seed 7 --reduce none 2>&1)"; then
    echo "ERROR: mismatched --reduce cache info succeeded" >&2
    exit 1
fi
if ! echo "$OUT" | grep -q "cache fingerprint mismatch"; then
    echo "ERROR: mismatch was not the typed fingerprint error: $OUT" >&2
    exit 1
fi
rm -rf "$RD_DIR"
echo "chain-built cache rejects a none-strategy open with the typed error"

echo "==> cache round-trip: streamed training is bitwise-identical to in-memory"
# Train the same tiny corpus five ways — no cache on the auto lane
# count, no cache on one lane, no cache with a trace recorded,
# cache-to-RAM, and streamed from shards with two lanes — and require
# the checkpoint files to be byte-identical. The one-lane run keeps the
# inline path compared end to end even where auto resolves to several
# lanes; the traced run is the CLI-level proof that turning telemetry on
# leaves training bitwise unchanged. This is the end-to-end
# proof of the magic-acfg/1 determinism contract (DESIGN.md): the cache
# and the prefetching shard stream change where bytes come from, never
# what the trainer computes.
RT_DIR="$(mktemp -d /tmp/magic_cache_rt.XXXXXX)"
RT_ARGS=(--corpus yancfg --scale 0.002 --epochs 2 --seed 7 --log-level error)
./target/release/magic train "${RT_ARGS[@]}" --out "$RT_DIR/nocache.magic"
./target/release/magic train "${RT_ARGS[@]}" --train-workers 1 \
    --out "$RT_DIR/onelane.magic"
./target/release/magic train "${RT_ARGS[@]}" --trace "$RT_DIR/train.trace.jsonl" \
    --out "$RT_DIR/traced.magic"
./target/release/magic cache build --corpus yancfg --scale 0.002 --seed 7 \
    --cache-dir "$RT_DIR/cache" >/dev/null
./target/release/magic train "${RT_ARGS[@]}" --cache-dir "$RT_DIR/cache" \
    --out "$RT_DIR/ram.magic"
./target/release/magic train "${RT_ARGS[@]}" --cache-dir "$RT_DIR/cache" \
    --cache stream --train-workers 2 --out "$RT_DIR/stream.magic"
cmp "$RT_DIR/nocache.magic" "$RT_DIR/onelane.magic"
cmp "$RT_DIR/nocache.magic" "$RT_DIR/traced.magic"
cmp "$RT_DIR/nocache.magic" "$RT_DIR/ram.magic"
cmp "$RT_DIR/nocache.magic" "$RT_DIR/stream.magic"
rm -rf "$RT_DIR"
echo "checkpoints identical across no-cache / one-lane / traced / cache-ram / cache-stream paths"

echo "==> reference checkpoint: bitwise equal to the committed golden"
# The round-trip above compares training paths with each other, so a
# kernel change that moves every path's bits the same way passes it.
# This step pins the bits themselves: the reference run (mskcfg 0.01,
# 3 epochs, seed 7) must write exactly the checkpoint whose md5 is
# committed in tests/golden/reference-checkpoint.md5 — on one lane, on
# two, traced, from the shard cache in RAM, and streamed from the shard
# cache. A change meant to alter training re-records the file and says
# why in CHANGES.md.
REF_DIR="$(mktemp -d /tmp/magic_ref.XXXXXX)"
REF_ARGS=(--corpus mskcfg --scale 0.01 --epochs 3 --seed 7 --log-level error)
GOLDEN_MD5="$(cut -d' ' -f1 tests/golden/reference-checkpoint.md5)"
./target/release/magic train "${REF_ARGS[@]}" --train-workers 1 --out "$REF_DIR/one.magic"
./target/release/magic train "${REF_ARGS[@]}" --train-workers 2 --out "$REF_DIR/two.magic"
./target/release/magic train "${REF_ARGS[@]}" --train-workers 2 \
    --trace "$REF_DIR/train.trace.jsonl" --out "$REF_DIR/traced.magic"
./target/release/magic train "${REF_ARGS[@]}" --train-workers 2 \
    --cache-dir "$REF_DIR/cache" --out "$REF_DIR/cache-ram.magic"
./target/release/magic train "${REF_ARGS[@]}" --train-workers 2 \
    --cache-dir "$REF_DIR/cache" --cache stream --out "$REF_DIR/cache-stream.magic"
for ckpt in one two traced cache-ram cache-stream; do
    got="$(md5sum "$REF_DIR/$ckpt.magic" | cut -d' ' -f1)"
    if [[ "$got" != "$GOLDEN_MD5" ]]; then
        echo "ERROR: $ckpt reference checkpoint md5 $got != golden $GOLDEN_MD5" >&2
        exit 1
    fi
done
rm -rf "$REF_DIR"
echo "reference checkpoint md5 $GOLDEN_MD5 at 1 and 2 lanes, traced, cache-ram and cache-stream"

echo "==> access-log schema validation: magic report --serve on bench logs"
# The serve_load bench streams a schema-v3 access log per window into
# MAGIC_RESULTS_DIR (one ServeAccess line per request, plus a Meta
# header). Replaying each log through the offline reporter proves every
# line round-trips under the bumped schema: a hard decode error fails
# the command, and a silently-skipped line shows up as "malformed" in
# the summary header and fails the grep below. If the serve perf gate
# was skipped (no committed baseline), run the quick bench here just to
# produce the logs.
if ! ls target/ci-bench/serve_access_w*.jsonl >/dev/null 2>&1; then
    MAGIC_RESULTS_DIR="$PWD/target/ci-bench" MAGIC_BENCH_QUICK=1 \
        cargo bench -q -p magic-bench --bench serve_load
fi
for log in target/ci-bench/serve_access_w*.jsonl; do
    out="$(./target/release/magic report --serve "$log")"
    if echo "$out" | grep -q "malformed"; then
        echo "ERROR: $log has malformed access-log lines" >&2
        echo "$out" >&2
        exit 1
    fi
    if ! echo "$out" | grep -Eq "^access log: [1-9][0-9]* request"; then
        echo "ERROR: $log aggregated zero requests" >&2
        exit 1
    fi
    echo "$log: $(echo "$out" | head -n 1)"
done

echo "==> doc link check: no dangling relative links in README.md / docs/"
scripts/check_doc_links.sh

echo "==> vectorization check: both kernel instances emit packed FP math, none fused"
# Compile the kernel module standalone at opt-level=3 and inspect the
# assembly of both instances of the one kernel source. On x86 the
# baseline instance (every function but `run_avx2`) must hold packed SSE
# `mulps`/`addps`, the AVX2 instance (`run_avx2`) packed `ymm`
# `vmulps`/`vaddps`, and no `vfmadd` may appear anywhere: a fused
# multiply-add would round differently and break bitwise equality
# between the instances. Guards against a refactor silently
# de-vectorizing a kernel or enabling `fma`. Skipped, not failed, if
# rustc can't emit asm for this target.
SIMD_DIR="$(mktemp -d /tmp/simd_probe.XXXXXX)"
trap 'rm -rf "$SIMD_DIR"' EXIT
if rustc --edition 2021 --crate-type lib -C opt-level=3 --emit asm \
    -o "$SIMD_DIR/simd.s" crates/tensor/src/simd.rs 2>/dev/null; then
    if grep -Eq '\bvfmadd' "$SIMD_DIR/simd.s"; then
        echo "ERROR: fused multiply-add (vfmadd) in kernel asm" >&2
        exit 1
    fi
    case "$(uname -m)" in
    x86_64 | i?86)
        # Split the listing per function: labels of non-local symbols
        # start a function; `run_avx2` ones go to avx2.s.
        : > "$SIMD_DIR/baseline.s"
        : > "$SIMD_DIR/avx2.s"
        awk -v dir="$SIMD_DIR" '
            /^[_A-Za-z][^ \t]*:$/ { out = ($0 ~ /run_avx2/) ? "avx2.s" : "baseline.s" }
            out { print > (dir "/" out) }' "$SIMD_DIR/simd.s"
        for op in mulps addps; do
            if ! grep -Eq "^\s+$op\s" "$SIMD_DIR/baseline.s"; then
                echo "ERROR: no packed SSE $op in the baseline kernel instance" >&2
                exit 1
            fi
            if ! grep -Eq "^\s+v$op\s.*%ymm" "$SIMD_DIR/avx2.s"; then
                echo "ERROR: no packed ymm v$op in the AVX2 kernel instance" >&2
                exit 1
            fi
        done
        echo "baseline instance: packed SSE; AVX2 instance: packed ymm; no vfmadd"
        ;;
    *)
        if grep -Eq '\b(mulps|fmla|fmul)\b' "$SIMD_DIR/simd.s"; then
            echo "packed FP instructions found in kernel asm"
        else
            echo "ERROR: no packed FP instructions in kernel asm" >&2
            exit 1
        fi
        ;;
    esac
else
    echo "rustc --emit asm unavailable on this target; skipping vectorization check"
fi

echo "==> CI OK"
