#!/usr/bin/env bash
# Tier-1 CI gate: release build, full test suite (with the exact work
# counters in tests/tests/work_counters.rs), the end-to-end benchmark's
# smoke tests, doctests, warning-free rustdoc, a warning-free clippy pass
# over all targets, then CLI checks: the experiment binaries' flag
# handling, the reduce-strategy cache gate, the
# cache round-trip, the reference checkpoint md5, doc links and the
# kernels' vectorization. Timing is measured by benchmark/run.sh, not
# here: a paired `--compare` of two result sets is the speed check.
# Run from the repository root.
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
# All targets: tests, examples and binaries are linted like the
# libraries, so test code cannot drift from the lint set unseen.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> experiment binary flags: --help exits 0, an unknown flag exits 2 without a panic"
# Every experiment binary parses its flags with magic_bench::RunArgs.
# `--help` must print the usage to stdout and exit 0; a misspelt flag
# must print the usage to stderr and exit 2, not panic with a backtrace.
EXP_BIN=./target/release/table3_mskcfg
if ! OUT="$("$EXP_BIN" --help)"; then
    echo "ERROR: $EXP_BIN --help exited non-zero" >&2
    exit 1
fi
if ! echo "$OUT" | grep -q -- "--epochs N"; then
    echo "ERROR: $EXP_BIN --help printed no usage: $OUT" >&2
    exit 1
fi
set +e
ERR="$("$EXP_BIN" --no-such-flag 2>&1 >/dev/null)"
STATUS=$?
set -e
if [[ $STATUS -ne 2 ]] || echo "$ERR" | grep -q panicked; then
    echo "ERROR: $EXP_BIN --no-such-flag exited $STATUS (want 2): $ERR" >&2
    exit 1
fi
echo "--help exits 0 with the usage; an unknown flag exits 2 without a panic"

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

echo "==> doc link check: no dangling relative links in README.md / docs/"
scripts/check_doc_links.sh

echo "==> vectorization check: both kernel instances emit packed FP math, none fused"
# Compile the kernel module standalone at opt-level=3 and inspect the
# assembly of both instances of the one kernel source. On x86 the
# baseline instance (every function but `run_avx2`) must hold packed SSE
# `mulps`/`addps`, the AVX2 instance (`run_avx2`) packed `ymm`
# `vmulps`/`vaddps`, and no `vfmadd` may appear anywhere: a fused
# multiply-add would round differently and break bitwise equality
# between the instances. The AVX2 instance of the direct convolution
# body (`ConvBand`; v0 mangling puts the kernel type in the `run_avx2`
# symbol) must itself hold packed `ymm` `vmulps` and `vaddps`, and those
# of the two pooling bodies (`ColumnRows`, `ColumnFold`) must each hold a
# packed `ymm` compare with a packed `ymm` blend, or a packed `ymm` max.
# Guards against a refactor silently de-vectorizing a kernel or enabling
# `fma`. Skipped, not failed, if rustc can't emit asm for this target.
SIMD_DIR="$(mktemp -d /tmp/simd_probe.XXXXXX)"
trap 'rm -rf "$SIMD_DIR"' EXIT
if rustc --edition 2021 --crate-type lib -C opt-level=3 -C symbol-mangling-version=v0 \
    --emit asm -o "$SIMD_DIR/simd.s" crates/tensor/src/simd.rs 2>/dev/null; then
    if grep -Eq '\bvfmadd' "$SIMD_DIR/simd.s"; then
        echo "ERROR: fused multiply-add (vfmadd) in kernel asm" >&2
        exit 1
    fi
    case "$(uname -m)" in
    x86_64 | i?86)
        # Split the listing per function: labels of non-local symbols
        # start a function; `run_avx2` ones go to avx2.s, and the
        # convolution and pooling ones also to their own file.
        : > "$SIMD_DIR/baseline.s"
        : > "$SIMD_DIR/avx2.s"
        : > "$SIMD_DIR/ConvBand.s"
        : > "$SIMD_DIR/ColumnRows.s"
        : > "$SIMD_DIR/ColumnFold.s"
        awk -v dir="$SIMD_DIR" '
            /^[_A-Za-z][^ \t]*:$/ {
                out = ($0 ~ /run_avx2/) ? "avx2.s" : "baseline.s"
                body = ""
                if ($0 ~ /run_avx2.*ConvBand/) body = "ConvBand.s"
                if ($0 ~ /run_avx2.*ColumnRows/) body = "ColumnRows.s"
                if ($0 ~ /run_avx2.*ColumnFold/) body = "ColumnFold.s"
            }
            out { print > (dir "/" out) }
            body { print > (dir "/" body) }' "$SIMD_DIR/simd.s"
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
        packed() { grep -Eq "^\s+$1\s.*%ymm" "$SIMD_DIR/$2.s"; }
        for op in vmulps vaddps; do
            if ! packed "$op" ConvBand; then
                echo "ERROR: no packed ymm $op in the AVX2 ConvBand instance" >&2
                exit 1
            fi
        done
        for body in ColumnRows ColumnFold; do
            if ! packed vmaxps "$body" \
                && ! { packed 'vcmp[a-z]*ps' "$body" && packed vblendvps "$body"; }; then
                echo "ERROR: no packed ymm compare/select or max in the AVX2 $body instance" >&2
                exit 1
            fi
        done
        echo "baseline instance: packed SSE; AVX2 instance: packed ymm, convolution and pooling included; no vfmadd"
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
