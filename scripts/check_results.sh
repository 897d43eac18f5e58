#!/usr/bin/env sh
# Results-drift gate: rebuild the experiment binaries, run every
# `exp_*`, and compare its stdout byte for byte with the committed
# `results/<name>.txt`. Fails on the first mismatch and prints the diff.
# The binaries are seeded and deterministic at any thread count, so any
# difference is a behaviour change: regenerate the file from the binary
# and update EXPERIMENTS.md in the same change. Safe from any cwd.
set -eu

cd "$(dirname "$0")/.."

cargo build --release -q -p subset3d-bench --bins
# Run the binaries cargo just built, wherever its target directory is.
BIN_DIR="${CARGO_TARGET_DIR:-target}/release"

OUT_TMP="$(mktemp -d)"
trap 'rm -rf "$OUT_TMP"' EXIT

count=0
for src in crates/bench/src/bin/exp_*.rs; do
    name="$(basename "$src" .rs)"
    expected="results/$name.txt"
    if [ ! -f "$expected" ]; then
        echo "check_results: $name has no committed $expected" >&2
        exit 1
    fi
    "$BIN_DIR/$name" > "$OUT_TMP/$name.txt"
    if ! cmp -s "$expected" "$OUT_TMP/$name.txt"; then
        echo "check_results: $name output differs from $expected:" >&2
        diff -u "$expected" "$OUT_TMP/$name.txt" >&2 || true
        exit 1
    fi
    count=$((count + 1))
done

for expected in results/*.txt; do
    name="$(basename "$expected" .txt)"
    if [ ! -f "crates/bench/src/bin/$name.rs" ]; then
        echo "check_results: $expected has no experiment binary $name" >&2
        exit 1
    fi
done
echo "check_results: $count experiment outputs match results/"
