#!/usr/bin/env bash
# Full verification gate: formatting, release build, tier-1 tests, the
# complete workspace test suite (including the vendored stub crates),
# the benchmark build and its verdict checks, and a warnings-as-errors
# clippy pass.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q (tier-1: root package) =="
cargo test -q

echo "== cargo test --workspace -q =="
cargo test --workspace -q

echo "== serve integration tests (keep-alive, lazy == serial reference, golden packs) =="
cargo test -p autotype-serve --test keepalive --test lazy_eager --test golden --test loopback -q

# The benchmark is its own package outside the workspace: building it
# catches a public-API change that breaks it.
echo "== perfbench build =="
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path perfbench/Cargo.toml

# At seed 24301 perfbench checks the pinned synth labels and pack ids and
# the 350 pinned table2 detections. Its last line is the result object; a
# run passes only if every check held and no op failed.
for workload in synth table; do
    echo "== perfbench verdict checks: $workload =="
    result=$(.bench_build/release/perfbench --workload "$workload" --seed 24301 --seconds 1 --trace 0 | tail -n 1)
    echo "$result" | cut -c1-200
    case "$result" in
        *'"correct":true'*) ;;
        *) echo "perfbench $workload: verdict checks failed" >&2; exit 1 ;;
    esac
    case "$result" in
        *'"failed":0'*) ;;
        *) echo "perfbench $workload: failed ops" >&2; exit 1 ;;
    esac
done

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace -- -D warnings

echo "verify: all green"
