#!/usr/bin/env bash
# Builds the program under test (qsdd_cli) and the benchmark from source,
# then runs the benchmark with the arguments given:
#
#   bash qsdd_benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#
# Run from the repository root. Everything built or written stays under
# $CARGO_TARGET_DIR (default: .bench_build in the repository root).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet -p qsdd --bin qsdd_cli
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

exec "$target/release/qsdd_benchmark" \
    --cli "$target/release/qsdd_cli" \
    --work-dir "$target/qsdd_benchmark_work" \
    "$@"
