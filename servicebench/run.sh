#!/usr/bin/env bash
# Builds the release `idldp` binary and the benchmark from source, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash servicebench/run.sh --workload all --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`); scratch
# files of a run go to `.bench_work` and are removed when it ends.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/cli || ! -f servicebench/Cargo.toml ]]; then
    echo "servicebench: run from the repository root (the idldp sources are not here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p idldp-cli
cargo build --release --offline --quiet --manifest-path servicebench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/servicebench" --idldp "$CARGO_TARGET_DIR/release/idldp" "$@"
