#!/usr/bin/env bash
# Builds the benchmark, then replaces this shell with it, passing every
# argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload workstation --seed 1 --seconds 10 --trace 0
#
# The benchmark runs as this process (exec), not as a child of `cargo run`:
# Linux carries a process's peak resident memory across exec, so under cargo
# the peak that getrusage reports would be cargo's.
set -euo pipefail
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --quiet --manifest-path perfbench/Cargo.toml --bin perfbench 1>&2
exec "$target/release/perfbench" "$@"
