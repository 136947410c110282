#!/usr/bin/env bash
# The repository's benchmark, one command: build the workspace in release,
# then generate inputs from the seed, run the workloads, check the answers
# and print every metric by name. See benchmark/README.md.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                    [--trace 0|1] [--smoke] [--out FILE]
#   benchmark/run.sh --repeat-check [--workload NAME|all] [--seed N] [--smoke]
#   benchmark/run.sh compare A.jsonl B.jsonl
#
# The last line printed for a workload is its result object.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# One target directory for both builds; a relative CARGO_TARGET_DIR is taken
# from the repository root.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
export BENCH_GIT_COMMIT="${BENCH_GIT_COMMIT:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}"

# Cargo's progress goes to stderr; standard output carries only results.
cargo build --release --offline --quiet --bin uniclean 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$target/release/uniclean-benchmark" --root "$root" --daemon "$target/release/uniclean" "$@"
