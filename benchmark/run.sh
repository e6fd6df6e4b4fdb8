#!/usr/bin/env bash
# The repo benchmark's one command: build offline, then run.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace 0|1 | --traced] [--repeat K] [--smoke]
#
# Run from anywhere; it works from the root of the checkout, where
# BENCHMARK.json is. Everything it writes stays inside the checkout: the
# build under $CARGO_TARGET_DIR (default benchmark/target), results, traces
# and the durable workload's WAL files under benchmark/out. See
# benchmark/README.md for what the numbers mean.
set -euo pipefail
cd "$(dirname "$0")/.."

# No registry here: resolution must never reach for the index.
export CARGO_NET_OFFLINE=true
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Cargo's own chatter goes to stderr, so the last line of stdout stays the
# result line. A failed build exits here, before any result is printed.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
  --manifest-path benchmark/Cargo.toml >&2

exec "$target/release/mws-benchmark" "$@"
