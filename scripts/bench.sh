#!/usr/bin/env bash
# Benchmark baselines, regenerated at the repo root.
#
# Targets:
#   scripts/bench.sh             # crypto microbenches -> BENCH_crypto.json
#   scripts/bench.sh --server    # load scenarios (shards, rebalance, connections) -> BENCH_server.json
#   scripts/bench.sh --all       # both
#
# Iteration counts are pinned inside the binaries (crypto: 200 @ Toy,
# 40 @ Light, median of 5 runs per row; server: the FULL scenario sizes in
# crates/bench/src/bin/load_bench.rs) so two machines produce comparable
# JSON shapes and any row can be diffed against a committed baseline.
#
# Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${1:-crypto}"

run_crypto() {
  echo "==> cargo run --release -p mws-bench --bin crypto_bench"
  cargo run --release -p mws-bench --bin crypto_bench >/dev/null
  echo "==> BENCH_crypto.json written"
}

run_server() {
  echo "==> cargo run --release -p mws-bench --bin load_bench"
  cargo run --release -p mws-bench --bin load_bench >/dev/null
  echo "==> BENCH_server.json written"
}

case "${target}" in
  crypto)   run_crypto ;;
  --server) run_server ;;
  --all)    run_crypto; run_server ;;
  *)        echo "usage: scripts/bench.sh [--server|--all]" >&2; exit 2 ;;
esac
