#!/usr/bin/env bash
# Tier-1 gate: everything that must be green before a merge.
# Run from the repository root: scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Every dependency is a workspace crate (tests/architecture.rs holds that),
# so nothing below may reach for a registry.
export CARGO_NET_OFFLINE=true

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> crypto_bench --smoke (fast-path bit-identity gate; release-build AES-GCM vectors + pinned seal; Montgomery cross-width agreement)"
cargo run --release -p mws-bench --bin crypto_bench -- --smoke

echo "==> load_bench --smoke (durable-before-ack + dedup under socket load)"
cargo run --release -p mws-bench --bin load_bench -- --smoke

echo "==> load_bench --cluster --smoke (3-node R=2 quorum acks, exactly R copies)"
cargo run --release -p mws-bench --bin load_bench -- --cluster --smoke

echo "==> load_bench --rebalance --smoke (live join mid-load, exactly R copies after evict)"
cargo run --release -p mws-bench --bin load_bench -- --rebalance --smoke

echo "==> load_bench --connections --smoke (idle fleet on the event core, bursts all acked)"
cargo run --release -p mws-bench --bin load_bench -- --connections --smoke

echo "==> load_bench --secure --smoke (IBS handshake + sealed deposits all acked)"
cargo run --release -p mws-bench --bin load_bench -- --secure --smoke

echo "==> MWS_TRANSPORT=secure loopback deployment (every link handshaked + sealed)"
MWS_TRANSPORT=secure cargo test -q -p mws --test tcp_deployment

echo "==> MWS_LOG=warn smoke (happy path emits no error-level events)"
SMOKE_OUT="$(MWS_LOG=warn cargo test -q -p mws --test observability -- --nocapture 2>&1)"
if grep -q " ERROR " <<<"${SMOKE_OUT}"; then
  grep " ERROR " <<<"${SMOKE_OUT}" >&2
  echo "error-level events during the happy-path loopback flow" >&2
  exit 1
fi

# Opt-in chaos gate: MWS_CHAOS=1 scripts/tier1.sh additionally runs the
# seeded chaos suite across its pinned seed schedule (scripts/chaos.sh
# prints the failing seed on any assertion failure).
if [ "${MWS_CHAOS:-0}" = "1" ]; then
  echo "==> scripts/chaos.sh (MWS_CHAOS=1)"
  scripts/chaos.sh
fi

echo "==> tier-1 gate passed"
