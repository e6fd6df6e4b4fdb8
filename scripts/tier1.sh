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

# A doc link to an item that no longer exists fails the gate.
echo "==> cargo doc --no-deps --workspace (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace

echo "==> crypto_bench --smoke (fast-path bit-identity gate; release-build AES-128-GCM SP 800-38D cases 2-4 + pinned seal; Montgomery cross-width agreement)"
cargo run --release -p mws-bench --bin crypto_bench -- --smoke

# `cargo test` compiles the examples but never runs them; each one asserts
# its own scenario end to end (distribution_points is the only end-to-end
# run of the edge-to-center pull). All of them finish in well under a second.
for example in examples/*.rs; do
  name="$(basename "${example}" .rs)"
  echo "==> cargo run --release --example ${name}"
  cargo run -q --release --example "${name}" </dev/null >/dev/null
done

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
