#!/usr/bin/env bash
# Mirrors CI exactly — the same checks, in the same order, as
# .github/workflows/ci.yml — so local verify and CI cannot disagree:
#   lint    -> fmt + clippy -D warnings
#   test    -> release build, tier-1 tests, workspace tests, ledger
#              self-tests
#   docs    -> rustdoc with warnings denied
#   netlint -> full-grid netlist/timing static analysis (fails on Error)
#   prove   -> symbolic equivalence + false-path STA proofs, moment
#              program vs BDD counts, batched energy vs scalar lanes
#              (fails on any)
#   miri    -> batch transpose/pack/schedule tests under Miri (when installed)
#   golden  -> experiment CSVs on 1 and 4 workers diffed against
#              tests/golden/ + explorer pre-filter front identity
#              (on-front rows byte-identical)
#   serve   -> chaos battery + cold/hot/chaos byte-identity + observability
#              out-of-band pass (metrics + tracing on, bytes unchanged)
# Speed is judged only by the layer ledger (python3 ledger/run.py).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

# `--locked` on every workspace step: a stale Cargo.lock fails here
# instead of being rewritten silently. The ledger step goes without it
# until ledger/Cargo.lock is refreshed.
echo "==> cargo clippy --locked --workspace --all-targets -- -D warnings"
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "==> cargo build --locked --release (tier-1)"
cargo build --locked --release

echo "==> cargo test --locked -q (tier-1)"
cargo test --locked -q

echo "==> cargo test --locked -q --workspace"
cargo test --locked -q --workspace

echo "==> layer-ledger self-tests (own Cargo package)"
cargo test -q --manifest-path ledger/Cargo.toml

echo "==> cargo doc --locked --workspace --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --locked -q --workspace --no-deps

echo "==> netlint sweep (12 seeds + full width-32 quadruple grid)"
# Same sweep as CI's netlint job: every feasible design through the full
# lint pipeline; the binary exits non-zero on any Error-severity finding.
cargo run --release -q -p isa-experiments --bin netlint

echo "==> prove sweep (12 seeds at 32 bits + width-16 quadruple grid)"
# Same sweep as CI's prove job: full symbolic equivalence proofs and
# false-path STA on every feasible design, and the moment program checked
# against the BDD counts on every design; exits non-zero on any failed
# proof or mismatch.
cargo run --release -q -p isa-experiments --bin prove

echo "==> miri (batch transpose/pack/schedule)"
# CI runs these under nightly Miri as a UB tripwire for the lane-packing
# hot path. Miri needs a nightly component that offline environments may
# not have — skip only when it is genuinely unavailable.
if cargo miri --version >/dev/null 2>&1; then
  MIRIFLAGS=-Zmiri-strict-provenance cargo miri test -p isa-core batch
elif rustup component add miri --toolchain nightly >/dev/null 2>&1; then
  MIRIFLAGS=-Zmiri-strict-provenance cargo +nightly miri test -p isa-core batch
else
  echo "==> miri: SKIPPED (no miri component available; CI runs it)"
fi

echo "==> golden figures on 1 and 4 workers (scripts/golden.sh)"
scripts/golden.sh

echo "==> explorer pre-filter front identity (scripts/explore_front.sh)"
scripts/explore_front.sh

echo "==> serve chaos battery (release, same as CI)"
cargo test --release -q -p isa-serve

echo "==> serve cold/hot/chaos + observability smoke (scripts/serve_smoke.sh)"
scripts/serve_smoke.sh

echo "verify: OK"
