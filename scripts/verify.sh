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
#   miri    -> LaneBatch pack/transpose tests under Miri (when installed)
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

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release (tier-1)"
cargo build --release

echo "==> cargo test -q (tier-1)"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> layer-ledger self-tests (own Cargo package)"
cargo test -q --manifest-path ledger/Cargo.toml

echo "==> cargo doc --workspace --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

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

echo "==> miri (LaneBatch pack/transpose)"
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

echo "==> explorer pre-filter front identity"
# Same check as CI's golden job: pruning must never change the Pareto
# front, so the on-front rows (last CSV column) of the exhaustive
# compact-space run must be byte-identical with and without the
# pre-filter; the pre-filtered CSV must be byte-identical on 1 and 4
# workers; and assumption 1 is gated on both runs.
front_dir="$(mktemp -d)"
for mode in prefilter no-prefilter; do
  flag=""
  [ "$mode" = no-prefilter ] && flag="--no-prefilter"
  ./target/release/explore --space compact --strategy exhaustive \
    --cycles 5000 --seed 7 --threads 1 $flag \
    --csv "$front_dir/$mode.csv" --stats-json "$front_dir/$mode.json" >/dev/null 2>&1
  grep ',true$' "$front_dir/$mode.csv" > "$front_dir/front-$mode.csv"
done
test -s "$front_dir/front-prefilter.csv"
diff "$front_dir/front-prefilter.csv" "$front_dir/front-no-prefilter.csv"
./target/release/explore --space compact --strategy exhaustive \
  --cycles 5000 --seed 7 --threads 4 \
  --csv "$front_dir/prefilter-4.csv" >/dev/null 2>&1
cmp "$front_dir/prefilter.csv" "$front_dir/prefilter-4.csv"
# The no-prefilter run also simulates the pruned candidates and has one
# known violation: (8,1,0,0) at 5 % CPR measures 1.1e-6 points below its
# bound (compensating timing errors). Any further violation fails.
grep '"assumption1' "$front_dir"/*.json
grep -q '"assumption1_violations": 0,' "$front_dir/prefilter.json"
grep -q '"assumption1_violations": 1,' "$front_dir/no-prefilter.json"
rm -rf "$front_dir"

echo "==> serve chaos battery (release, same as CI)"
cargo test --release -q -p isa-serve

echo "==> serve cold/hot/chaos byte-identity smoke (released binary)"
# Same three-pass script as CI's serve job: cold computes and persists,
# hot serves from the store, chaos re-runs hot under injected store
# faults — all three response streams must be byte-identical.
cargo build --release -q -p isa-serve
serve_store="$(mktemp -d)"
serve_script="$(mktemp)"
cat > "$serve_script" <<'EOF'
{"id":1,"op":"ping"}
{"id":2,"op":"quality","design":"8,2,1,4","cpr":0.0,"workload":"uniform","cycles":800}
{"id":3,"op":"quality","design":"8,2,1,4","cpr":0.2,"workload":"uniform","cycles":800}
{"id":4,"op":"quality","design":"8,1,1,4","cpr":0.1,"workload":"walk","cycles":800}
{"id":5,"op":"quality","design":"exact","cpr":0.1,"workload":"sine","cycles":800}
{"id":6,"op":"quality","design":"8,2,1,4","cpr":0.1,"workload":"fir","scale":1}
{"id":7,"op":"cheapest","min_quality_db":30,"cpr":0.1,"workload":"uniform","cycles":800}
EOF
serve_cold="$(mktemp)" serve_hot="$(mktemp)" serve_chaos="$(mktemp)"
./target/release/isa-serve --store "$serve_store" --quiet \
  < "$serve_script" > "$serve_cold"
./target/release/isa-serve --store "$serve_store" --quiet \
  < "$serve_script" > "$serve_hot"
diff "$serve_cold" "$serve_hot"
ISA_SERVE_FAULTS="seed=42,store_read=64,store_write=64,torn=128" \
  ./target/release/isa-serve --store "$serve_store" --quiet \
  < "$serve_script" > "$serve_chaos"
diff "$serve_cold" "$serve_chaos"

echo "==> serve observability out-of-band pass (metrics + tracing on; bytes unchanged)"
# Same invariant as CI's obs step: the metric exposition and span tracing
# must never leak into answers — the streams with observability on (hot,
# and hot under chaos faults) stay byte-identical to the cold pass, and
# the trace folds cleanly through the profiler.
serve_obs="$(mktemp)" serve_obs_chaos="$(mktemp)"
serve_metrics="$(mktemp)" serve_trace="$(mktemp)"
./target/release/isa-serve --store "$serve_store" --quiet \
  --metrics-file "$serve_metrics" --metrics-period-ms 500 \
  --trace "$serve_trace" \
  < "$serve_script" > "$serve_obs"
diff "$serve_cold" "$serve_obs"
ISA_SERVE_FAULTS="seed=42,store_read=64,store_write=64,torn=128" \
  ./target/release/isa-serve --store "$serve_store" --quiet \
  --metrics-file "$serve_metrics" --trace "$serve_trace" \
  < "$serve_script" > "$serve_obs_chaos"
diff "$serve_cold" "$serve_obs_chaos"
cargo run --release -q -p isa-obs --bin trace-summary -- "$serve_trace" >/dev/null
rm -rf "$serve_store" "$serve_script" "$serve_cold" "$serve_hot" "$serve_chaos" \
  "$serve_obs" "$serve_obs_chaos" "$serve_metrics" "$serve_trace"

echo "verify: OK"
