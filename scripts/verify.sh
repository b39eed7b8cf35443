#!/usr/bin/env bash
# Mirrors CI exactly — the same checks, in the same order, as
# .github/workflows/ci.yml — so local verify and CI cannot disagree:
#   lint    -> fmt + clippy -D warnings
#   test    -> release build, tier-1 tests, workspace tests, ledger
#              self-tests
#   docs    -> rustdoc with warnings denied
#   netlint -> full-grid netlist/timing static analysis (fails on Error)
#   prove   -> symbolic equivalence + false-path STA proofs (fails on any)
#   miri    -> LaneBatch pack/transpose tests under Miri (when installed)
#   golden  -> experiment CSVs diffed against tests/golden/
#   serve   -> chaos battery + cold/hot/chaos byte-identity + observability
#              out-of-band pass (metrics + tracing on, bytes unchanged) +
#              store gate with exposition schema check
#   bench   -> backend speedup gates (plus criterion when a registry is up)
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

echo "==> wide-tape feature tests (isa-netlist + isa-timing-sim)"
cargo test -q -p isa-netlist --features wide-tape
cargo test -q -p isa-timing-sim --features wide-tape

echo "==> cargo doc --workspace --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "==> netlint sweep (12 seeds + full width-32 quadruple grid)"
# Same sweep as CI's netlint job: every feasible design through the full
# lint pipeline; the binary exits non-zero on any Error-severity finding.
cargo run --release -q -p isa-experiments --bin netlint

echo "==> prove sweep (12 seeds at 32 bits + width-16 quadruple grid)"
# Same sweep as CI's prove job: full symbolic equivalence proofs and
# false-path STA on every feasible design; exits non-zero on any failed
# proof.
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

echo "==> golden figures (scripts/golden.sh)"
scripts/golden.sh

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

echo "==> serve hot-store speedup gate (serve_bench, reduced counts; CI gates 5x at BENCH_PR10.json counts)"
# --metrics-file doubles as the exposition schema check: serve_bench
# re-parses what it wrote and exits non-zero on any malformation.
bench_metrics="$(mktemp)"
cargo run --release -q -p isa-serve --bin serve_bench -- \
  --cycles 1500 --designs 3 --repeat 2 --min-hot-speedup 5 \
  --metrics-file "$bench_metrics" >/dev/null
rm -f "$bench_metrics"

# CI's test job also compiles the criterion bench crate and its bench job
# runs the microbenchmarks; both need a crate registry, which offline
# build environments lack. Skip only genuine dependency-resolution
# failures; real compile errors must fail here exactly as they fail CI.
echo "==> bench crate check"
bench_log="$(mktemp)"
if cargo check -q --manifest-path crates/bench/Cargo.toml --benches 2>"$bench_log"; then
  echo "==> bench crate check: OK"
elif grep -qiE "failed to get|registry|network|dns error|download" "$bench_log"; then
  echo "==> bench crate check: SKIPPED (no registry; CI runs it)"
else
  cat "$bench_log" >&2
  echo "==> bench crate check: FAILED (not a registry problem)" >&2
  rm -f "$bench_log"
  exit 1
fi
rm -f "$bench_log"

echo "==> backend speedup gates (bench_backends, reduced counts, warmup + best-of-3)"
# Same triple gates as CI's bench job — tape vs filtered on the
# gate-level pipelines, filtered vs bit-sliced, and bit-sliced vs
# scalar — but at reduced counts so a speedup-destroying change fails
# in seconds locally. The suite-level thresholds are lower than CI's
# because forest fitting and synthesis (backend-common) dominate small
# suites; CI enforces 1.5x at the BENCH_PR6.json reference counts
# (--cycles 100000), where gate-level simulation dominates. The tape
# gate is already scoped to fig9+fig10, so it holds at small counts.
cargo run --release -q -p isa-experiments --bin bench_backends -- \
  --cycles 20000 --train 2000 --test 1000 --samples 100000 \
  --min-speedup 1.1 --min-tape-speedup 1.3 >/dev/null

echo "==> explorer pre-filter gate (reduced counts; CI gates 1.3x at BENCH_PR5.json counts)"
# Same dual checks as CI's explorer step — pre-filter speedup on the
# bit-sliced backend plus front equality with and without pruning — at
# reduced cycles so it finishes in seconds.
cargo run --release -q -p isa-experiments --bin explore -- \
  --space compact --strategy exhaustive --cycles 5000 --seed 7 \
  --backend bitsliced --bench-json "$(mktemp)" --repeats 1 \
  --min-prefilter-speedup 1.1 >/dev/null

echo "verify: OK"
