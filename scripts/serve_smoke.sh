#!/usr/bin/env bash
# Serve smoke test on the released binary: the same request script three
# times against one store directory — cold (computes + persists), hot
# (served from the store), and hot under injected store faults. All
# three response streams must be byte-identical: the store and the fault
# paths may change *how* an answer is produced, never the answer.
#
# Then the observability out-of-band pass: the same script with the
# metric exposition and span tracing enabled — hot, and hot under the
# chaos fault plan — must produce response streams byte-identical to the
# plain cold pass, and the trace has to fold cleanly through the
# profiler.
#
# Usage: scripts/serve_smoke.sh
#
# The store, response streams, metrics and traces stay in
# target/serve-smoke/ (CI uploads them), emptied at the start so the
# cold pass starts from an empty store.
set -euo pipefail
cd "$(dirname "$0")/.."

out=target/serve-smoke
rm -rf "$out"
mkdir -p "$out"
store="$out/serve-store"
script="$out/serve-script.ldjson"

cargo build --release -q -p isa-serve

cat > "$script" <<'EOF'
{"id":1,"op":"ping"}
{"id":2,"op":"quality","design":"8,2,1,4","cpr":0.0,"workload":"uniform","cycles":2000}
{"id":3,"op":"quality","design":"8,2,1,4","cpr":0.2,"workload":"uniform","cycles":2000}
{"id":4,"op":"quality","design":"8,1,1,4","cpr":0.1,"workload":"walk","cycles":2000}
{"id":5,"op":"quality","design":"exact","cpr":0.1,"workload":"sine","cycles":2000}
{"id":6,"op":"quality","design":"8,2,1,4","cpr":0.1,"workload":"fir","scale":1}
{"id":7,"op":"cheapest","min_quality_db":30,"cpr":0.1,"workload":"uniform","cycles":2000}
EOF

echo "==> serve cold/hot/chaos byte-identity"
./target/release/isa-serve --store "$store" --quiet \
  < "$script" > "$out/serve-cold.out"
./target/release/isa-serve --store "$store" --quiet \
  < "$script" > "$out/serve-hot.out"
diff "$out/serve-cold.out" "$out/serve-hot.out"
ISA_SERVE_FAULTS="seed=42,store_read=64,store_write=64,torn=128" \
  ./target/release/isa-serve --store "$store" --quiet \
  < "$script" > "$out/serve-chaos.out"
diff "$out/serve-cold.out" "$out/serve-chaos.out"

echo "==> serve observability out-of-band pass (metrics + tracing on)"
./target/release/isa-serve --store "$store" --quiet \
  --metrics-file "$out/serve-metrics.prom" --metrics-period-ms 500 \
  --trace "$out/serve-trace.jsonl" \
  < "$script" > "$out/serve-obs.out"
diff "$out/serve-cold.out" "$out/serve-obs.out"
ISA_SERVE_FAULTS="seed=42,store_read=64,store_write=64,torn=128" \
  ./target/release/isa-serve --store "$store" --quiet \
  --metrics-file "$out/serve-metrics-chaos.prom" \
  --trace "$out/serve-trace-chaos.jsonl" \
  < "$script" > "$out/serve-obs-chaos.out"
diff "$out/serve-cold.out" "$out/serve-obs-chaos.out"
cargo run --release -q -p isa-obs --bin trace-summary -- "$out/serve-trace.jsonl"
echo "serve smoke: OK"
