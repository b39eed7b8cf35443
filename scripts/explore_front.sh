#!/usr/bin/env bash
# Explorer pre-filter front identity. Pruning (against certain bounds and
# measured candidates) must never change the Pareto front: the same
# compact-space exploration with and without the pre-filter
# must list byte-identical on-front rows (the CSV's last column is
# on_front). Each pruning decision sees the same references at any
# worker count, so the pre-filtered CSV must also be byte-identical on 1
# and 4 workers. Assumption 1 (error never below its structural bound)
# is gated on both runs; the no-prefilter run simulates every candidate,
# pruned ones included. Untimed — speed is the ledger's job.
#
# Usage: scripts/explore_front.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p isa-experiments

front_dir="$(mktemp -d)"
trap 'rm -rf "$front_dir"' EXIT
for mode in prefilter no-prefilter; do
  flag=""
  [ "$mode" = no-prefilter ] && flag="--no-prefilter"
  ./target/release/explore --space compact \
    --cycles 5000 --threads 1 $flag \
    --csv "$front_dir/$mode.csv" \
    --stats-json "$front_dir/$mode.json" >/dev/null
  grep ',true$' "$front_dir/$mode.csv" > "$front_dir/front-$mode.csv"
done
test -s "$front_dir/front-prefilter.csv"
diff "$front_dir/front-prefilter.csv" "$front_dir/front-no-prefilter.csv"
./target/release/explore --space compact \
  --cycles 5000 --threads 4 \
  --csv "$front_dir/prefilter-4.csv" >/dev/null
cmp "$front_dir/prefilter.csv" "$front_dir/prefilter-4.csv"
# The no-prefilter run has one known violation: (8,1,0,0) at 5 % CPR,
# which the pre-filter prunes, measures 1.1e-6 points below its bound
# (compensating timing errors), while other designs dominate it by far
# more. Any further violation fails.
grep '"assumption1' "$front_dir"/*.json
grep -q '"assumption1_violations": 0,' "$front_dir/prefilter.json"
grep -q '"assumption1_violations": 1,' "$front_dir/no-prefilter.json"
echo "explore front: OK"
