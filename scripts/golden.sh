#!/usr/bin/env bash
# Golden-figures check: runs the experiment binaries at small fixed counts
# (fixed seeds, the one gate-level path), plus `fig7` at the production
# training size (8,000 cycles, deep enough for tree growth to re-pack
# fragmented nodes), on 1 and on 4 worker threads and diffs every CSV
# against the checked-in goldens under tests/golden/, so simulation
# refactors cannot silently change paper numbers and every binary stays
# thread-count invariant (one run is the engine's unit of
# parallelism). `all_figures` then runs every pipeline on one shared
# engine at 1 and 4 threads: its two CSV sets must be identical, and the
# three CSVs whose counts equal the single-binary commands must equal
# their goldens.
#
# Usage:
#   scripts/golden.sh           # verify against tests/golden/
#   scripts/golden.sh --update  # regenerate tests/golden/ from the 1-thread run
#                               # (all_figures is not run)
#   OUTDIR=path scripts/golden.sh  # also keep the produced CSVs (4-thread
#                                  # copies under path/threads-4/,
#                                  # all_figures under path/all_figures/)
# Without OUTDIR the CSVs go to a temporary directory, removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN_DIR=tests/golden
if [[ -z "${OUTDIR:-}" ]]; then
  OUTDIR="$(mktemp -d)"
  trap 'rm -rf "$OUTDIR"' EXIT
fi
mkdir -p "$OUTDIR/threads-4"

echo "==> building release binaries"
# -p isa-experiments: the experiment binaries live there, and a plain
# root-package build does not produce dependency crates' binaries.
cargo build --release -q -p isa-experiments

run() {
  local name="$1"
  shift
  echo "==> $name"
  "$@" --threads 1 --csv "$OUTDIR/$name.csv" >/dev/null
  "$@" --threads 4 --csv "$OUTDIR/threads-4/$name.csv" >/dev/null
}

run design_table ./target/release/design_table --samples 4000
run fig9 ./target/release/fig9 --cycles 400
run fig7_fig8 ./target/release/fig7 --train 400 --test 200
run fig7_fig8_train8000 ./target/release/fig7 --train 8000 --test 1000
run fig10 ./target/release/fig10 --cycles 600
run energy ./target/release/energy_table --cycles 300
run guardband ./target/release/guardband --cycles 400
run workloads ./target/release/workloads --cycles 400
run apps ./target/release/apps --scale 1
run explore ./target/release/explore --space paper --cycles 400

if [[ "${1:-}" == "--update" ]]; then
  mkdir -p "$GOLDEN_DIR"
  cp "$OUTDIR"/*.csv "$GOLDEN_DIR"/
  echo "golden: updated $GOLDEN_DIR"
  exit 0
fi

echo "==> all_figures"
for threads in 1 4; do
  ./target/release/all_figures --cycles 400 --train 400 --test 200 --samples 4000 \
    --threads "$threads" --outdir "$OUTDIR/all_figures/threads-$threads" >/dev/null
done

status=0
for f in "$OUTDIR"/*.csv "$OUTDIR"/threads-4/*.csv; do
  name="$(basename "$f")"
  if ! diff -u "$GOLDEN_DIR/$name" "$f"; then
    echo "golden: MISMATCH in $f"
    status=1
  fi
done
if ! diff -ru "$OUTDIR/all_figures/threads-1" "$OUTDIR/all_figures/threads-4"; then
  echo "golden: MISMATCH between all_figures at 1 and 4 threads"
  status=1
fi
for name in design_table fig9 fig7_fig8; do
  if ! diff -u "$GOLDEN_DIR/$name.csv" "$OUTDIR/all_figures/threads-1/$name.csv"; then
    echo "golden: MISMATCH in all_figures $name.csv"
    status=1
  fi
done
if [[ $status -eq 0 ]]; then
  echo "golden: OK"
else
  echo "golden: FAILED — if the change is intentional, run scripts/golden.sh --update"
fi
exit $status
