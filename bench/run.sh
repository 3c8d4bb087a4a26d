#!/usr/bin/env bash
# Builds the ledger once, then runs every workload in a process of its own:
# RUNS untraced runs and one traced run each. Every run's output goes to
# bench/out/$SET/<workload>.s<seed>.r<run>.t<0|1>.json (the result object is
# the last line), which is what `ledger compare` and `ledger baseline` read.
#
#   SEED=1 RUNS=3 bench/run.sh            # three untraced runs + one traced, seed 1
#   SET=after SEED=2 bench/run.sh         # a second set, to compare with the first
#   VARY_SEED=1 RUNS=10 TRACED=0 bench/run.sh   # ten seeds, for `ledger spread`
#   bench/run.sh --smoke                  # small sizes, a few seconds per workload
#
# Environment: SEED (1), RUNS (3), SET (run), VARY_SEED (0: every run uses SEED;
# 1: run r uses SEED+r-1), TRACED (1: also make the traced run). Arguments go
# to every run. Exits non-zero if any run fails its correctness checks.
set -uo pipefail
cd "$(dirname "$0")/.."

seed=${SEED:-1}
runs=${RUNS:-3}
set_name=${SET:-run}
extra=("$@")

cargo build --release --offline --manifest-path bench/Cargo.toml || exit 1
bin="${CARGO_TARGET_DIR:-bench/target}/release/ledger"
out="bench/out/$set_name"
mkdir -p "$out"

status=0
for w in dense64 sparse128 cluster128x2 service16; do
  for r in $(seq 1 "$runs"); do
    s=$seed
    if [ "${VARY_SEED:-0}" = 1 ]; then
      s=$((seed + r - 1))
    fi
    "$bin" --workload "$w" --seed "$s" --trace 0 "${extra[@]}" \
      | tee "$out/$w.s$s.r$r.t0.json" || status=1
  done
  if [ "${TRACED:-1}" = 1 ]; then
    "$bin" --workload "$w" --seed "$seed" --trace 1 "${extra[@]}" \
      | tee "$out/$w.s$seed.r0.t1.json" || status=1
  fi
done
exit $status
