#!/usr/bin/env bash
# Nightly model-checking sweep (DESIGN.md Section 4.4).
#
# The fast `modelcheck` ctest label covers the CI bounds (2 epochs at
# program length 2, 3 epochs at length 1, all mutations, a bisim
# smoke). This script runs the expensive tier on top:
#
#   1. the FULL 3-epoch x k=2 x 2-line bound at program length 2 —
#      every interleaving of every canonical interacting tuple. This
#      is hours of single-core work; it is sharded so interrupted runs
#      resume at shard granularity (completed shards leave their JSON
#      behind and are skipped on re-run);
#   2. a 1000-sample model/machine bisimulation sweep (the acceptance
#      bar for bit-identical schedule replay);
#   3. the three seeded protocol mutations, each of which must be
#      caught at its documented minimal bound;
#   4. the whole-thread (Figure 4(a), no start table) protocol variant
#      at the CI bounds;
#   5. a probe-hash equality check: Figure 5 with --det-probe at
#      --jobs=1 and --jobs=2 over one shared trace cache must produce
#      identical per-stage canonical digests (bench_compare
#      --expect-identical --require-det), the nightly restatement of
#      the `det` ctest label.
#
# Usage: tools/run_modelcheck.sh [BUILD_DIR] [SHARDS]
#   BUILD_DIR  tree containing tools/tlsmc (default: build)
#   SHARDS     shard count for the deep sweep (default: 16)
#
# Results land in BUILD_DIR/modelcheck-nightly/*.json. Exit status 0
# only if every phase passes.

set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build}
shards=${2:-16}
tlsmc=$build/tools/tlsmc
out=$build/modelcheck-nightly
mkdir -p "$out"

if [[ ! -x $tlsmc ]]; then
    echo "run_modelcheck.sh: $tlsmc not found; build the 'tlsmc'" \
         "target first" >&2
    exit 2
fi

echo "=== deep sweep: 3 epochs x k=2 x 2 lines, len=2," \
     "$shards shards ==="
for ((i = 0; i < shards; ++i)); do
    json=$out/sweep_3ep_len2_shard${i}_of_${shards}.json
    if [[ -s $json ]] && grep -q '"status": 0' "$json"; then
        echo "shard $i/$shards: already complete, skipping"
        continue
    fi
    echo "shard $i/$shards..."
    "$tlsmc" --sweep --epochs=3 --k=2 --lines=2 --len=2 \
        --shard="$i/$shards" --progress --json="$json"
done

echo "=== bisimulation: 1000 sampled schedules ==="
"$tlsmc" --bisim --epochs=3 --k=2 --lines=2 --len=3 \
    --samples=1000 --seed=24301 \
    --json="$out/bisim_1000.json"

echo "=== seeded mutations (each must be caught) ==="
"$tlsmc" --mutate=wrong-start-table --epochs=3 --len=2 \
    --json="$out/mutate_wrong_start_table.json"
"$tlsmc" --mutate=missed-secondary --epochs=3 --len=1 \
    --json="$out/mutate_missed_secondary.json"
"$tlsmc" --mutate=premature-recycle --epochs=2 --len=2 \
    --json="$out/mutate_premature_recycle.json"

echo "=== whole-thread (Figure 4(a)) variant at the CI bounds ==="
"$tlsmc" --sweep --whole-thread --epochs=2 --len=2 --cross-check \
    --json="$out/sweep_whole_thread.json"
"$tlsmc" --sweep --whole-thread --epochs=3 --len=1 \
    --json="$out/sweep_whole_thread_3ep.json"

echo "=== determinism: probe-hash equality across --jobs ==="
fig5=$build/bench/bench_figure5_overall
if [[ ! -x $fig5 ]]; then
    echo "run_modelcheck.sh: $fig5 not found; build the" \
         "'bench_figure5_overall' target first" >&2
    exit 2
fi
"$fig5" --quick --txns=3 --jobs=1 --det-probe \
    --trace-cache="$out/det-tc" --json="$out/det_probe_jobs1.json"
"$fig5" --quick --txns=3 --jobs=2 --det-probe \
    --trace-cache="$out/det-tc" --json="$out/det_probe_jobs2.json"
python3 "$root/tools/bench_compare.py" \
    --expect-identical --require-det --quiet \
    "$out/det_probe_jobs1.json" "$out/det_probe_jobs2.json"

echo "=== all modelcheck phases passed; results in $out ==="
