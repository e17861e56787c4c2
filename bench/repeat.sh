#!/usr/bin/env bash
# Repeatability check: run the four workloads twice each, untraced and
# traced, and compare the two sets with `mtasts-bench -compare`. Exit 0
# means every end-to-end metric of every workload agrees within its bound
# and every exact-count metric agrees exactly (ISSUE 11, second
# acceptance criterion). The same tool gives later before/after rows:
# run it on two commits and compare a.json of one with a.json of the
# other.
#
#   bench/repeat.sh [seed]        (about eight minutes on a 2-vCPU box)
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seed="${1:-1}"
out="$root/bench/out"
mkdir -p "$out"
status=0
for w in census selfhosted hosted service_jobs; do
  for trace in 0 1; do
    for side in a b; do
      "$root/bench/run.sh" --workload "$w" --seed "$seed" --seconds 10 --trace "$trace" \
        --out "$out/$w-t$trace-$side.json" >"$out/$w-t$trace-$side.log"
    done
    "$root/.bench_build/mtasts-bench" -compare "$out/$w-t$trace-a.json" "$out/$w-t$trace-b.json" || status=1
  done
done
exit $status
