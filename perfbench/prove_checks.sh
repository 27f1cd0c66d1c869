#!/usr/bin/env bash
# Shows that every output check of the benchmark fires: each case corrupts
# one check's input (--corrupt) and expects exit code 2, a
# "CHECK FAILED workload=<w> op=<op> check=<check>" line on stderr, and no
# result line on stdout. Run from the repository root:
#
#   bash perfbench/prove_checks.sh
set -u
cd "$(dirname "$0")/.."

cases=(
  "cold-solve 0 orthonormal"
  "cold-solve 0 bitwise_repeat"
  "cold-solve 0 error_ceiling"
  "cold-solve 0 readback"
  "cold-solve 1 layered_equals_engine"
  "rank-sweep 0 bitwise_repeat"
  "sharded-file 0 sharded_equals_1rank"
  "serve-mixed 0 query_bitwise"
  "serve-mixed 0 executed_count"
)

mkdir -p .bench_build
err=.bench_build/prove_checks.err
status=0
for c in "${cases[@]}"; do
  read -r workload trace check <<<"$c"
  out=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
        --trace "$trace" --corrupt "$check" 2>"$err")
  code=$?
  line=$(grep -m1 "^CHECK FAILED workload=$workload .*check=$check" \
         "$err")
  if [[ $code -eq 2 && -n "$line" && -z "$out" ]]; then
    echo "fires: $line"
  else
    echo "DID NOT FIRE: $workload --corrupt $check (exit $code)"
    status=1
  fi
done
rm -f "$err"
exit $status
