#!/usr/bin/env bash
# The threaded executor's flake loops (ROADMAP item 6). Its scheduling bugs
# show as flakes, and only when a test has the process to itself, so:
#
#   unit       each listed `threaded::tests` unit test 50 times, one test per
#              process, on the release library test binary;
#   atomicity  `tests/runtime_atomicity.rs` 50 times as a whole binary —
#              unoptimised, all its tests contending, which is the only place
#              `threaded_wound_wait_keeps_wait_for_acyclic` ever flaked (2-5
#              runs in 100, while wound-wait requesters registered wait-for
#              edges to younger holders; the release binary passed 200/200).
#
# The list: the 2 048-script reproducer of the deadlock-victim livelock
# (fails 20/20 without the wake rule), the deadline clique (its progress
# rests on the wake rule alone), the deadlock and group-commit tests, and the
# attempt accounting and admission wait the shared driver core counts.
#
# Usage: scripts/threaded_loops.sh [unit|atomicity|all]   (default: all)
# The first failure prints its log and exits 1. Run it before and after any
# change to crates/runtime/src/threaded.rs or scheduler.rs.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=50
log=threaded-loop.log
what=${1:-all}

loop_unit() {
  local bin t i
  bin=$(cargo test --release -p ccr-runtime --lib --no-run 2>&1 |
    sed -n 's/.*(\(.*ccr_runtime-[^)]*\)).*/\1/p')
  for t in a_restarted_victim_waits_for_a_commit \
           threaded_uip_commits_everything \
           deadlock_victims_are_woken_not_slept_out \
           cross_object_deadlocks_resolve \
           durable_group_commit_handles_contention_and_deadlocks \
           deadlines_type_the_abort_and_the_clique_still_drains \
           attempt_accounting_identity_holds \
           mpl_serialises_the_crosswise_clique_without_deadlocks; do
    for i in $(seq "$runs"); do
      "$bin" --exact "threaded::tests::$t" > "$log" 2>&1 ||
        { cat "$log"; echo "$t: run $i failed" >&2; exit 1; }
    done
    echo "threaded::tests::$t: $runs/$runs"
  done
}

loop_atomicity() {
  local bin i
  bin=$(cargo test --test runtime_atomicity --no-run 2>&1 |
    sed -n 's/.*(\(.*runtime_atomicity-[^)]*\)).*/\1/p')
  for i in $(seq "$runs"); do
    "$bin" > "$log" 2>&1 ||
      { cat "$log"; echo "runtime_atomicity: run $i failed" >&2; exit 1; }
  done
  echo "runtime_atomicity (whole binary): $runs/$runs"
}

case $what in
  unit) loop_unit ;;
  atomicity) loop_atomicity ;;
  all) loop_unit; loop_atomicity ;;
  *) echo "usage: $0 [unit|atomicity|all]" >&2; exit 2 ;;
esac
