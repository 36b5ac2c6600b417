#!/usr/bin/env bash
# Same-seed verdict goldens: one line `sha256  exit-code  command` per
# invocation of a fixed list, kept in reports/GOLDEN_verdicts.txt.
#
#   scripts/golden.sh write [BIN]   regenerate the file (only with an
#                                   explained diff — see DESIGN.md §9)
#   scripts/golden.sh check [BIN]   run the list and diff against the file
#
# BIN defaults to target/release/ccr-experiments (build it first). The hash
# covers stdout only; status chatter goes to stderr. A refactor that is
# meant to keep behaviour must leave the file untouched.
set -u
mode="${1:-}"
bin="${2:-target/release/ccr-experiments}"
golden="$(dirname "$0")/../reports/GOLDEN_verdicts.txt"

if [ ! -x "$bin" ]; then
  echo "golden.sh: $bin not found (cargo build --release -p ccr-workload --bin ccr-experiments)" >&2
  exit 2
fi

commands() {
  # Tear arms: every correct combo under every conflict policy on the WAL
  # backend, per-commit and group-commit. The event index is where a
  # freshly flushed commit is on the platter for that cell (the tear lands
  # instead of degrading to a plain crash); the later arms fire in the
  # cells whose run is long enough to reach them.
  for combo in uip-nrbc du-nfc escrow-uip-nrbc escrow-du-nfc; do
    case "$combo" in
      escrow-*) shape="--objects 2 --ckpt 4"; at=26 ;;
      *) shape="--objects 4 --ckpt 4"; at=24 ;;
    esac
    for policy in block:sect1 wound:reorder nowait:torn2; do
      echo "sim --combo $combo --policy ${policy%:*} --seed 7 $shape --backend disk --faults $at:${policy#*:},40:flip4093,50:io3,58:full --json"
      echo "sim --combo $combo --policy ${policy%:*} --seed 7 $shape --backend disk --group-commit --faults 31:${policy#*:},40:flip4093,50:io3,58:full --json"
    done
  done
  # Device arms (retry, degrade, heal, detected flip) and the mem backend,
  # which tears at operation granularity and degrades the rest to crashes.
  echo "sim --combo uip-nrbc --seed 3 --backend disk --faults 8:io3,14:full,22:flip4093,28:crash --json"
  echo "sim --combo du-nfc --seed 3 --backend disk --group-commit --faults 8:io3,14:full,22:flip4093,28:crash --json"
  echo "sim --combo escrow-uip-nrbc --seed 3 --backend disk --faults 8:io3,14:full,22:flip4093,28:crash --json"
  echo "sim --combo escrow-du-nfc --seed 3 --backend disk --group-commit --faults 8:io3,14:full,22:flip4093,28:crash --json"
  echo "sim --combo uip-nrbc --policy wound --seed 7 --objects 4 --ckpt 4 --backend mem --faults 24:torn1,30:sect1,36:io3 --json"
  echo "sim --combo du-nfc --policy nowait --seed 7 --objects 4 --ckpt 4 --backend mem --group-commit --faults 31:torn1,36:sect1,40:io3 --json"
  echo "sim --combo escrow-uip-nrbc --seed 7 --objects 2 --ckpt 4 --backend mem --group-commit --faults 28:torn1,40:sect1,50:io3 --json"
  echo "sim --combo escrow-du-nfc --seed 7 --objects 2 --ckpt 4 --backend mem --faults 28:torn1,40:sect1,50:io3 --json"
  # Gray channels with the convergence leg armed.
  for combo in uip-nrbc du-nfc escrow-uip-nrbc escrow-du-nfc; do
    echo "sim --combo $combo --seed 5 --backend disk --group-commit --gray --fault-during-recovery --faults 18:slow3,26:stall2,36:io3,60:crash --json"
  done
  # Sweeps: storage, recovery convergence, protected gray.
  echo "sim --combo uip-nrbc --backend disk --sweep 8 --json"
  echo "sim --combo du-nfc --backend disk --group-commit --fault-during-recovery --sweep 8 --json"
  echo "sim --combo escrow-uip-nrbc --backend disk --group-commit --gray --mpl 4 --deadline 50 --max-staged 2 --stall-threshold 64 --sweep 8 --json"
  echo "sim --combo escrow-du-nfc --backend mem --gray --sweep 8 --json"
  # The weakened pairing must fail (exit 1) with the same shrunk reproducer.
  echo "sim --combo uip-sym-nfc --sweep 16 --json"
  # Sharded 2PC.
  for shards in 2 3; do
    for gc in "" " --group-commit"; do
      echo "sim --combo uip-nrbc --seed 7 --shards $shards --2pc-crash$gc --faults 3:shards1,7:twopc2,11:crash,15:twopc3 --json"
    done
    echo "sim --combo uip-nrbc --shards $shards --2pc-crash --sweep 8 --json"
  done
  echo "sim --combo uip-nrbc --backend mem --shards 2 --2pc-crash --sweep 8 --json"
  echo "sim --combo uip-nrbc --shards 2 --lose-decision --json"
  # Tracer, profiler and inspector artefacts.
  echo "trace --combo uip-nrbc --seed 7 --faults 12:crash,30:torn2"
  echo "trace --combo uip-nrbc --seed 7 --objects 4 --ckpt 4 --faults 18:sect1,30:flip4093 --out /dev/null --metrics /dev/stdout"
  echo "trace --combo du-nfc --seed 3 --group-commit --faults 16:full,30:io3,45:crash --out /dev/null --metrics /dev/stdout"
  echo "profile --combo uip-nrbc --seed 7 --group-commit --faults 12:crash,30:torn2 --out /dev/stdout"
  echo "inspect --combo uip-nrbc --seed 7 --group-commit --faults 12:crash,30:torn2 --check --out /dev/stdout"
  # Model checker: state counts are part of the verdict.
  for backend in mem disk; do
    for gc in "" " --group-commit"; do
      echo "mc --txns 2 --objects 2 --crash-budget 2 --backend $backend$gc --json"
    done
    echo "mc --txns 2 --objects 2 --crash-budget 2 --backend $backend --shards 2 --json"
  done
  echo "mc --backend disk --mutate skip-epoch-bump --json"
  echo "mc --backend disk --shards 2 --mutate lose-decision --json"
  # Closed oracle findings (ROADMAP items 7 and 8), appended in PR 16: a
  # gtid reissued after a fleet crash, and three histories that restart
  # from a checkpoint image (crash, degrade-rebuild, storage tear).
  echo "sim --combo uip-nrbc --seed 0 --txns 8 --skip 6,7 --shards 3 --faults 9:crash --json"
  echo "sim --combo uip-nrbc --policy wound --seed 7 --txns 16 --objects 4 --ckpt 4 --faults 78:crash --json"
  echo "sim --combo du-nfc --seed 5 --group-commit --faults 25:full,53:crash --json"
  echo "sim --combo escrow-uip-nrbc --seed 7 --objects 4 --ckpt 4 --faults 24:sect1,40:flip4093 --json"
}

run_all() {
  commands | while IFS= read -r args; do
    # shellcheck disable=SC2086  # word splitting of the argument list is the point
    sum=$("$bin" $args 2>/dev/null | sha256sum | cut -d' ' -f1; exit "${PIPESTATUS[0]}")
    code=$?
    printf '%s  %s  ccr-experiments %s\n' "$sum" "$code" "$args"
  done
}

case "$mode" in
  write)
    run_all > "$golden"
    echo "golden.sh: wrote $(wc -l < "$golden") lines to $golden" >&2
    ;;
  check)
    if run_all | diff "$golden" -; then
      echo "golden.sh: $(wc -l < "$golden") verdicts byte-identical" >&2
    else
      echo "golden.sh: verdicts differ from $golden" >&2
      exit 1
    fi
    ;;
  *)
    echo "usage: $0 {write|check} [path-to-ccr-experiments]" >&2
    exit 2
    ;;
esac
