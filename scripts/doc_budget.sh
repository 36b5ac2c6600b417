#!/usr/bin/env bash
# The documents' size ratchet (ROADMAP item 10(c)): fail when DESIGN.md or
# EXPERIMENTS.md outgrows its ceiling, or when the newest CHANGES.md entry
# (its last `PR n:` line to the end of the file) is longer than 10 lines or
# 2 kB. A PR that adds a section takes at least as much out; the 10(c) PR
# lowers the ceilings toward 80 / 40 kB. Older entries are not held to the
# entry limit.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
while read -r file ceiling; do
  size=$(wc -c < "$file")
  if [ "$size" -gt "$ceiling" ]; then
    echo "doc_budget: $file is $size bytes, over its $ceiling-byte ceiling" >&2
    status=1
  fi
done <<'BUDGET'
DESIGN.md 135640
EXPERIMENTS.md 60115
BUDGET

start=$(grep -n '^PR [0-9]*:' CHANGES.md | tail -n 1 | cut -d: -f1)
if [ -n "$start" ]; then
  lines=$(tail -n "+$start" CHANGES.md | wc -l)
  bytes=$(tail -n "+$start" CHANGES.md | wc -c)
  if [ "$lines" -gt 10 ] || [ "$bytes" -gt 2048 ]; then
    echo "doc_budget: the newest CHANGES.md entry is $lines lines and $bytes bytes, over 10 lines or 2048 bytes" >&2
    status=1
  fi
fi
exit $status
