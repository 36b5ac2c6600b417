#!/usr/bin/env bash
# The documents' size ratchet (ROADMAP item 10(c)): fail when DESIGN.md or
# EXPERIMENTS.md outgrows its ceiling. A PR that adds a section takes at
# least as much out; the 10(c) PR lowers the ceilings toward 80 / 40 kB.
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
DESIGN.md 136824
EXPERIMENTS.md 60587
BUDGET
exit $status
