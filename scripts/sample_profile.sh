#!/usr/bin/env bash
# A sampling profiler for a sandbox without perf, gdb or valgrind:
#
#   scripts/sample_profile.sh [--top N] -- CMD ARGS…
#
# runs CMD (the binary itself, not `cargo run`: the shim samples the process
# it is loaded into) under an LD_PRELOAD shim that stores the interrupted
# instruction pointer on every SIGPROF tick, and prints `share  symbol`
# lines — the binary's own symbols through `nm`, one `other:<mapping>` line
# per foreign mapping (libc, vdso). CMD's stdout goes to stderr, so stdout
# is the profile alone. The kernel delivers ITIMER_PROF at its own tick
# (250 Hz here) whatever interval is asked for: ≈ 5 000 samples need 25 s of
# CPU. Build CMD with symbols kept (the release profiles here keep them).
# See .claude/skills/verify/SKILL.md, "Where the time goes".
set -euo pipefail

usage() { echo "usage: $0 [--top N] -- CMD ARGS…" >&2; exit 2; }
top=25
while [ $# -gt 0 ]; do
  case $1 in
    --top) top=$2; shift 2 ;;
    --) shift; break ;;
    *) usage ;;
  esac
done
[ $# -gt 0 ] || usage
command -v gcc >/dev/null || { echo "sample_profile: no gcc here, nothing sampled"; exit 0; }
exe=$(command -v "$1")

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cat > "$dir/shim.c" <<'C'
#define _GNU_SOURCE
#include <elf.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>
#define MAX (1 << 20)
static unsigned long pcs[MAX], n;
static void tick(int sig, siginfo_t *info, void *ctx) {
  unsigned long i = __sync_fetch_and_add(&n, 1);
  if (i < MAX) pcs[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}
__attribute__((constructor)) static void start(void) {
  struct sigaction sa = {.sa_sigaction = tick, .sa_flags = SA_SIGINFO | SA_RESTART};
  struct itimerval every = {{0, 1000}, {0, 1000}};
  sigaction(SIGPROF, &sa, 0);
  setitimer(ITIMER_PROF, &every, 0);
}
/* One line per sample: the address as `nm` prints it (load bias taken off)
   for the main binary, `other:<mapping>` for everything else. */
__attribute__((destructor)) static void dump(void) {
  static struct { unsigned long lo, hi; char path[256]; } maps[4096];
  struct itimerval off = {{0, 0}, {0, 0}};
  char exe[256] = {0}, line[512];
  unsigned long nmaps = 0, bias = 0, i, m;
  FILE *in = fopen("/proc/self/maps", "r"), *out;
  setitimer(ITIMER_PROF, &off, 0);
  snprintf(line, sizeof line, "%s.%d", getenv("SAMPLE_PROFILE_OUT"), getpid());
  out = fopen(line, "w"); /* one file per process: CMD may re-exec itself */
  if (!in || !out || readlink("/proc/self/exe", exe, sizeof exe - 1) < 0) return;
  while (nmaps < 4096 && fgets(line, sizeof line, in)) {
    maps[nmaps].path[0] = 0;
    sscanf(line, "%lx-%lx %*s %*s %*s %*s %255s", &maps[nmaps].lo, &maps[nmaps].hi, maps[nmaps].path);
    nmaps++;
  }
  for (m = 0; m < nmaps && strcmp(maps[m].path, exe); m++) {}
  if (m < nmaps && ((Elf64_Ehdr *)maps[m].lo)->e_type == ET_DYN) bias = maps[m].lo;
  for (i = 0; i < n && i < MAX; i++) {
    for (m = 0; m < nmaps && !(maps[m].lo <= pcs[i] && pcs[i] < maps[m].hi); m++) {}
    if (m < nmaps && !strcmp(maps[m].path, exe)) fprintf(out, "%016lx S\n", pcs[i] - bias);
    else fprintf(out, "other:%s\n", m < nmaps && maps[m].path[0] ? maps[m].path : "[anon]");
  }
  fclose(out);
}
C
gcc -O2 -shared -fPIC -o "$dir/shim.so" "$dir/shim.c"

SAMPLE_PROFILE_OUT="$dir/samples" LD_PRELOAD="$dir/shim.so" "$@" >&2 || echo "sample_profile: $1 exited $?" >&2
cat "$dir"/samples.* > "$dir/samples" 2>/dev/null || true
[ -s "$dir/samples" ] || { echo "sample_profile: no samples (did $1 run for a few ms of CPU?)"; exit 0; }

# Fixed-width hex sorts as numbers do: merge the samples into the symbol
# table and give each one to the nearest symbol at or below it.
{
  nm -C --defined-only -n "$exe" | awk '$2 ~ /^[tTwW]$/ { a = $1; $1 = $2 = ""; print a " N" $0 }'
  grep -v '^other:' "$dir/samples" || true
} | LC_ALL=C sort | awk '$2 == "N" { $1 = $2 = ""; sym = substr($0, 3); next } { print sym }' > "$dir/hits"
grep '^other:' "$dir/samples" >> "$dir/hits" || true
total=$(wc -l < "$dir/hits")
echo "# $total samples of $exe"
sort "$dir/hits" | uniq -c | sort -rn | head -n "$top" |
  awk -v total="$total" '{ n = $1; $1 = ""; printf "%6.2f%% %s\n", 100 * n / total, $0 }'
