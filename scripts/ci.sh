#!/bin/sh
# Tier-1 gate: build, full test suite with runtime lock-order, heap and
# barrier-violation capture into one facts file, a seeded fault-injection
# torture smoke run, the refine smoke, and finally one klint run: the
# static lint, every section of the ratchet, and the static/runtime
# reconciliations. The
# torture suite drives the journalfs stack through Flakydev faults under
# fixed seeds and checks that every crash/recovery lands in a
# spec-allowed state — it must stay green before any merge.
set -eu
cd "$(dirname "$0")/.."

echo "== ci: dune build =="
dune build

# Every test binary from here on appends its runtime facts to this one
# file on exit (Ksim.Ktrace's sink): the lock-order edges lockdep
# observed, the heap events (use-after-free, double-free, leak sites)
# and the Wcache barrier-discipline violations.  klint checks at the end
# that kracer, kown and kdur had already seen each one statically.
# --force so cached (skipped) tests cannot leave holes.
RUNTIME_EVENTS="$(pwd)/_build/runtime-events.txt"
rm -f "$RUNTIME_EVENTS"
export KSIM_TRACE="$RUNTIME_EVENTS"

echo "== ci: dune runtest =="
dune runtest --force

echo "== ci: torture smoke (seeded fault schedules) =="
dune exec test/test_torture.exe

echo "== ci: torture extra seeds (supervision escalation gate) =="
# Three extra seeds beyond the checked-in ones.  The supervised torture
# scenarios fail the whole run if any seed drives the mount supervisor
# into an unexpected Failed escalation instead of a clean microreboot.
KSIM_TORTURE_SEEDS="101,202,303" dune exec test/test_torture.exe

echo "== ci: wcache cache-loss torture (volatile disk contract) =="
# Seeded cache-loss torture: journalfs over the volatile write-back
# cache with writeback reordering forced on, every crash residue
# materialized and journal-replay remounted, acked versions gated
# against the barrier floor — plus the registered harnesses re-verified
# over the same hostile disk.  KSIM_WCACHE_SEEDS widens the seed set
# (same hook style as KSIM_TORTURE_SEEDS).
KSIM_WCACHE_SEEDS="${KSIM_WCACHE_SEEDS:-5,17}" dune exec test/test_wcache.exe -- test torture

echo "== ci: kload smoke (multi-tenant storm, recovery-SLO gate) =="
# ~500 tenants of mixed traffic with a mid-run panic storm.  The SLO
# gate is the exit code: p99 oops->healthy within bound, bounded error
# streaks, zero lost acknowledged writes, no uncontained tenant crash.
dune exec bin/safeos.exe -- load --tenants 500 --storm mixed --seed 42 > /dev/null \
  || { echo "ci: FAIL — kload smoke violated the recovery SLO" >&2; exit 1; }

echo "== ci: kload extra seeds =="
# KSIM_KLOAD_SEEDS / KSIM_KLOAD_TENANTS widen the seeded population the
# alcotest kload suite runs (same hook style as KSIM_TORTURE_SEEDS).
KSIM_KLOAD_SEEDS="${KSIM_KLOAD_SEEDS:-7,101}" dune exec test/test_kload.exe -- test harness 3

echo "== ci: refine smoke (krefine harnesses vs Fs_spec) =="
# Every registered kharness machine (journalfs, cowfs, the supervised
# microreboot path) replays a kload-recorded trace in lockstep with
# Fs_spec, enumerating crash images at every op (safeos refine's default
# cadence).  Any divergence fails the run; the coverage the pass
# produced is judged against the ratchet's [refine-floors] in the klint
# stage below (R15 keeps "Verified" registry claims honest even when
# this stage is skipped).  KSIM_REFINE_SEEDS widens the seed set, same
# hook style as KSIM_TORTURE_SEEDS.
REFINE_COVERAGE="$(pwd)/_build/refine-coverage.txt"
rm -f "$REFINE_COVERAGE"
refine_seed="${KSIM_REFINE_SEEDS:-11}"
refine_seed="${refine_seed%%,*}"
dune exec bin/safeos.exe -- refine --all --seed "$refine_seed" --ops 10000 \
  --crash-every 1 --images 4 --coverage-out "$REFINE_COVERAGE" > /dev/null \
  || { echo "ci: FAIL — a krefine harness diverged from Fs_spec" >&2; exit 1; }
KSIM_REFINE_SEEDS="${KSIM_REFINE_SEEDS:-11}" dune exec test/test_krefine.exe -- test harnesses

echo "== ci: klint (lint, ratchet, static/runtime reconciliations) =="
# klint fails the run when the file holds no fact of some kind: an empty
# capture would make that reconciliation pass vacuously.  The
# rawlog_unsafe fixture in test_wcache guarantees at least one named-cache
# barrier violation.
set -- --root . --refine-coverage "$REFINE_COVERAGE" --runtime-events "$RUNTIME_EVENTS"
# The head copy ratchet.baseline is judged against: HEAD's when the
# working file differs from it (an uncommitted change), else HEAD~1's
# (the change the checked-out commit made).
RATCHET_HEAD="$(pwd)/_build/ratchet-head.txt"
if git cat-file -e HEAD:ratchet.baseline 2>/dev/null \
   && ! git show HEAD:ratchet.baseline | cmp -s - ratchet.baseline; then
  git show HEAD:ratchet.baseline > "$RATCHET_HEAD"
  set -- "$@" --ratchet-head "$RATCHET_HEAD"
elif git cat-file -e HEAD~1:ratchet.baseline 2>/dev/null; then
  git show HEAD~1:ratchet.baseline > "$RATCHET_HEAD"
  set -- "$@" --ratchet-head "$RATCHET_HEAD"
else
  echo "ci: no committed ratchet.baseline to compare against; skipping the head check"
fi
# A deliberate loosening (a new exhibit, a dropped harness) must be
# acknowledged with ALLOW_RATCHET_CHANGE=1, then written with
# --update-ratchet --allow-ratchet-change.
if [ "${ALLOW_RATCHET_CHANGE:-0}" = "1" ]; then
  set -- "$@" --allow-ratchet-change
fi
dune exec bin/klint/main.exe -- "$@"

echo "== ci: bench result validation =="
# Every persisted BENCH_*.json must parse and carry the claim schema
# (group, claims, numbers) — a malformed snapshot fails fast instead of
# silently dropping out of the paper's evidence trail.
dune exec bench/main.exe -- --validate

echo "== ci: ok =="
