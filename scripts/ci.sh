#!/bin/sh
# Tier-1 gate: build, static lint with its ratchet, full test suite with
# runtime lock-order capture, a seeded fault-injection torture smoke
# run, and finally the static/runtime lock-graph reconciliation. The
# torture suite drives the journalfs stack through Flakydev faults under
# fixed seeds and checks that every crash/recovery lands in a
# spec-allowed state — it must stay green before any merge.
set -eu
cd "$(dirname "$0")/.."

echo "== ci: dune build =="
dune build

echo "== ci: klint (static safety-ladder lint) =="
dune build @lint

echo "== ci: klint baseline ratchet =="
# The baseline may only shrink: a commit adding entries (new suppressed
# findings) fails here.  Deliberate growth (e.g. a new checked exhibit)
# must be acknowledged with ALLOW_BASELINE_GROWTH=1.
# The comparison itself (per (rule, file) count, so pure renumbering
# from unrelated edits in the same file is never growth) lives in
# klint's shared Baseline.Counts engine — the same code the tcb and dur
# ratchets run — via --baseline-head; this stage only digs the HEAD
# copy out of git.
mkdir -p _build
if git rev-parse --verify -q HEAD >/dev/null 2>&1 \
   && git cat-file -e HEAD:klint.baseline 2>/dev/null; then
  git show HEAD:klint.baseline > _build/baseline-head.txt
  if [ "${ALLOW_BASELINE_GROWTH:-0}" = "1" ]; then
    dune exec bin/klint/main.exe -- --root . --baseline-head _build/baseline-head.txt \
      --allow-baseline-growth
  else
    dune exec bin/klint/main.exe -- --root . --baseline-head _build/baseline-head.txt
  fi
else
  echo "ci: no HEAD baseline to ratchet against (first commit?); skipping"
fi

echo "== ci: tcb ratchet (unsafe-TCB counts may only shrink) =="
# The framekernel ratchet: R12-R14 counts per (rule, file) are compared
# against tcb.baseline inside klint itself — count-based, so renumbering
# from unrelated edits is never growth.  A genuine new exhibit must be
# acknowledged with ALLOW_TCB_GROWTH=1 (and then --update-tcb-baseline).
if [ "${ALLOW_TCB_GROWTH:-0}" = "1" ]; then
  dune exec bin/klint/main.exe -- --root . --tcb-baseline tcb.baseline --allow-tcb-growth
else
  dune exec bin/klint/main.exe -- --root . --tcb-baseline tcb.baseline
fi

echo "== ci: dur ratchet (R16-R18 durability counts may only shrink) =="
# The barrier-discipline ratchet: kdur's R16-R18 counts per (rule, file)
# are compared against dur.baseline inside klint (the same Counts engine
# as the tcb ratchet).  The grandfathered entries are the declared
# exhibits — the journal's ?barriers:false ablation paths and
# lib/kfs/rawlog_unsafe.ml; a genuine new exhibit must be acknowledged
# with ALLOW_DUR_GROWTH=1 (and then --update-dur-baseline).
if [ "${ALLOW_DUR_GROWTH:-0}" = "1" ]; then
  dune exec bin/klint/main.exe -- --root . --dur-baseline dur.baseline --allow-dur-growth
else
  dune exec bin/klint/main.exe -- --root . --dur-baseline dur.baseline
fi

# Every test binary from here on appends the lock-order edges it
# observed to this file; kracer checks them against its static graph at
# the end.  --force so cached (skipped) tests cannot leave holes.
LOCKDEP_EDGES="$(pwd)/_build/lockdep-edges.txt"
rm -f "$LOCKDEP_EDGES"
export KSIM_LOCKDEP_EXPORT="$LOCKDEP_EDGES"

# Likewise for heap events (use-after-free, double-free, leak sites):
# kown checks at the end that everything the tests observed at runtime
# was already flagged statically.
KMEM_EVENTS="$(pwd)/_build/kmem-events.txt"
rm -f "$KMEM_EVENTS"
export KSIM_KMEM_EXPORT="$KMEM_EVENTS"

# And for barrier-discipline violations: every Wcache audit hit the
# tests provoke is dumped here, and kdur checks at the end that each one
# (in a linted file) was already flagged as a static R16.
WCACHE_VIOLATIONS="$(pwd)/_build/wcache-violations.txt"
rm -f "$WCACHE_VIOLATIONS"
export KSIM_WCACHE_EXPORT="$WCACHE_VIOLATIONS"

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

echo "== ci: refine smoke (krefine harnesses vs Fs_spec, coverage ratchet) =="
# Every registered kharness machine (journalfs, cowfs, the supervised
# microreboot path) replays a kload-recorded trace in lockstep with
# Fs_spec, enumerating crash images at every op (safeos refine's default
# cadence).  Any divergence fails
# the run; the coverage the pass produced is then ratcheted against
# refine.baseline inside klint (R15 keeps "Verified" registry claims
# honest even when this stage is skipped).  KSIM_REFINE_SEEDS widens the
# seed set, same hook style as KSIM_TORTURE_SEEDS; a deliberate coverage
# reduction must be acknowledged with ALLOW_REFINE_REGRESS=1 (and then
# --update-refine-baseline).
REFINE_COVERAGE="$(pwd)/_build/refine-coverage.txt"
rm -f "$REFINE_COVERAGE"
refine_seed="${KSIM_REFINE_SEEDS:-11}"
refine_seed="${refine_seed%%,*}"
dune exec bin/safeos.exe -- refine --all --seed "$refine_seed" --ops 4000 \
  --crash-every 1 --images 4 --coverage-out "$REFINE_COVERAGE" > /dev/null \
  || { echo "ci: FAIL — a krefine harness diverged from Fs_spec" >&2; exit 1; }
KSIM_REFINE_SEEDS="${KSIM_REFINE_SEEDS:-11}" dune exec test/test_krefine.exe -- test harnesses
if [ "${ALLOW_REFINE_REGRESS:-0}" = "1" ]; then
  dune exec bin/klint/main.exe -- --root . --refine-coverage "$REFINE_COVERAGE" \
    --refine-baseline refine.baseline --allow-refine-regress
else
  dune exec bin/klint/main.exe -- --root . --refine-coverage "$REFINE_COVERAGE" \
    --refine-baseline refine.baseline
fi

echo "== ci: lock-graph reconciliation (static vs runtime) =="
if [ -s "$LOCKDEP_EDGES" ]; then
  dune exec bin/klint/main.exe -- --root . --lockdep-edges "$LOCKDEP_EDGES"
else
  echo "ci: FAIL — no runtime lock edges were exported; the capture is broken" >&2
  exit 1
fi

echo "== ci: kmem reconciliation (static vs runtime heap events) =="
if [ -s "$KMEM_EVENTS" ]; then
  dune exec bin/klint/main.exe -- --root . --kmem-events "$KMEM_EVENTS"
else
  echo "ci: FAIL — no runtime kmem events were exported; the capture is broken" >&2
  exit 1
fi

echo "== ci: wcache reconciliation (static vs runtime barrier violations) =="
# The durability closure: the rawlog_unsafe reconciliation fixture in
# test_wcache guarantees at least one named-cache violation lands here,
# so an empty file means the export hook (or the fixture) is broken —
# vacuous soundness is a fail, exactly like the lockdep/kmem stages.
if [ -s "$WCACHE_VIOLATIONS" ]; then
  dune exec bin/klint/main.exe -- --root . --wcache-violations "$WCACHE_VIOLATIONS"
else
  echo "ci: FAIL — no runtime wcache violations were exported; the capture is broken" >&2
  exit 1
fi

echo "== ci: bench result validation =="
# Every persisted BENCH_*.json must parse and carry the claim schema
# (group, claims, numbers) — a malformed snapshot fails fast instead of
# silently dropping out of the paper's evidence trail.
dune exec bench/main.exe -- --validate

echo "== ci: ok =="
