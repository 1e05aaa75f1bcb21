#!/usr/bin/env bash
# Coverage gate for the packages carrying the locking and optimistic-epoch
# machinery, for the containers whose entries hold the inline key slots,
# for the planner that decides which stripes every operation locks, and
# for the representations the autotuner enumerates and ranks:
# fail when statement coverage drops below the committed floor.
# The floors were set a couple of points under the measured coverage at the
# time they were last raised (core 87.7%, locks 91.8%, after the mixed-batch
# OCC commit path landed with its retry/fallback/self-hold suites), so
# routine changes don't flake but untested additions to the epoch/validation
# protocol fail loudly. Last re-measured at core 87.3%, locks 89.8%,
# container 98.9–99.1%, query 77.9%, after the single-relation commit bodies
# were deleted and Relation.Batch began running the shard-list bodies
# (core floor raised 85.5 → 86.0). The wire packages joined when the
# request scanner and reply codec replaced encoding/json on the crsd path,
# measured at server 90.4%, client 61.4%, wirejson 86.9%. The value
# package joined when the TreeMap began ordering its nodes by rel.OrderWord,
# measured at rel 79.1%, container 99.2% with the B-tree in place of the
# red-black tree. Re-measured when the plan caches became one plan table
# per representation: core 87.3% → 87.6% (floor raised 86.0 → 86.2),
# server 90.2% → 90.0% (its statement catalog went; floor kept).
# Re-measured when every plan outside a batch's growing phase became one
# straight walker and batch speculative scans got a differential: core
# 87.6% → 89.2% (floor raised 86.2 → 87.8). Re-measured when the three
# batch commit bodies became one commit pipeline with a commit stamp:
# core 89.2% → 89.5% (floor raised 87.8 → 88.1), server 89.7% → 90.1%
# (floor raised 88.5 → 88.6). The WAL joined when snapshot restore and
# migration backfill moved onto the one redo rule, measured at wal 82.6%
# (83.0% before the per-FD restore split was deleted; core 89.6%, server
# 90.3–90.5%, floors kept). Re-measured when lock identities became
# order words: locks 90.4% → 91.3% (floor raised 89.5 → 90.4), rel
# 79.1% → 79.8% (floor raised 77.0 → 77.7). Re-measured when skip-list
# nodes became level-sized with inline order words: container 99.2% →
# 99.3% (floor raised 97.0 → 97.1). The autotuner and the graph
# representations joined when Figure 5's variants and the tuner's
# enumeration came to share one side vocabulary, measured at autotune
# 88.4% (with the advisor loop's Start/Stop test), graphreps 91.4%; the
# batch-aware costing layer went at the same time, query 77.9% → 80.0%
# (floor raised 76.0 → 78.0). Raise the floor when coverage improves;
# never lower it to make a PR pass.
set -euo pipefail

declare -A floors=(
  ["./internal/core/"]=88.1
  ["./internal/locks/"]=90.4
  ["./internal/container/"]=97.1
  ["./internal/query/"]=78.0
  ["./internal/autotune/"]=86.4
  ["./internal/graphreps/"]=89.4
  ["./internal/rel/"]=77.7
  ["./internal/server/"]=88.6
  ["./internal/server/client/"]=59.5
  ["./internal/server/wirejson/"]=85.0
  ["./internal/wal/"]=80.5
)

status=0
for pkg in "${!floors[@]}"; do
  floor=${floors[$pkg]}
  out=$(go test -cover "$pkg")
  echo "$out"
  pct=$(echo "$out" | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*' | head -1)
  if [ -z "$pct" ]; then
    echo "FAIL $pkg: no coverage figure in test output" >&2
    status=1
    continue
  fi
  if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
    echo "FAIL $pkg: coverage ${pct}% is below the committed floor ${floor}%" >&2
    status=1
  else
    echo "ok   $pkg: coverage ${pct}% >= floor ${floor}%"
  fi
done
exit $status
