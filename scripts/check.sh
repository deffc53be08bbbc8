#!/usr/bin/env bash
# Tier-1 verification in one command: each step below says what it checks.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l cmd internal examples benchmark)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

# When a unit is parsed, what the segment codec writes, that detection
# leaves every graph as it was built, that an Analysis checked while the
# session commits an edit into the table chunks it shares answers as it did
# alone, that a replaying session — which holds
# only the tasks an edit can reach against the program, and every other task
# too in these tests — answers like a from-scratch build, that detection run
# again or with a recorder attached answers alike (every CheckAll patches a
# last run, the first one the empty run), that a local-flow walk — which
# reads its graph's frozen conditions without the builder's lock — yields
# what a brute-force enumeration of the paths does, also at the step cap,
# and stays bounded on graphs of 2^40 and 2^130 paths, and what `-checkers all` reports beside the six
# checkers run one by one must not depend on how many goroutines there are to
# do it on.
echo "== restart, codec, graphs-unchanged, shared-tables, replay, detection-determinism, walk-oracle, path-explosion and all-equals-union equivalence at -cpu 1,2"
go test ./internal/core -run 'WarmRestart|SegmentCodec|DetectionLeavesGraphsUnchanged|SharedTables|Replay' -race -cpu 1,2
go test ./internal/detect -run 'Repeatable|ObsDeterminism|WalkEqualsEnumeration|WalkStepCapEqualsEnumeration|WalkPathExplosion' -race -cpu 1,2
go test ./cmd/pinpoint -run 'AllEqualsUnionOfCheckers' -cpu 1,2

# The allocation and residency budgets skip themselves under the race
# detector (it allocates shadow state of its own), so they get a run without
# it, together with the record and header sizes they follow from, the check
# that the records a built program is made of hold no pointer (the IR's
# instructions, values and blocks, which lowering writes and the SEG adopts,
# the SEG's vertices and edges, the condition builder's intern table; the
# tests live in internal/core, which sees them all), the structural ledger
# against the measured heap, a built graph against its decoded form, and the
# SEG's and the condition builder's own budgets (no append slack, an empty
# builder one allocation).
echo "== allocation and residency budgets, resident ledger, built graph equals decoded, record sizes, pointer-free IR and SEG records (no race detector)"
go test ./internal/core ./internal/server ./internal/seg ./internal/cond -run 'Budget|RecordSizes|PointerFree|ResidentLedger|BuiltGraphEqualsDecoded'

# Ten seconds of new inputs on top of the committed corpus. The minimizer is
# held to a second: its default budget per interesting input is longer than
# this whole step.
echo "== fuzz the artifact decoder (10s)"
go test ./internal/core -run '^$' -fuzz FuzzDecodeSegment -fuzztime 10s -fuzzminimizetime 1s

echo "== fuzz the unit-facts decoder (5s)"
go test ./internal/core -run '^$' -fuzz FuzzDecodeUnitFacts -fuzztime 5s -fuzzminimizetime 1s

echo "== fuzz a function's parse from its own declaration against its unit's parse (5s)"
go test ./internal/minic -run '^$' -fuzz FuzzParseFunc -fuzztime 5s -fuzzminimizetime 1s

echo "== fuzz the solver against enumeration (5s)"
go test ./internal/smt -run '^$' -fuzz FuzzCheckVsEnumeration -fuzztime 5s -fuzzminimizetime 1s

echo "== fuzz a session's history of edits, resubmits and checker changes, every kept Analysis checked again, against from-scratch builds, under the race detector (5s)"
go test ./internal/core -race -run '^$' -fuzz FuzzSessionHistory -fuzztime 5s -fuzzminimizetime 1s

echo "== fuzz the request decoder, through a tenant's memo of the units last sent, against encoding/json (5s)"
go test ./internal/server -run '^$' -fuzz FuzzDecodeRequest -fuzztime 5s -fuzzminimizetime 1s

echo "== fuzz the report appender against encoding/json (5s)"
go test ./internal/detect -run '^$' -fuzz FuzzReportJSON -fuzztime 5s -fuzzminimizetime 1s

echo "== fuzz lowering into SSA form, its φs against the semi-pruned dominance-frontier placement, and through the SEG and its codec (5s)"
go test ./internal/lower -run '^$' -fuzz FuzzLowerSSA -fuzztime 5s -fuzzminimizetime 1s

echo "== fuzz the analysis against exhaustive execution of generated programs (5s)"
go test ./internal/difftest -run '^$' -fuzz FuzzDifferential -fuzztime 5s -fuzzminimizetime 1s

# The nested benchmark module is outside ./...: vet and test it here, so a
# change that breaks the surface it compiles against fails tier-1.
echo "== benchmark module (vet, test)"
(cd benchmark && go vet . && go test .)

echo "== examples"
for ex in quickstart useafterfree taintcheck crossfunction memoryleak; do
    echo "-- examples/$ex"
    go run "./examples/$ex" >/dev/null
done

echo "OK"
