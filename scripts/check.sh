#!/usr/bin/env bash
# Tier-1 verification in one command: formatting, vet, build, tests (with
# the race detector — the parallel detection scheduler's determinism tests
# run under it), and the examples suite.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l cmd internal examples ./*.go)
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

# The nested benchmark module is outside ./...: vet and test it here, so a
# change that breaks the surface it compiles against fails tier-1.
echo "== benchmark module (vet, test)"
(cd benchmark && go vet . && go test .)

echo "== examples"
for ex in quickstart useafterfree taintcheck crossfunction memoryleak; do
    echo "-- examples/$ex"
    go run "./examples/$ex" >/dev/null
done

echo "== pinpoint CLI smoke (trace + stats-json)"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
# exit 1 just means bugs were reported — the examples contain some on purpose
go run ./cmd/pinpoint -checkers all -workers -1 \
    -trace "$tmpdir/trace.json" -stats-json "$tmpdir/stats.json" \
    examples/mc/*.mc >/dev/null || [ $? -eq 1 ]
for f in trace.json stats.json; do
    if ! python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$tmpdir/$f"; then
        echo "$f is not valid JSON" >&2
        exit 1
    fi
done

echo "OK"
