#!/usr/bin/env bash
# Benchmarks: the detection worker-scaling sweep, the incremental-rebuild
# (cold vs warm one-function-edit) measurement, the persistent-store
# warm-restart measurement, the service-latency (cold/warm/edit/burst
# scenarios against an in-process server) measurement, and the cold-build
# worker-scaling sweep (the parse/lower/SSA/Mod-Ref/transform/PTA+SEG
# wavefront), on synthetic subjects. Leaves JSON snapshots
# (BENCH_detect.json, BENCH_incremental.json, BENCH_store.json,
# BENCH_serve.json, BENCH_build.json) in the repo root for trend tracking.
# Extra arguments pass through to benchsnap (e.g. -scale 5 -workers 1,2,4,8
# -inc-scale 50 -store-scale 50 -serve-scale 50 -build-scale 50).
#
# Snapshots are written to a temp directory and only moved into the repo
# root once the whole run has succeeded, so a failed run can neither leave
# truncated JSON behind nor clobber the previous good snapshots.
set -euo pipefail
cd "$(dirname "$0")/.."

snapshots="BENCH_detect.json BENCH_incremental.json BENCH_store.json BENCH_serve.json BENCH_build.json"

tmpdir="$(mktemp -d "${TMPDIR:-/tmp}/pinpoint-bench.XXXXXX")"
cleanup() {
  status=$?
  rm -rf "$tmpdir"
  if [ "$status" -ne 0 ]; then
    echo "bench.sh: FAILED (exit $status); no snapshot was written" >&2
  fi
  exit "$status"
}
trap cleanup EXIT

echo "== detection scaling + incremental rebuild + store warm-restart + service latency + build scaling benchmarks"
go run ./cmd/benchsnap \
  -out "$tmpdir/BENCH_detect.json" \
  -inc-out "$tmpdir/BENCH_incremental.json" \
  -store-out "$tmpdir/BENCH_store.json" \
  -serve-out "$tmpdir/BENCH_serve.json" \
  -build-out "$tmpdir/BENCH_build.json" \
  "$@"

# Refuse to commit empty or invalid snapshots: every output must exist,
# be non-empty, and parse as JSON.
for f in $snapshots; do
  if [ ! -s "$tmpdir/$f" ]; then
    echo "bench.sh: $f is missing or empty" >&2
    exit 1
  fi
  if ! go run ./scripts/jsoncheck "$tmpdir/$f"; then
    echo "bench.sh: $f is not valid JSON" >&2
    exit 1
  fi
done
# Schema gates: a run that produced zero-duration latencies, NaN
# throughput, a ladder without its workers=1 baseline, or a parallel build
# that was slower (or nondeterministic) must not enter the history.
if ! go run ./scripts/jsoncheck -schema serve "$tmpdir/BENCH_serve.json"; then
  echo "bench.sh: BENCH_serve.json failed schema validation" >&2
  exit 1
fi
if ! go run ./scripts/jsoncheck -schema detect "$tmpdir/BENCH_detect.json"; then
  echo "bench.sh: BENCH_detect.json failed schema validation" >&2
  exit 1
fi
if ! go run ./scripts/jsoncheck -schema build "$tmpdir/BENCH_build.json"; then
  echo "bench.sh: BENCH_build.json failed schema validation" >&2
  exit 1
fi
# All snapshots validated: move them into place as one atomic commit set.
for f in $snapshots; do
  mv "$tmpdir/$f" "$f"
done
echo "== snapshots written: $snapshots"
