#!/usr/bin/env bash
# The benchmark's one command, run from anywhere:
#
#   bash bench/run.sh [-seed n] [-out set.json]          every workload
#   bash bench/run.sh -workload deep -seconds 14 -trace 0  one workload (the driver's form)
#   bash bench/run.sh -compare base.json new.json        judge one set against another
#
# It builds bench/e2e from source and runs it from the repository root.
# The binary, the Go build cache and every temp file stay under
# .bench_build/ and bench/e2e/out/ inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build"
export GOCACHE=$build/go-cache GOPATH=$build/go-path GOTOOLCHAIN=local GOPROXY=off

commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && ! git diff --quiet HEAD 2>/dev/null; then
	commit=$commit-dirty
fi
(cd bench && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/e2e" ./e2e)
exec "$build/e2e" -tmp .bench_build/tmp -trace-out bench/e2e/out "$@"
