#!/usr/bin/env bash
# The gate: everything a change must pass, in one script with no flags and
# no environment switches, so CI and a session without a runner or a
# network run the same thing.
#
#   bash scripts/check.sh
#
# It stops at the first failing step with a non-zero status, prints each
# step's name and duration, and leaves the checkout as it found it: the
# only thing it writes in the tree is .bench_build/ (ignored), through
# benchmark/run.sh. staticcheck and govulncheck run when they are on PATH
# — CI installs them first — and are reported as skipped otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."

before=$(git status --porcelain)
transcript=()

# step NAME CMD...: run CMD; on failure name the step and stop the gate.
step() {
	local name=$1 start=$SECONDS
	shift
	echo "==> $name"
	"$@" || {
		echo "FAIL: $name (after $((SECONDS - start))s)" >&2
		exit 1
	}
	transcript+=("$(printf '%-52s %4ds' "$name" $((SECONDS - start)))")
	echo "    ${transcript[-1]}"
}

formatted() {
	local out
	out=$(gofmt -l .) || return 1
	[ -z "$out" ] || {
		echo "gofmt needed on:"
		echo "$out"
		return 1
	}
}

# The nested module (replace simjoin => ../) links internal/vec, dataset,
# core, join and pairs; no root ./... pattern reaches it, so an internal
# signature change could break the harness with everything else green.
harness() (cd benchmark && go vet ./... && go test ./...)

# Each example checks its own answer and exits non-zero when it is wrong
# (quickstart when two algorithms disagree); building them runs none of it.
examples() {
	local e
	for e in examples/*/; do
		go run "./$e" >/dev/null || {
			echo "$e exited non-zero"
			return 1
		}
	done
}

untouched() {
	local after
	after=$(git status --porcelain)
	[ "$after" = "$before" ] || {
		echo "the gate changed the checkout:"
		diff <(echo "$before") <(echo "$after")
		return 1
	}
}

step "gofmt" formatted
step "vet" go vet ./...
step "build" go build ./... ./examples/...
step "run examples" examples
# The flat kernels lean on slice-to-array-pointer conversions and
# width-sensitive constants; build only — nothing here runs arm64.
step "cross-build arm64" env GOARCH=arm64 go build ./...
if command -v staticcheck >/dev/null; then
	step "staticcheck" staticcheck ./...
else
	transcript+=("staticcheck: skipped, not on PATH")
fi
step "test -race" go test -race ./...

# The concurrency-heavy packages again, four times under the detector:
# tracing/metrics and the query journal, the WAL catalog, live fan-out,
# snapshots growing one buffer under readers, kernels over one shared
# buffer, the pair sinks, gateway hot reload, the cluster's scatter
# goroutines and reconnecting watch streams, and the serving core with
# the daemon that drives it.
for pkg in ./internal/obsv/... ./internal/store/... ./internal/live/... \
	./internal/dataset/... ./internal/vec/... ./internal/pairs/... \
	./internal/gateway/ ./internal/cluster/ ./internal/api/... ./cmd/simjoind/; do
	step "race x4 $pkg" go test -race -count=4 "$pkg"
done
# A served join with no workers count runs on every core of the worker
# (GOMAXPROCS): its contract tests once at one core — the serial
# fallback — and once at four, oversubscribed on a 2-core host.
step "served joins -cpu 1,4" go test -cpu 1,4 -run 'TestServedJoin' ./cmd/simjoind/
# Every engine that spreads a join over workers does it through
# join.Spread: their tests that run more than one worker, four times.
step "race x4 engines -run 'Parallel|Workers'" go test -race -count=4 -run 'Parallel|Workers' \
	./internal/core/ ./internal/grid/ ./internal/kdtree/ ./internal/join/
# KNNJoin spreads its queries over workers reading one shared
# NeighborIndex, and concurrent joins share a Dataset's kept ε-kdB tree;
# the engines step above does not reach the root package.
step "race x4 . -run 'KNN|Reuse'" go test -race -count=4 -run 'KNN|Reuse' .
# The sketch updated under readers: only its concurrency test is worth
# repeating. The rest of the package is single-goroutine, deterministic
# accuracy checks — two thirds of its -race time — and ran once above.
step "race x4 ./internal/sketch/... -run Concurrent" go test -race -count=4 -run Concurrent ./internal/sketch/...

# go test never runs a benchmark, so one that panics would go unnoticed:
# run the kernel, ε-kdB join and range-probe and sketch-build benchmarks a
# kernel change is read against, the upload scanner's against
# encoding/json, the pair-stream reader's against the same, and the live
# index's append path, once.
step "benchmarks once: SweepL2, HighDim, RangeQuery, WithinL1Linf, FromDataset, DecodePoints, ReadStream, IndexAppend" go test -run '^$' \
	-bench 'SweepL2|HighDim|RangeQuery|WithinL1Linf|FromDataset|DecodePoints|ReadStream|IndexAppend' -benchtime 1x \
	./internal/vec ./internal/core ./internal/sketch ./internal/api ./internal/live

step "benchmark harness: vet + test" harness
# Each workload boots what it measures from this checkout — serve_* run
# the real simjoind binary as worker, coordinator and gateway with a
# tenants file — and verifies every answer; a non-zero status means
# correct = false or a failed operation.
for w in join_pairs join_highdim serve_query serve_ingest; do
	step "smoke $w" bash benchmark/run.sh --workload "$w" --seed 1 --seconds 5 --trace 0 -smoke
done

# Every untrusted-input decoder (dataset readers, snapshot + WAL codecs,
# the upload scanner and the pair-stream reader held to encoding/json), the flat kernels held to the reference predicate, the pair radix sort, the ε-kdB tree's
# join and its range probe held to brute force over both key kinds, and the sketch's log-free bucket index
# held to the Log2 formula, and the cluster's shard-coverage rule held to
# the points each shard stores. The go tool takes one -fuzz target per run.
for target in dataset:FuzzReadCSV dataset:FuzzReadBinary api:FuzzDecodePoints api:FuzzReadStream store:FuzzReadSnapshot \
	store:FuzzWALReplay vec:FuzzFlatKernels pairs:FuzzSortPairs core:FuzzSelfJoinOracle core:FuzzRangeQueryOracle \
	sketch:FuzzHistIndex cluster:FuzzShardCoverage; do
	step "fuzz 10s ${target#*:}" go test -run '^$' -fuzz "^${target#*:}\$" -fuzztime 10s "./internal/${target%%:*}"
done

if command -v govulncheck >/dev/null; then
	# Advisory: a new stdlib advisory must be visible, not block a merge.
	echo "==> govulncheck (advisory)"
	govulncheck ./... || echo "govulncheck reported findings (advisory, not failing the gate)"
else
	transcript+=("govulncheck: skipped, not on PATH")
fi

step "checkout untouched" untouched

echo
echo "gate passed:"
printf '  %s\n' "${transcript[@]}"
