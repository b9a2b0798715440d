#!/usr/bin/env bash
# ci.sh — the repo's check suite: formatting, vet, build, tests, and the race
# detector over the concurrency-bearing packages. Run from anywhere; exits
# non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

# gate <pkg> <TestName> runs one test verbosely and fails unless it printed
# "--- PASS: <TestName>": a skip must not silently satisfy a gate.
gate() {
    local out
    if ! out=$(go test "$1" -run "^$2\$" -v); then
        echo "$out" >&2
        exit 1
    fi
    echo "$out" | tail -n 3
    if ! echo "$out" | grep -q -- "--- PASS: $2"; then
        echo "$2 did not pass (skipped?)" >&2
        exit 1
    fi
}

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "ok"

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (concurrency packages) =="
# internal/shapley/... is in the list because corpus labeling schedules the
# (exact and sampling) engines over internal/parallel: the parity gate and the
# dataset worker-determinism test both fan labeling out across goroutines.
go test -race ./internal/obs ./internal/parallel ./internal/dataset ./internal/nn ./internal/core ./internal/experiments ./internal/serve ./internal/shapley/...

echo "== go test -race (request observability: traces, ring, drift, exposition) =="
# The trace context is mutated from both sides of the admission queue (handler
# and dispatch goroutines), the trace ring and drift monitors are written by
# concurrent handlers — drive their unit tests and the serve-side threading
# test explicitly under the race detector.
go test -race ./internal/obs -run 'TraceContext|TraceID|TraceRing|ChromeTrace|Drift|PSI|Prom|Lint'
go test -race ./internal/serve -run 'TraceIDThreadsThroughBatch|HealthzReadiness|MetricsPrometheus'

echo "== go test -race (packed serve dispatch + admin auth + TLS) =="
# The parity grid sweeps pack-requests on/off across batch/window/worker/
# rank-batch combinations — the packed dispatcher slices one batch across
# replicas concurrently, so it runs under the race detector explicitly, as do
# the TLS round trip and the admin auth gate.
go test -race ./internal/serve -run 'ServeParitySequential|ServeAdminAuth|ServeTLS'

echo "== allocation regression gates =="
# The warmed encoder step must run at 0 allocs/op. These tests self-skip under
# the race detector, so they run here without -race.
gate ./internal/nn TestEncoderStepZeroAllocs
# The same 0 allocs/op with a LIVE metrics registry installed AND a live
# request trace context attached to the scoring context, so observability
# (metrics or tracing) can never silently reintroduce per-step allocations.
gate ./internal/nn TestEncoderStepZeroAllocsInstrumented
# The blocked kernels every layer routes through.
gate ./internal/nn TestBlockedKernelsZeroAllocs
# The prefix-sharing multi-prefix pass, which every batched ranking call and
# the packed serving dispatch run on.
gate ./internal/nn TestMultiPrefixZeroAllocs
# The per-fact prefix-reuse pass ([CLS]-only last layer) plus its head
# readout, with and without a live metrics registry.
gate ./internal/nn TestForwardWithPrefixZeroAllocs

echo "== sampler-vs-exact parity gate =="
# Every approximate labeling engine (mc, amc, stratified) must hold Spearman
# >= 0.95 against the exact oracle on the gated golden lineages at the
# GateSamples budget.
gate ./internal/shapley/approx TestSamplerOracleParityGate

echo "== corpus seed-determinism gate =="
# A fixed -label-seed must produce byte-identical corpus exports at every
# -workers count for every sampling engine.
gate ./internal/dataset TestCorpusBytesIdenticalAcrossWorkers

echo "== end-to-end run manifest =="
# Tiny full pipeline (corpus -> train -> eval) with the observability stack on:
# -workers 2 forces the instrumented pool branch even on one core, -metrics-out
# emits the run manifest, and the schema check validates what was written.
manifest_dir=$(mktemp -d)
trap 'rm -rf "$manifest_dir"' EXIT
# -rank-batch 8 routes evaluation ranking through the packed multi-prefix
# encoder path and -pepochs 1 runs a (small, one-epoch) pre-training stage, so
# the manifest must show live nn.mbatch.* and core.pretrain.* metrics —
# asserted below via REPRO_MANIFEST_EXPECT_METRICS. -labeler mc labels the
# corpus with the Monte Carlo sampling engine, so live shapley.approx.*
# metrics must show up in the same manifest.
go run ./cmd/tune -queries 16 -cases 2 -epochs 1 -samples 40 \
    -pepochs 1 -ppairs 16 \
    -labeler mc -label-samples 64 \
    -dim 8 -layers 1 -workers 2 -rank-batch 8 \
    -metrics-out "$manifest_dir/run.json" -trace -quiet 2>/dev/null
REPRO_MANIFEST="$manifest_dir/run.json" \
    REPRO_MANIFEST_EXPECT_METRICS="nn.mbatch.,core.rank.,core.pretrain.,shapley.approx." \
    go test ./internal/obs -run '^TestValidateManifestFile$' -v | tail -n 3
# Metric-naming lint over the live registry snapshot the run actually
# produced: every registered name must follow the repo convention and survive
# Prometheus normalization without collisions.
REPRO_MANIFEST="$manifest_dir/run.json" \
    go test ./internal/obs -run '^TestManifestMetricNamesLint$' -v | tail -n 3

echo "== serve e2e (daemon + concurrent traffic + manifest) =="
# Full serving round trip: train a tiny model, start the daemon on an
# ephemeral port with cross-request batching on, fire concurrent /rank
# requests over real TCP and verify every response bit-for-bit against
# sequential per-request ranking (cmd/serve -selftest exits non-zero on any
# mismatch; it then flips -pack-requests and repeats, so both dispatch modes
# are gated), then drain and flush the run manifest. The schema check asserts
# the manifest recorded live serve.* metrics (request counters, batch-size
# histogram, the serve.stage.* latency decomposition), the nn.mbatch.*
# multi-prefix packing counters from the packed dispatch leg, and the
# obs.drift.* quality monitors alongside the core ranking counters.
go run ./cmd/serve -queries 12 -cases 3 -dim 8 -layers 1 \
    -pepochs 1 -ppairs 16 -epochs 1 -samples 40 \
    -workers 2 -max-batch 4 -batch-window 1ms -rank-batch 8 \
    -selftest 8 -metrics-out "$manifest_dir/serve.json" -trace -quiet 2>/dev/null
REPRO_MANIFEST="$manifest_dir/serve.json" \
    REPRO_MANIFEST_EXPECT_METRICS="serve.req.,serve.batch.,serve.queue.,serve.stage.,core.rank.,nn.mbatch.,obs.drift." \
    go test ./internal/obs -run '^TestValidateManifestFile$' -v | tail -n 3
REPRO_MANIFEST="$manifest_dir/serve.json" \
    go test ./internal/obs -run '^TestManifestMetricNamesLint$' -v | tail -n 3

echo "== nn benchmark smoke =="
go test -run '^$' -bench . -benchtime=1x -benchmem ./internal/nn

echo "CI PASSED"
