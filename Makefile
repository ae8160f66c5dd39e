# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short race cover bench bench-json fuzz fuzz-smoke chaos fleet-smoke experiments examples fmt vet lint loc clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Skips the slow integration matrix and shape tests.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One benchmark per paper table/figure (reduced scale) plus module
# micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Headline performance figures (ingest rate, words/window, sketch-query
# latency, the parallel pipeline's batch × workers scaling grid with its
# benchgate efficiency gate, the multi-stream registry streams × workers
# throughput grid with its falloff gate, and the published-snapshot query
# path under concurrent queriers with its publish-overhead and
# interference gates) on a fixed reference workload, written as
# BENCH_PR10.json for machine comparison across changes.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_PR10.json

# Short fuzz sessions over the invariant fuzz targets.
fuzz:
	$(GO) test -fuzz=FuzzHistogramInvariant -fuzztime=30s ./internal/eh/
	$(GO) test -fuzz=FuzzSketchGuarantee -fuzztime=30s ./internal/fd/
	$(GO) test -fuzz=FuzzSkewBufferOrdering -fuzztime=30s ./internal/stream/
	$(GO) test -fuzz=FuzzEigSym -fuzztime=30s ./mat/
	$(GO) test -fuzz=FuzzKernels -fuzztime=30s ./mat/
	$(GO) test -fuzz=FuzzHistogramGram -fuzztime=30s ./internal/meh/

# Short fuzz sessions over untrusted-input and numerical kernels. The
# binary v2 wire decoder must never panic, never loop, and only ever fail
# with a frame-local CorruptFrameError or an EOF-shaped transport error.
# The symmetric eigensolver must return on any input, NaN and ±Inf
# included, and decompose every finite one of moderate norm; its
# values-first path (EigSymValuesInto) must return the same eigenvalues
# bit for bit on every finite input, and the vectors it forms on request
# must reconstruct the input and be orthonormal within 1e-10; the full
# solve must return the same bits with mat's AVX2 kernels off. Each AVX2
# kernel must return its Go loop's bits on any lengths, offsets and
# special values (FuzzKernels). The mEH's kept window Gram must stay
# within 1e-12 × the live mass of a fresh sum over its buckets after
# every Add and Advance, and be exactly zero once the histogram empties.
# The CI fuzz job runs exactly these targets.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeMsg -fuzztime=30s ./internal/wire/codec/
	$(GO) test -fuzz=FuzzDecodeAck -fuzztime=30s ./internal/wire/codec/
	$(GO) test -fuzz=FuzzEigSym -fuzztime=30s ./mat/
	$(GO) test -fuzz=FuzzKernels -fuzztime=30s ./mat/
	$(GO) test -fuzz=FuzzHistogramGram -fuzztime=30s ./internal/meh/

# Seeded chaos soak under the race detector: replays the same workload
# fault-free and under injected transport faults plus a site crash, and
# requires the coordinator's estimate to be bit-identical. The fault mix
# is seed-deterministic, so a failure here reproduces exactly.
chaos:
	$(GO) test -race -run Chaos -count=1 ./internal/wire/ ./internal/chaos/

# Fleet telemetry smoke: a telemetry-enabled coordinator, two
# chaos-injected sites ingesting while publishing telemetry frames over
# their wire connections, and a Prometheus-format scrape of /metrics
# validated by the in-repo exposition parser. The CI fleet job runs
# exactly this test.
fleet-smoke:
	$(GO) test -run TestFleetSmoke -count=1 -v ./internal/wire/

# Regenerate the paper's tables and figures (default scale, ~30 min).
experiments:
	$(GO) run ./cmd/trackbench -exp all -scale default -csv experiments.csv

# Render the panels from the experiments CSV as SVGs under figures/.
figures: experiments
	$(GO) run ./cmd/plotfig -in experiments.csv -out figures

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/netmon
	$(GO) run ./examples/changedetect
	$(GO) run ./examples/heavyhitters
	$(GO) run ./examples/anomaly

fmt:
	gofmt -w .

# CI's lint gate: formatting and vet, no writes. The arm64 vet keeps the
# portable path, which every GOARCH but amd64 runs, compiling.
lint:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

vet:
	$(GO) vet ./...

# Non-test Go line count over the tracked files, perfbench included: the
# LoC figure each change records in CHANGES.md.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | xargs cat | wc -l

clean:
	rm -f experiments.csv test_output.txt bench_output.txt
