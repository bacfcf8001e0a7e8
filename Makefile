# fastinvert — reproduction of Wei & JaJa, "A Fast Algorithm for
# Constructing Inverted Files on Heterogeneous Platforms" (IPDPS 2011).

GO ?= go

.PHONY: all build test race check lint smoke trace-serve bench microbench profile fuzz differential differential-live experiments tools clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Formatting + static analysis: gofmt, go vet, and staticcheck when it
# is on PATH (optional — nothing is vendored for it).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else echo "staticcheck not on PATH; skipped"; fi

# Telemetry smoke: build a tiny corpus with tracing and metrics armed,
# then gate the build record on the trace rule and the >=90% busy+stall
# wall-clock coverage of its worker lanes, and the Prometheus snapshot
# on its summary gauge.
smoke:
	@tmp=$$(mktemp -d); rc=0; \
	{ $(GO) run ./cmd/hetindex -files 2 -scale 0.25 -concurrent \
		-out $$tmp/index -trace $$tmp/trace.jsonl -metrics $$tmp/metrics.prom >/dev/null \
	&& $(GO) run ./cmd/tracecheck -min-coverage 0.9 $$tmp/trace.jsonl \
	&& grep -q '^fastinvert_build_wall_seconds ' $$tmp/metrics.prom \
	&& echo "smoke OK"; } || rc=1; \
	rm -rf $$tmp; exit $$rc

# Serving-trace smoke: run hetserve -live under full request tracing
# (sample everything, slow-log everything) against its built-in seeded
# load generator, then gate the request-trace stream on the same trace
# rule (each span inside its parent, one lane's children never summing
# past it), >=50 traces, and >=5 distinct query stages (dict, cache,
# pread, decode, merge/memtable) appearing in one trace.
trace-serve:
	@tmp=$$(mktemp -d); rc=0; \
	{ $(GO) run ./cmd/hetserve -live -index $$tmp/seg -positional \
		-selfcheck -sample 1 -slow-ms -1 -trace-requests $$tmp/req.jsonl \
	&& $(GO) run ./cmd/tracecheck -min-stages 5 -min-traces 50 $$tmp/req.jsonl \
	&& echo "trace-serve OK"; } || rc=1; \
	rm -rf $$tmp; exit $$rc

# CPU attribution of the headline build, the table under EXPERIMENTS.md
# Table VI: the benchmark's build_web command and corpus shape under a
# CPU profile, cut to the cumulative seconds of each stage's root
# function (merge has three: the caller's, and the two sets of
# goroutines it waits for — openCursors' to open and checksum the runs,
# then the shard workers). FILES and SCALE size the corpus; it asserts
# nothing about time.
FILES ?= 12
SCALE ?= 4
PROFILE_ROOTS = core\.\(\*Engine\)\.parseOne|corpus\.Decompress|parser\.\(\*Parser\)\.ParseDoc|cpuindexer\.\(\*Indexer\)\.IndexRun|gpuindexer\.\(\*kernelCtx\)\.processGroup|core\.\(\*Engine\)\.postProcessBlock|store\.\(\*IndexReader\)\.Merge|store\.openCursors\.func1|store\.\(\*merger\)\.mergeShard
profile:
	@tmp=$$(mktemp -d); rc=0; \
	{ $(GO) build -o $$tmp/hetindex ./cmd/hetindex \
	&& $(GO) run ./cmd/corpusgen -profile clueweb -files $(FILES) -scale $(SCALE) -out $$tmp/corpus >/dev/null \
	&& $$tmp/hetindex -corpus $$tmp/corpus -out $$tmp/index -concurrent -merge -codec auto \
		-cpuprofile $$tmp/cpu.pprof >/dev/null \
	&& $(GO) tool pprof -top -cum -nodefraction=0 -nodecount=100000 $$tmp/hetindex $$tmp/cpu.pprof 2>/dev/null \
		| grep -E '^Duration|flat%|($(PROFILE_ROOTS))$$'; } || rc=1; \
	rm -rf $$tmp; exit $$rc

# Everything CI runs (.github/workflows/ci.yml): lint, build, the full
# race-enabled test suite, the benchmark's own module (bench/ is not
# part of ./...; its TestQuick runs all four workloads at -quick sizes
# and asserts no timing), the telemetry smoke gate, and — so they
# cannot rot — the profile target on a tiny corpus and one iteration
# each of the ranked-retrieval, Boolean-handler and live-ingest
# microbenchmarks (the first two build a bench-shaped index, and the
# first and last a live one, then assert nothing about time).
check: lint
	$(GO) build ./...
	$(GO) test -race ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) smoke
	$(MAKE) profile FILES=2 SCALE=0.25
	$(GO) test ./internal/search/ -run '^$$' -bench BenchmarkTopK -benchtime 1x
	$(GO) test ./internal/serve/ -run '^$$' -bench BenchmarkHandlerBool -benchtime 1x
	$(GO) test ./internal/segment/ -run '^$$' -bench BenchmarkAddDocument -benchtime 1x

# The repository's one benchmark (BENCHMARK.json, bench/README.md):
# four workloads over the shipped hetindex/hetserve binaries, seven
# end-to-end metrics, per-layer probes and a traced run each.
bench:
	bash bench/run.sh

# One pass over every go-test microbenchmark with allocation metrics
# (BenchmarkParseDoc's ns/token, BenchmarkGPUIndexRun, BenchmarkTopK's
# ns, allocations and blocks decoded per ranked query,
# BenchmarkHandlerBool's ns, allocations and body bytes per Boolean
# request and BenchmarkAddDocument's ns and allocations per live
# ingest among them).
microbench:
	$(GO) test -bench=. -benchmem ./...

# Short fuzzing pass over every byte-level decoder.
fuzz:
	$(GO) test ./internal/encoding/ -fuzz FuzzUvarByte -fuzztime 30s
	$(GO) test ./internal/encoding/ -fuzz FuzzDecodePostings -fuzztime 30s
	$(GO) test ./internal/encoding/ -fuzz FuzzBitGammaGolomb -fuzztime 30s
	$(GO) test ./internal/encoding/ -fuzz FuzzCodecRoundTrip -fuzztime 30s
	$(GO) test ./internal/corpus/ -fuzz FuzzDecompress -fuzztime 30s
	$(GO) test ./internal/parser/ -fuzz FuzzParseDoc -fuzztime 30s
	$(GO) test ./internal/parser/ -fuzz FuzzGroupForEach -fuzztime 30s
	$(GO) test ./internal/store/ -fuzz FuzzParseRun -fuzztime 30s
	$(GO) test ./internal/store/ -fuzz FuzzReadDictionary -fuzztime 30s
	$(GO) test ./internal/store/ -fuzz FuzzParseDocLens -fuzztime 30s
	$(GO) test ./internal/store/ -fuzz FuzzParseDocTable -fuzztime 30s
	$(GO) test ./internal/store/ -fuzz FuzzParseDocMap -fuzztime 30s
	$(GO) test ./internal/store/ -fuzz FuzzBlockedList -fuzztime 30s
	$(GO) test ./internal/search/ -fuzz FuzzSearchQueries -fuzztime 30s
	$(GO) test ./internal/serve/ -fuzz FuzzResponseJSON -fuzztime 30s
	$(GO) test ./internal/segment/ -fuzz FuzzSegmentManifest -fuzztime 30s
	$(GO) test ./internal/segment/ -fuzz FuzzTombstoneBitmap -fuzztime 30s
	$(GO) test ./internal/telemetry/ -fuzz FuzzValidateTraces -fuzztime 30s

# Tier-2 differential correctness sweep: the pipelined build vs the
# reference indexer and all four baselines across 10 seeded corpora —
# including the merged-file parity comparison (every index is merged
# and re-read through merged.post, which must match the per-run path
# term for term) — plus the fault-injection matrix (with merged-file
# truncation/bit-flip faults), under the race detector. CI runs it on
# every pull request (the differential job). Any failure prints its
# seed; reproduce with:
#   go test ./internal/verify/ -run 'TestDifferential/seedN' -args -seeds 10
differential:
	$(GO) test ./internal/verify/ -race -count=1 -args -seeds 10
	$(GO) run ./cmd/hetverify -seeds 10 -chaos

# Interleaved live-index differential sweep: seeded insert/delete/
# query/seal/compact schedules against the LSM segment manager, diffed
# term-for-term against a serial from-scratch rebuild at every seal and
# compaction boundary (plus end-of-schedule and close/reopen), with the
# segment package's own concurrency tests under the race detector.
differential-live:
	$(GO) test ./internal/segment/ -race -count=1
	$(GO) test ./internal/verify/ -race -count=1 -run 'TestRunLive'
	$(GO) run ./cmd/hetverify -live -seeds 10
	$(GO) run ./cmd/hetverify -live -seeds 5 -positional

# Paper-style tables and figures (EXPERIMENTS.md reference data).
experiments:
	$(GO) run ./cmd/benchrunner -all -files 16 -scale 1 -trials 3

tools:
	$(GO) build -o bin/hetindex ./cmd/hetindex
	$(GO) build -o bin/corpusgen ./cmd/corpusgen
	$(GO) build -o bin/indexquery ./cmd/indexquery
	$(GO) build -o bin/benchrunner ./cmd/benchrunner
	$(GO) build -o bin/hetserve ./cmd/hetserve
	$(GO) build -o bin/hetverify ./cmd/hetverify
	$(GO) build -o bin/tracecheck ./cmd/tracecheck

clean:
	rm -rf bin .bench_build bench/out
