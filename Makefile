# CI entrypoints. `make` = tier-1 verify; `make bench` adds the short
# allocation-regression benchmark pass documented in PERFORMANCE.md;
# `make lint` is stock go vet (INVARIANTS.md maps every other rule to the
# test that holds it).

GO ?= go

.PHONY: all build test race bench fuzz fmt-check lint loc serving-bench serving-compare serving-pairs

all: build test

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Static gate: stock go vet (its copylocks pass keeps the typed atomics
# from being copied).
lint:
	$(GO) vet ./...

# Formatting gate: fails listing any file gofmt would rewrite.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Non-test Go lines — the count a simplification round is judged on.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l

# Race-detector pass over the concurrency-sensitive surfaces: the pooled
# walk query engine, the one batch fan-out (core.ServeBatch) under every
# algorithm of the suite (TestConcurrentRecommendSharedSystem — it calls
# the score-function adapters from several goroutines), the live
# delta-overlay graph (concurrent readers, writers and folds —
# TestConcurrentBaseSwapRaces, TestConcurrentExtractDuringFold), the
# sharded result cache, the WAL group-commit ingester plus
# kill-and-restart recovery (TestDurable* in the root package), the
# memoised popularity vector under a writer
# (TestConcurrentItemPopularityMemo), the lock-free /v1/metrics
# counters (TestConcurrentMetricsAcrossRoutes) and the sweeps a walk shares
# with markov's helper goroutine (TestSplit*: cancelled and late-joined
# walks whose scratch is reused at once, walks contending for the helper).
# (The full suite under -race also works but takes many minutes; this is
# the CI-sized cut.)
# The second line runs the serving benchmark's own tests — a real
# loopback server driven by concurrent clients — under the detector.
race:
	$(GO) test -race -run 'TestConcurrent|TestEngineConcurrentUse|TestRecommendBatch|TestServeBatch|TestCached|TestDurable|TestIngester|TestSplit' . ./internal/core/ ./internal/server/ ./internal/graph/ ./internal/cache/ ./internal/wal/ ./internal/markov/
	$(GO) test -race ./benchmark

# Short per-query benchmark pass with allocation counts — the regression
# signal for the zero-allocation query engine, the Request query surface,
# the 1-alloc warm cache hit and what that hit costs through the HTTP
# handler (HandleRecommendHit: B/op says whether a hit pays for the
# catalog or for its answer), plus the log-only WAL group-commit
# throughput (see PERFORMANCE.md). Serving timings live in the serving
# benchmark below, not here.
bench: build
	$(GO) test -run '^$$' -bench 'Query|SubgraphExtract|WalkScores|RecommendBatch|RecommendCached|RecommendRequest|HandleRecommendHit' -benchtime=100x -benchmem
	$(GO) test -run '^$$' -bench 'BenchmarkWALAppend' -benchmem ./internal/wal/

# The serving benchmark (benchmark/README.md): HTTP in, JSON out, all four
# BENCHMARK.json workloads with the per-layer trace, written to OUT.
#   make serving-bench SEED=1 OUT=/tmp/new.json
# serving-compare diffs two such files per workload x end-to-end metric
# (ok | worse | unresolved | invalid; non-zero exit on "worse"). A claim
# needs ten parent/change pairs, not one — see the README.
#   make serving-compare BASE=/tmp/base.json NEW=/tmp/new.json
SEED ?= 1
OUT ?= /tmp/ltr-serving-bench.json

serving-bench:
	bash benchmark/run.sh -seed $(SEED) -trace 1 -out $(OUT)

serving-compare:
	bash benchmark/run.sh -compare $(BASE) $(NEW)

# The ten pairs themselves: N alternating parent/change runs of one
# workload, each checkout through its own benchmark/run.sh (untraced, the
# BENCHMARK.json phase length), then per end-to-end metric both sides'
# median and quartiles and the pairs the change won. PARENT is a checkout
# of the parent commit (git clone, not a worktree); ~15 min at N=10.
#   make serving-pairs PARENT=/root/scratch/parent WORKLOAD=big_universe SEED=5 N=10
N ?= 10

serving-pairs:
	bash scripts/serving-pairs.sh $(PARENT) $(WORKLOAD) $(SEED) $(N)

# Native fuzz targets, a short budget each — the long-haul hardening pass
# for the compact dataset (every accessor and error equal to the old
# [][]int layout kept in its test file), the COO→CSR build (bit-identical
# to its map-based oracle), the
# extractor, the live graph (closed- and open-universe), the WAL
# record decoder against torn and corrupted log tails, the checkpoint
# decoder every restart reads, the fingerprint cache's
# serve-stale-never soundness property and the /v1/recommend append
# encoder's byte equality with encoding/json (CI runs the seed corpus via
# `make test` plus a 10s smoke; this explores further).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDatasetNew -fuzztime 30s ./internal/dataset/
	$(GO) test -run '^$$' -fuzz FuzzToCSR -fuzztime 30s ./internal/sparse/
	$(GO) test -run '^$$' -fuzz FuzzSubgraphExtract -fuzztime 30s ./internal/graph/
	$(GO) test -run '^$$' -fuzz FuzzBuilderAddRating -fuzztime 30s ./internal/graph/
	$(GO) test -run '^$$' -fuzz FuzzUpsertRatingAutoGrow -fuzztime 30s ./internal/graph/
	$(GO) test -run '^$$' -fuzz FuzzWALDecode -fuzztime 30s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzLoadFleetCheckpoint -fuzztime 30s ./internal/persist/
	$(GO) test -run '^$$' -fuzz FuzzFingerprintSoundness -fuzztime 30s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzRecommendEncoding -fuzztime 30s ./internal/server/
