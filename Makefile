GO ?= go

.PHONY: all build fmt vet lint test test-race chaos crashsoak fastsoak check bench bench-lp bench-paths bench-dataplane bench-ablation fuzz fuzz-fastpath difftest deltadiff

all: check

build:
	$(GO) build ./...

# fmt fails on any Go file gofmt would rewrite. Files under testdata/ are
# analyzer fixtures whose layout is part of the test and are left alone.
fmt:
	@unformatted=$$(gofmt -l . | grep -v '/testdata/' || true); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

vet:
	$(GO) vet ./...

# lint is self-hosting: ./... includes internal/analysis, internal/analysis/cfg,
# and cmd/januslint, so the analyzers must pass their own checks. Any
# non-suppressed finding exits non-zero and fails check/CI.
lint:
	$(GO) run ./cmd/januslint ./...

test:
	$(GO) test ./...

# test-race shuffles test order (-shuffle=on) to flush hidden inter-test
# ordering dependencies; the seed is printed on failure for replay.
test-race:
	$(GO) test -shuffle=on -race ./...

# chaos replays the seeded fault-injection soak (random op failures, a
# mid-update switch crash, a link flap) under the race detector, asserting
# the self-audit stays clean and failed updates roll back exactly.
chaos:
	$(GO) test -race -count=1 -run TestChaosSoak ./internal/runtime/ -v

# crashsoak sweeps every injected crash point of the durability layer: for
# each counted disk operation (journal write, fsync, snapshot rename) the
# soak re-runs the event schedule with a crash armed at that point, restarts
# from disk, and asserts recovery is audit-clean and byte-identical to a
# never-crashed reference runtime. The warm-restart tests assert graceful
# shutdown recovers from the snapshot with zero replayed records.
crashsoak:
	$(GO) test -race -count=1 -run 'TestCrashSoak|TestWarmRestartRecoversWithZeroReplay|TestCrashSweepEveryPoint|TestCrashDuringSnapshotRename|TestDurableRestartRoundTrip' \
		./internal/store/ ./internal/runtime/ ./internal/server/ -v

# fastsoak is the swap-under-load race soak for the compiled
# flow-classification fast path: reader goroutines hammer compiled lookups
# while the runtime reconfigures, rolls back, and escalates — every swap
# republishes the structure atomically. Run under -race; every observed
# path is replayed post-hoc against the rule set of the generation that
# served it, and the generation counter must be monotone.
fastsoak:
	$(GO) test -race -count=1 -run TestFastpathSwapSoak ./internal/runtime/ -v

# bench runs the end-to-end event-to-installed benchmark (bench/README.md)
# as a report: all four workloads, three seeds untraced plus one traced run
# each — several minutes. One run of one workload:
# bash bench/run.sh --workload churn-ans --seed 1 --trace 0
bench:
	bash bench/run.sh

# bench-lp runs the simplex microbenchmarks directly (cold solve, the
# branch-and-bound warm re-solve pattern, and one basis refactorization at
# period-model size, where a cubic term would show) with allocation counts.
bench-lp:
	$(GO) test -run xxx -bench 'BenchmarkLP' -benchmem ./internal/lp/

# bench-paths runs the topology lookup microbenchmarks with allocation
# counts: a cold path enumeration of every pair of the fig11 Cwix instance
# (what a cold start pays), and resolving both groups of its 50 policies
# to endpoints (what every model build and dependency index pays).
bench-paths:
	$(GO) test -run xxx -bench 'BenchmarkEnumerateCold|BenchmarkEndpointsMatching' -benchmem ./internal/paths/ ./internal/topo/

# bench-dataplane runs the dataplane microbenchmarks with allocation
# counts on the fig11 Ans install: a delivering forwarding walk and an
# isolation miss (what every audit probe pays), planning one endpoint
# move's target against the installed rules, and compiling the fast path
# from them (what every install pays).
bench-dataplane:
	$(GO) test -run xxx -bench 'BenchmarkNetworkLookup|BenchmarkPlanUpdate|BenchmarkRecompile' -benchmem ./internal/dataplane/

# bench-ablation runs every body of the root package's ablation benchmarks
# once (candidate-path count k, warm vs cold start, the raw simplex, and the
# temporal greedy chain vs the Eqn 9 joint solve), so a change that breaks
# one fails here rather than only when someone next times it.
bench-ablation:
	$(GO) test -run '^$$' -bench Ablation -benchtime 1x .

# difftest runs the differential solver harness: seeded random MILPs plus
# corpus replays of real period models, one worker vs. many, re-verified
# feasible, and the one-worker tree held to its recording. This is the
# permanent gate for solver changes.
difftest:
	$(GO) test -race -count=1 ./internal/milp/difftest/ -run TestDifferential -v
	$(GO) test -race -count=1 ./internal/core/ -run TestDifferentialCorpus -v

# deltadiff runs the incremental-reconfiguration differential harness under
# the race detector: twin runtimes (delta on vs off) replay seeded event
# schedules — moves, link failures/restores, period advances, escalations,
# injected faults — and every installed result, metric-visible satisfaction
# count, and journal replay must match byte-for-byte. This is the permanent
# gate for delta-solve changes, alongside the unit/edge-case suites.
# TestResolveReplay re-solves the fault-free journal: each record's input,
# fed to a fresh runtime at one solver worker, must reproduce the recorded
# result, so a solver or model change shows which recorded events moved.
# TestEventLedger holds two seeded streams to a per-event golden (delta or
# full, affected and frozen counts, nodes, pivots, record hash); rerun it
# with UPDATE_GOLDEN=1 only for a change that means to move it.
# The paths run holds selective link invalidation to a fresh enumeration and
# Valid's output to a reference enumeration on the fig11 instances.
deltadiff:
	$(GO) test -race -count=1 -run 'TestDeltaDiff|TestResolveReplay' ./internal/runtime/ -v
	$(GO) test -race -count=1 -run 'TestDelta|TestQuarantineSeedsZeroHopPolicy|TestUpdateGraphSolvesFullyUntilInstall|TestRestoreServesDeltaAtOnce|TestEventLedger' ./internal/core/ ./internal/runtime/
	$(GO) test -race -count=1 -run 'TestInvalidateLink|TestValidOrderPinned' ./internal/paths/

# fuzz gives the LP fuzzer a short budget beyond its checked-in seed corpus;
# CI runs this as a smoke, leave it running locally to hunt.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzLPSolve -fuzztime=$(FUZZTIME) ./internal/lp/

# fuzz-fastpath runs the compiled-vs-interpreted differential fuzzer:
# random topologies and rule sets, with every (src, dst, proto, port) probe
# required to return identical paths and errors from both lookups.
fuzz-fastpath:
	$(GO) test -fuzz=FuzzCompiledLookup -fuzztime=$(FUZZTIME) ./internal/dataplane/

# check is the quick local gate: compile, gofmt, vet, januslint, and the
# shuffled test suite under the race detector. CI also runs difftest,
# deltadiff, the chaos, crash and fastpath soaks, the two fuzz smokes, and
# bench-ablation.
check: build fmt vet lint test-race
