GO ?= go

.PHONY: all build fmt vet lint test test-race chaos crashsoak fastsoak soaklists check bench bench-lp bench-paths bench-dataplane bench-ablation fuzz fuzz-fastpath difftest deltadiff loc

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

# loc prints the product line count the ROADMAP standing rules cite: the
# non-blank lines of non-test .go files under cmd/ and internal/, without
# internal/analysis and testdata directories.
loc:
	@find cmd internal -name '*.go' ! -name '*_test.go' ! -path 'internal/analysis/*' ! -path '*/testdata/*' \
		-exec cat {} + | grep -cv '^[[:space:]]*$$'

# test-race shuffles test order (-shuffle=on) to flush hidden inter-test
# ordering dependencies; the seed is printed on failure for replay.
test-race:
	$(GO) test -shuffle=on -race ./...

# The soaks below (chaos, crashsoak, fastsoak, deltadiff) each drive one
# seeded schedule over one or more runtimes with the oracles that hold on
# it; DESIGN.md, "Schedules and oracles", has the schedule x oracle table.
#
# chaos runs the fault-injection soak (random op failures, a mid-update
# switch crash, a link flap) under the race detector, with agg crashing
# inside a move and inside an hour tick's install, and the tests of the
# schedule loop itself (TestSchedulesReplay, TestOracleFailureNamesStep).
# TestQuarantineDuringPeriodTransition quarantines a switch at a period
# boundary: the re-solve around it must serve the tick's period.
# TestQuarantinedSwitchDoesNotWedge keeps a quarantined switch failing
# every operation: later events must still install, since its rules were
# written off with the quarantine. TestGraphSwapSolvesClockPeriod swaps in
# a graph with a firewall window at 10 h: the swap must solve the new
# graph's period at the clock. TestCrashWithCancelledContextRepublishes
# crashes a switch mid-update and cancels the event: the fast path must be
# rebuilt from the wiped table, and the audit must report it.
chaos:
	$(GO) test -race -count=1 -run 'TestChaosSoak|TestChaosSoakCrashInTick|TestSchedulesReplay|TestOracleFailureNamesStep|TestQuarantineDuringPeriodTransition|TestQuarantinedSwitchDoesNotWedge|TestGraphSwapSolvesClockPeriod|TestCrashWithCancelledContextRepublishes' ./internal/runtime/ -v

# crashsoak sweeps every injected crash point of the durability layer
# (journal write, fsync, snapshot rename): the crash schedule re-runs with
# a crash armed at each, restarts from disk, and must recover byte-identical
# to a never-crashed reference. The warm-restart tests assert graceful
# shutdown recovers from the snapshot with zero replayed records.
# TestRestoreRecoversFailedMove journals a move whose install never lands,
# so the live result fails the audit: the journal must restore to that
# state, metrics and audit findings included, not refuse it.
crashsoak:
	$(GO) test -race -count=1 -run 'TestCrashSoak|TestWarmRestartRecoversWithZeroReplay|TestCrashSweepEveryPoint|TestCrashDuringSnapshotRename|TestDurableRestartRoundTrip|TestRestoreRecoversFailedMove' \
		./internal/store/ ./internal/runtime/ ./internal/server/ -v

# fastsoak is the swap-under-load race soak for the compiled classifier:
# reader goroutines hammer compiled lookups while the fastsoak schedule
# reconfigures, rolls back and escalates; every observed path is replayed
# against the rule set of the generation that served it.
fastsoak:
	$(GO) test -race -count=1 -run TestFastpathSwapSoak ./internal/runtime/ -v

# bench runs the end-to-end event-to-installed benchmark (bench/README.md)
# as a report: all four workloads, three seeds untraced plus one traced run
# each — several minutes. One run of one workload:
# bash bench/run.sh --workload churn-ans --seed 1 --trace 0
bench:
	bash bench/run.sh

# BENCHTIME sets go test's -benchtime for bench-lp, bench-paths and
# bench-dataplane; CI runs each benchmark once with BENCHTIME=1x.
BENCHTIME ?= 1s

# bench-lp runs the simplex microbenchmarks directly (cold solve, the
# branch-and-bound warm re-solve pattern, and one basis refactorization at
# period-model size, where a cubic term would show) with allocation counts.
bench-lp:
	$(GO) test -run xxx -bench 'BenchmarkLP' -benchmem -benchtime $(BENCHTIME) ./internal/lp/

# bench-paths runs the topology lookup microbenchmarks with allocation
# counts: a cold path enumeration of every pair of the fig11 Ans and Cwix
# instances, at k = 0 and for a k = 5 candidate pool, with the search nodes
# it expands (what a cold start pays), the heap a warm path cache of those
# pairs retains after a GC at k = 5 (the candidate pool only) and k = 0 (the
# DefaultMaxPaths shortest, every valid path there), and resolving both
# groups of its 50 policies to endpoints (what every model build and
# dependency index pays).
bench-paths:
	$(GO) test -run xxx -bench 'BenchmarkEnumerateCold|BenchmarkCacheResident|BenchmarkEndpointsMatching' -benchmem -benchtime $(BENCHTIME) ./internal/paths/ ./internal/topo/

# bench-dataplane runs the dataplane microbenchmarks with allocation
# counts on the fig11 Ans install: a delivering forwarding walk and an
# isolation miss (what every audit probe pays), planning one endpoint
# move's target against the installed rules, and compiling the fast path
# from them (what every install pays).
bench-dataplane:
	$(GO) test -run xxx -bench 'BenchmarkNetworkLookup|BenchmarkPlanUpdate|BenchmarkRecompile' -benchmem -benchtime $(BENCHTIME) ./internal/dataplane/

# bench-ablation runs every body of the root package's ablation benchmarks
# once (candidate-path count k, warm vs cold start, the raw simplex, and the
# temporal greedy chain vs the Eqn 9 joint solve), so a change that breaks
# one fails here rather than only when someone next times it.
bench-ablation:
	$(GO) test -run '^$$' -bench Ablation -benchtime 1x .

# difftest runs the differential solver harness: seeded random MILPs plus
# corpus replays of real period models, one worker vs. many, re-verified
# feasible, and the one-worker tree held to its recording. This is the
# permanent gate for solver changes. It also holds the Eqn 9 joint model
# to the chain's slot rule: TestJointCouplesSharedSlots requires one α per
# (slot, path) shared by consecutive periods, and TestJointDeterministic two
# joint solves of one configurator to identical results.
difftest:
	$(GO) test -race -count=1 ./internal/milp/difftest/ -run TestDifferential -v
	$(GO) test -race -count=1 ./internal/core/ -run 'TestDifferentialCorpus|TestJointCouplesSharedSlots|TestJointDeterministic' -v

# deltadiff runs the incremental-reconfiguration differential harness under
# the race detector: twin runtimes (delta on vs off) replay the deltadiff
# schedule, with and without injected faults, and their satisfied counts
# and journal replays must agree. This is the permanent gate for
# delta-solve changes, alongside the unit/edge-case suites.
# TestResolveReplay re-solves the fault-free journal: each record's input,
# fed to a fresh runtime at one solver worker, must reproduce the recorded
# result, so a solver or model change shows which recorded events moved.
# TestResolveReplayAbandoned does the same under op faults with every other
# event abandoned while its install backs off: those steps fail after
# mutating, must leave the rules as they were, and journal rollbacks.
# A graph swap carries the live result into the new graph's policy IDs and
# delta-solves what it changed: TestCarryRenumbersByKey holds the carry,
# TestGraphSwapFullSolveHoldsPreviousPaths the full solve's view of the
# carried paths, TestGraphSwapSolvesClockPeriod the period a swap solves
# (the new graph's at the clock), TestUpdateGraphFailedSwapKeepsLiveGraph
# a failed swap, TestGraphSwapQuarantineRecovers the journal of a swap
# that quarantines, and TestConfigureSolvesOnlyChangedPolicies the
# /configure route.
# TestEventLedger holds two seeded schedules to a per-event golden (delta
# or full, affected and frozen counts, nodes, pivots, record hash); rerun
# it with UPDATE_GOLDEN=1 only for a change that means to move it.
# The paths run holds selective link invalidation, and invalidation after
# a link restore, to a fresh enumeration, Valid's output to the unpruned
# reference enumeration, and a candidate-pool enumerator's draws to a
# k = 0 one's, on the fig11 instances; and it holds the pool enumerator's cache
# to one entry per pair over repeated invalidation, and Retain to the
# entries it is told are live.
# TestCountersEscalateOnePair holds the model to a flow's counter state: an
# escalated pair is served on its escalation edge hard, and an unroutable
# escalation leaves its policy unconfigured. TestEscalationWithoutPathUnconfigures
# escalates a flow and moves its destination onto the source's switch, where
# the escalation has no path: every event must still install. And
# TestEscalationFreezesOtherPolicies trips every escalation of a fig11 Ans
# instance; one that had a reservation must move no other policy's path.
# TestQuarantineDuringPeriodTransition holds a quarantine at an hour tick to
# the tick's period, TestQuarantinedSwitchDoesNotWedge holds the events
# after a quarantine to installing while the switch keeps failing, and
# TestRestoreKeepsNFStateLedger holds a restored runtime's NF state
# transfers to the live one's.
# TestLinkEventsKeepPathPoolsFresh holds a runtime's path pools after link
# failures, restores, a quarantine and roaming endpoints to a fresh
# configurator's. TestPathCacheHoldsLiveTriples holds the path cache to the
# live (src, dst, chain) triples over 2 000 moves and relabels on fig11
# Cwix; it runs without -race, which would take minutes for one goroutine.
deltadiff:
	$(GO) test -race -count=1 -run 'TestDeltaDiff|TestResolveReplay' ./internal/runtime/ -v
	$(GO) test -race -count=1 -run 'TestDelta|TestQuarantineSeedsZeroHopPolicy|TestUpdateGraphFailedSwapKeepsLiveGraph|TestGraphSwap|TestCarryRenumbersByKey|TestConfigureSolvesOnlyChangedPolicies|TestRestoreServesDeltaAtOnce|TestRestoreKeepsNFStateLedger|TestQuarantineDuringPeriodTransition|TestQuarantinedSwitchDoesNotWedge|TestGraphSwapSolvesClockPeriod|TestEventLedger|TestLinkEventsKeepPathPoolsFresh|TestCountersEscalateOnePair|TestEscalation' ./internal/core/ ./internal/runtime/ ./internal/server/
	$(GO) test -race -count=1 -run 'TestInvalidateLink|TestInvalidateCacheDropsDistances|TestValidOrderPinned|TestValidMatchesReference|TestPoolCandidatesMatchFull|TestPoolCacheBounded|TestRetain' ./internal/paths/
	$(GO) test -count=1 -run TestPathCacheHoldsLiveTriples ./internal/runtime/ -v

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

# soaklists fails if an alternative in the -run list of chaos, crashsoak,
# fastsoak or deltadiff matches no test in the packages its command names:
# go test accepts a pattern that matches nothing, so a renamed test would
# otherwise drop out of its soak silently.
soaklists:
	$(GO) test -count=1 -run TestSoakRunListsMatchTests .

# check is the quick local gate: compile, gofmt, vet, januslint, and the
# shuffled test suite under the race detector. CI also runs difftest,
# deltadiff, soaklists, the chaos, crash and fastpath soaks, the two fuzz
# smokes, and bench-ablation.
check: build fmt vet lint test-race
