GO ?= go

.PHONY: all build test benchtest short race sweep fuzz vet bench metrics perfcheck tablecheck lakecheck chaoscheck shardcheck ci

all: build vet test benchtest perfcheck tablecheck lakecheck chaoscheck shardcheck

build:
	$(GO) build ./...

# Tier-1: full unit + integration suite (sweeps at default breadth).
test:
	$(GO) test ./...

# The benchmark is a module of its own (bench/go.mod), invisible to
# `go test ./...`: its self-tests (same seed twice, traced against
# untraced, -compare bounds) run from here.
benchtest:
	$(GO) -C bench test .

# Quick iteration loop: long simulation sweeps skip or shrink.
short:
	$(GO) test -short ./...

# Race detection, including the parallel falconbench path (the worker pool
# plus a few experiments fanned across 4 goroutines). The `go test -race`
# pass includes TestSweepRaceShort: the short fault-sweep matrix at 3 seeds
# under the optimized hot path, so the batched ACK/timer path is
# race-checked against real scenario traffic, not just the bench figures.
race:
	$(GO) test -race ./...
	$(GO) run -race ./cmd/falconbench -quick -parallel 4 -run 'fig18|fig19|fig21|fig22a|fig23' >/dev/null

# Full fault-sweep matrix and determinism checks, verbose.
sweep:
	$(GO) test -v -run 'TestSweep|TestDeterminism|TestExperimentDeterminism' \
		./internal/testkit/ ./internal/experiments/

# Wire-format fuzzing plus the two differential fuzzers: the SACK scan
# (word-at-a-time bitmap walk vs the naive per-PSN loop, across the uint32
# PSN wrap) and the scheduler (timing wheel vs reference heap delivery
# order over schedule/stop/RunUntil scripts; the engine would otherwise
# spend most of the 30 s minimizing each new-coverage script, so that is
# capped at 1 s). Bounded; remove -fuzztime to run until interrupted.
fuzz:
	$(GO) test -fuzz FuzzUnmarshal -fuzztime 30s ./internal/falcon/wire/
	$(GO) test -fuzz FuzzSACKScan -fuzztime 30s ./internal/falcon/pdl/
	$(GO) test -fuzz FuzzWheelHeapOrder -fuzztime 30s -fuzzminimizetime 1s ./internal/sim/

vet:
	$(GO) vet ./...
	$(GO) -C bench vet .
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l flags:"; echo "$$unformatted"; exit 1; fi

# Performance: scheduler microbenchmarks (wheel vs heap at 1k/32k/1M
# pending timers and at fabric_scale's slot density; DESIGN.md §8), then
# the repository benchmark — the four BENCHMARK.json workloads end to end
# at one seed (bench/README.md defines every metric). Each result is
# printed and appended to $(BENCH_OUT); two such files compare with
# `go run -C bench falcon/bench -compare a b`.
BENCH_OUT ?= bench.jsonl
BENCH_SEED ?= 1
bench:
	$(GO) test -run NONE -bench 'BenchmarkScheduler' -benchmem ./internal/sim/
	for w in fabric_scale oprate_small lossy_mixed incast_conns; do \
		$(GO) run -C bench falcon/bench -workload $$w -seed $(BENCH_SEED) \
			-out $(abspath $(BENCH_OUT)) || exit 1; \
	done

# Regenerate the committed telemetry artifacts: deterministic per-figure
# metric snapshots (BENCH_pr3_metrics.json) and virtual-clock time series
# (BENCH_pr3_series/*.csv) for the loss-recovery, incast and multipath
# figures. Byte-identical across reruns — `git diff` after this target
# should be empty unless behaviour changed. See DESIGN.md §9.
metrics:
	$(GO) run ./cmd/falconbench -quick -run 'fig10|fig13|fig15' \
		-metrics BENCH_pr3_metrics.json -series BENCH_pr3_series
	$(GO) run ./cmd/falconbench -quick -run 'figRouting|figGrayFailure' \
		-metrics BENCH_pr8_metrics.json
	$(GO) run ./cmd/falconbench -quick -run 'figStorm|figEndpointFault' \
		-metrics BENCH_pr9_metrics.json

# Fast-path regression gate: the zero-alloc assertions on the fabric hot
# path (port send, switch forward with every routing policy, host
# deliver, AtAction dispatch), the end-to-end transport steady-state
# alloc gate (TL push/pull and rdma.Read, unrefused and under sustained TL
# refusal), the golden sweep hashes that pin the event stream against an
# earlier build, and the trace-hash equivalence suites — wheel-vs-heap
# schedulers, pooled-vs-legacy allocation, the PR 6 legacy-vs-optimized
# PDL/TL hot path over the full 33-scenario fault-sweep matrix (plus the
# eager-vs-lazy timer oracle), and the PR 8 routing equivalence suite
# (pluggable ECMP vs the pre-extraction inline formula, spray's exact
# round-robin and adaptive's backlog avoidance through a real fabric).
# The AST lints keep map indexing and closure-based scheduling out of
# the steady-state path so regressions fail here rather than in
# profiles. See DESIGN.md §10–11, §13.
perfcheck:
	$(GO) test -run 'ZeroAlloc' -v ./internal/netsim/ ./internal/sim/
	$(GO) test -run 'TestTransportSteadyStateAllocs' -v ./internal/core/
	$(GO) test -run 'TestSweepGolden' ./internal/testkit/
	$(GO) test -short -run 'TestSweepSchedulerEquivalence|TestSweepPoolEquivalence' \
		./internal/testkit/
	$(GO) test -run 'TestSweepHotPathEquivalence|TestSweepTimerEquivalence' \
		./internal/testkit/
	$(GO) test -run 'TestECMPMatchesLegacyFormula|TestSprayFabricExactSpread|TestAdaptiveFabricAvoidsSlowUplink' \
		./internal/routing/
	$(GO) test -run 'TestHotPathLint|TestNetsimClosureFree' ./internal/testkit/

# Table gate: every cell of every quick-mode table must match the committed
# golden (only the wall-clock "(figX in <t>)" lines are stripped, as in
# shardcheck). A change that moves a number on purpose regenerates the
# golden with the same pipeline and explains the diff.
tablecheck:
	$(GO) run ./cmd/falconbench -quick | sed '/ in /d' | \
		diff -u cmd/falconbench/testdata/quick_tables.golden -

# Telemetry-lake gate over the committed BENCH artifacts (see DESIGN.md
# §12, METRICS.md): two independent ingests must be byte-identical, the
# pr3/pr8 self-diffs must report zero findings, and the doc/lint tests
# keep METRICS.md complete and every internal/ package documented.
lakecheck:
	$(GO) run ./cmd/falconlake ingest -out /tmp/falconlake_a.idx \
		BENCH_pr3_metrics.json BENCH_pr3_series BENCH_pr5.json BENCH_pr6.json \
		BENCH_pr8_metrics.json BENCH_pr9_metrics.json \
		BENCH_pr10_single.json BENCH_pr10.json
	$(GO) run ./cmd/falconlake ingest -out /tmp/falconlake_b.idx \
		BENCH_pr3_metrics.json BENCH_pr3_series BENCH_pr5.json BENCH_pr6.json \
		BENCH_pr8_metrics.json BENCH_pr9_metrics.json \
		BENCH_pr10_single.json BENCH_pr10.json
	cmp /tmp/falconlake_a.idx /tmp/falconlake_b.idx
	$(GO) run ./cmd/falconlake diff -index /tmp/falconlake_a.idx pr3 pr3
	$(GO) run ./cmd/falconlake diff -index /tmp/falconlake_a.idx pr8 pr8
	$(GO) run ./cmd/falconlake diff -index /tmp/falconlake_a.idx pr9 pr9
	$(GO) run ./cmd/falconlake diff -index /tmp/falconlake_a.idx pr10 pr10
	$(GO) run ./cmd/falconlake list -index /tmp/falconlake_a.idx
	rm -f /tmp/falconlake_a.idx /tmp/falconlake_b.idx
	$(GO) test -run 'TestLake|TestDiff|TestQuerier|TestParsePath|TestPathClass|TestTrend' ./internal/lake/
	$(GO) test -run 'TestMetricsDocComplete' ./internal/telemetry/
	$(GO) test -run 'TestPackageDocLint' ./internal/testkit/

# Chaos gate (see DESIGN.md §14, EXPERIMENTS.md PR 9): storm campaigns are
# part of the deterministic event stream, so the gate is exact — two
# falconbench runs under the same -storm seed must write byte-identical
# metrics JSON (the whole chaos telemetry layer is exact-class, recovery
# gaps included), the frame-conservation ledger must close for every storm
# and endpoint-fault scenario, and the 3-seed short sweep runs under the
# race detector so fault injection is checked against real transport
# traffic, not just replayed tables.
chaoscheck:
	$(GO) run ./cmd/falconbench -quick -storm 71 \
		-metrics /tmp/falconstorm_a.json >/dev/null
	$(GO) run ./cmd/falconbench -quick -storm 71 \
		-metrics /tmp/falconstorm_b.json >/dev/null
	cmp /tmp/falconstorm_a.json /tmp/falconstorm_b.json
	rm -f /tmp/falconstorm_a.json /tmp/falconstorm_b.json
	$(GO) test ./internal/chaos/
	$(GO) test -run 'TestStormLedgerHolds|TestEndpointFaultOutcomes|TestStormSeedOverride' \
		./internal/experiments/
	$(GO) test -race -run 'TestStormSweepShort|TestStormDeterminism' ./internal/experiments/

# Sharded-simulation gate (see DESIGN.md §15, EXPERIMENTS.md PR 10). The
# partitioned event loop must be invisible in every output: the unit and
# equivalence suites check per-partition wheels against the single loop
# (33-scenario fault-sweep trace hashes and experiment tables at 1/2/4
# partitions), then the full quick falconbench table set is diffed
# byte-for-byte between -shards 1, 2 and 4 (only the wall-clock " in <t>"
# timing lines are stripped — every table cell must match). The -race pass
# covers the experimental -shardpar mode: partitions on concurrent
# goroutines with conservative lookahead must be self-deterministic and
# race-clean.
shardcheck:
	$(GO) test -run 'TestShard|TestCross|TestLookahead' ./internal/sim/
	$(GO) test -run 'TestSweepShard|TestShard' ./internal/testkit/
	$(GO) test -run 'TestShardTableEquivalence' ./internal/experiments/
	$(GO) run ./cmd/falconbench -quick | sed '/ in /d' > /tmp/falconshard_1.txt
	$(GO) run ./cmd/falconbench -quick -shards 2 | sed '/ in /d' > /tmp/falconshard_2.txt
	$(GO) run ./cmd/falconbench -quick -shards 4 | sed '/ in /d' > /tmp/falconshard_4.txt
	cmp /tmp/falconshard_1.txt /tmp/falconshard_2.txt
	cmp /tmp/falconshard_1.txt /tmp/falconshard_4.txt
	rm -f /tmp/falconshard_1.txt /tmp/falconshard_2.txt /tmp/falconshard_4.txt
	$(GO) test -race -run 'TestSweepShardParallelDeterminism' ./internal/testkit/
	$(GO) test -race -run 'TestShardParallelFigScale' ./internal/experiments/

# Regenerate every table at full measurement windows (several minutes).
bench-full:
	$(GO) run ./cmd/falconbench

.PHONY: bench-full

ci: vet build test race
