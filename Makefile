GO ?= go

.PHONY: all build test check short race sweep fuzz vet bench metrics ci

all: build vet test check

build:
	$(GO) build ./...

# Tier-1: full unit + integration suite (sweeps at default breadth).
test:
	$(GO) test ./...

# Quick iteration loop: long simulation sweeps skip or shrink.
short:
	$(GO) test -short ./...

# Race detection, including the parallel falconbench path (the worker pool
# plus a few experiments fanned across 4 goroutines). The `go test -race`
# pass includes TestSweepRaceShort: the short fault-sweep matrix at 3 seeds,
# so the batched ACK/timer path is race-checked against real scenario
# traffic, not just the bench figures.
race:
	$(GO) test -race ./...
	$(GO) run -race ./cmd/falconbench -quick -parallel 4 -run 'fig18|fig19|fig21|fig22a|fig23' >/dev/null

# Full fault-sweep matrix and determinism checks, verbose.
sweep:
	$(GO) test -v -run 'TestSweep|TestDeterminism|TestExperimentDeterminism' \
		./internal/testkit/ ./internal/experiments/

# Wire-format fuzzing plus the two differential fuzzers: the SACK scan
# (word-at-a-time bitmap walk vs the naive per-PSN loop, across the uint32
# PSN wrap) and the scheduler (the wheel vs the test-only heap reference,
# compared on delivery order over schedule/stop/RunUntil scripts; the
# engine would otherwise spend most of the 30 s minimizing each
# new-coverage script, so that is capped at 1 s). Bounded; remove
# -fuzztime to run until interrupted.
fuzz:
	$(GO) test -fuzz FuzzUnmarshal -fuzztime 30s ./internal/falcon/wire/
	$(GO) test -fuzz FuzzSACKScan -fuzztime 30s ./internal/falcon/pdl/
	$(GO) test -fuzz FuzzWheelHeapOrder -fuzztime 30s -fuzzminimizetime 1s ./internal/sim/

vet:
	$(GO) vet ./...
	$(GO) -C bench vet .
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l flags:"; echo "$$unformatted"; exit 1; fi

# Performance: scheduler microbenchmarks (the wheel at 1k/32k/1M pending
# timers and at fabric_scale's slot density; DESIGN.md §8), then
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

# The gate beyond `make test` (which already runs every Go test, the
# goldens and lints included): what a Go test in this module cannot do.
#
#   - The benchmark is a module of its own (bench/go.mod), invisible to
#     `go test ./...`: its self-tests (same seed twice, traced against
#     untraced, -compare bounds) run here.
#   - Tables: every cell of every quick-mode table must match the
#     committed golden, and quick figScale on four concurrent partitions
#     (-shards 4) must match its own golden (only the
#     "(figX in <t>, <n> events)" lines are stripped). A change that moves a number on
#     purpose regenerates the golden with the same pipeline and explains
#     the diff. See DESIGN.md §15 for the partitioned engine.
#   - Telemetry lake over the committed BENCH artifacts (DESIGN.md §12,
#     METRICS.md): `falconlake watch` regenerates each committed metrics
#     snapshot and must find nothing; `falconlake diff` compares each
#     committed bench before/after pair seed by seed (exact metrics
#     identical, no host metric >25% worse); the committed series
#     (BENCH_pr3_series, regenerated by `make metrics`) must ingest
#     cleanly. A pair whose code moved events on purpose is listed, not
#     diffed: in BENCH_pr32_{before,after}.jsonl, Xon-driven admission
#     moves incast_conns and lossy_mixed by design, and `falconlake diff`
#     fails on any exact drift.
#   - Storms (DESIGN.md §14): two falconbench runs under one -storm seed
#     must write byte-identical metrics JSON.
#   - Race detector over the concurrent paths: storm sweeps, and the
#     partitioned engine (-shards N, figScale only), whose partitions run
#     on goroutines under conservative lookahead windows and must stay
#     self-deterministic.
CHECKDIR ?= $(or $(TMPDIR),/tmp)/falcon-check
LAKE_WATCHED = BENCH_pr3_metrics.json BENCH_pr8_metrics.json BENCH_pr9_metrics.json
LAKE_PAIRS = pr17 pr17_extra pr18 pr26 pr27 pr28 pr29 pr30 pr31
LAKE_LISTED = BENCH_pr3_series BENCH_pr32_before.jsonl BENCH_pr32_after.jsonl
check:
	$(GO) -C bench test .
	$(GO) run ./cmd/falconbench -quick | sed '/ in /d' | \
		diff -u cmd/falconbench/testdata/quick_tables.golden -
	$(GO) run ./cmd/falconbench -quick -run figScale -shards 4 | sed '/ in /d' | \
		diff -u cmd/falconbench/testdata/figscale_shards4.golden -
	mkdir -p $(CHECKDIR)
	$(GO) build -o $(CHECKDIR)/falconlake ./cmd/falconlake
	for a in $(LAKE_WATCHED); do $(CHECKDIR)/falconlake watch $$a || exit 1; done
	for p in $(LAKE_PAIRS); do \
		$(CHECKDIR)/falconlake diff BENCH_$${p}_before.jsonl BENCH_$${p}_after.jsonl || exit 1; \
	done
	$(CHECKDIR)/falconlake list $(LAKE_LISTED)
	$(GO) run ./cmd/falconbench -quick -storm 71 -metrics $(CHECKDIR)/storm_a.json >/dev/null
	$(GO) run ./cmd/falconbench -quick -storm 71 -metrics $(CHECKDIR)/storm_b.json >/dev/null
	cmp $(CHECKDIR)/storm_a.json $(CHECKDIR)/storm_b.json
	rm -rf $(CHECKDIR)
	$(GO) test -race -run 'TestStormSweepShort|TestStormDeterminism|TestShardParallelFigScale' \
		./internal/experiments/
	$(GO) test -race -run 'TestSweepShardParallelDeterminism' ./internal/testkit/

# Regenerate every table at full measurement windows (several minutes).
bench-full:
	$(GO) run ./cmd/falconbench

.PHONY: bench-full

ci: vet build test race
