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
# timers and at fabric_scale's slot density; DESIGN.md §8), the TL's cost
# per acknowledged transaction at windows 8 and 128, ordered and unordered
# (DESIGN.md §5), a node's cost per delivered packet at 1 and 1 000
# endpoints (DESIGN.md §11), then the repository benchmark — the four BENCHMARK.json workloads end to end
# at one seed (bench/README.md defines every metric). Each result is
# printed and appended to $(BENCH_OUT); two such files compare with
# `go run -C bench falcon/bench -compare a b`.
BENCH_OUT ?= bench.jsonl
BENCH_SEED ?= 1
bench:
	$(GO) test -run NONE -bench 'BenchmarkScheduler' -benchmem ./internal/sim/
	$(GO) test -run NONE -bench 'BenchmarkPacketAcked' -benchmem ./internal/falcon/tl/
	$(GO) test -run NONE -bench 'BenchmarkHandleFrame' -benchmem ./internal/core/
	for w in fabric_scale oprate_small lossy_mixed incast_conns; do \
		$(GO) run -C bench falcon/bench -workload $$w -seed $(BENCH_SEED) \
			-out $(abspath $(BENCH_OUT)) || exit 1; \
	done

# The committed telemetry artifacts: deterministic per-figure metric
# snapshots (BENCH_pr{3,8,9}_metrics.json) and virtual-clock time series
# (BENCH_pr3_series/*.csv) for the loss-recovery, incast, multipath,
# routing and storm figures. $(call metrics_runs,DIR) regenerates them
# into DIR; the bytes repeat on every rerun (DESIGN.md §9), so `make
# metrics` leaves `git diff` empty unless behaviour changed, and `make
# check` compares a regeneration with the committed files byte for byte.
METRICS_SNAPSHOTS = BENCH_pr3_metrics.json BENCH_pr8_metrics.json BENCH_pr9_metrics.json
define metrics_runs
	$(GO) run ./cmd/falconbench -quick -run 'fig10|fig13|fig15' \
		-metrics $(1)/BENCH_pr3_metrics.json -series $(1)/BENCH_pr3_series
	$(GO) run ./cmd/falconbench -quick -run 'figRouting|figGrayFailure' \
		-metrics $(1)/BENCH_pr8_metrics.json
	$(GO) run ./cmd/falconbench -quick -run 'figStorm|figEndpointFault' \
		-metrics $(1)/BENCH_pr9_metrics.json
endef

metrics:
	$(call metrics_runs,.)

# The gate beyond `make test` (which already runs every Go test, the
# goldens and lints included): what a Go test in this module cannot do.
#
#   - The benchmark is a module of its own (bench/go.mod), invisible to
#     `go test ./...`: its self-tests (same seed twice, traced against
#     untraced, -compare bounds) run here.
#   - Tables: every cell of every quick-mode table, and every figure's
#     exact event count, must match the committed golden. STRIP_WALL
#     turns each "(figX in <t>, <n> events)" line into "(figX, <n>
#     events)", dropping only the wall time. A change that moves a number
#     on purpose regenerates the golden with the same pipeline and
#     explains the diff.
#   - Committed artifacts (DESIGN.md §12): the metrics snapshots and
#     series are regenerated into $(CHECKDIR) and must match the
#     committed files byte for byte (`cmp`, `diff -r`). `falconlake diff`
#     judges each committed bench before/after pair in LAKE_PAIRS (exact
#     record fields identical seed by seed; each host metric judged per
#     workload over the seed set). A pair whose code moved events on
#     purpose goes in LAKE_LISTED instead, which only the tier-1
#     TestLakeBenchPairs reads, to check that the records still parse:
#     in BENCH_pr32_{before,after}.jsonl, Xon-driven admission moves
#     incast_conns and lossy_mixed by design, and `falconlake diff`
#     fails on any exact drift.
#   - Storms (DESIGN.md §14): two falconbench runs under one -storm seed
#     must write byte-identical metrics JSON.
#   - Race detector over the storm sweeps.
STRIP_WALL = sed -E 's/^\(([^ ]+) in [^,]+,/(\1,/'
CHECKDIR ?= $(or $(TMPDIR),/tmp)/falcon-check
LAKE_PAIRS = pr17 pr17_extra pr18 pr26 pr27 pr28 pr29 pr30 pr31 pr34 pr36 pr37 pr38 pr39 pr40 pr41 pr43 pr45 pr48 pr49 pr52 pr53 pr54 pr55 pr56 pr58 pr59 pr60
LAKE_LISTED = BENCH_pr32_before.jsonl BENCH_pr32_after.jsonl
check:
	$(GO) -C bench test .
	$(GO) run ./cmd/falconbench -quick | $(STRIP_WALL) | \
		diff -u cmd/falconbench/testdata/quick_tables.golden -
	rm -rf $(CHECKDIR)
	mkdir -p $(CHECKDIR)
	$(call metrics_runs,$(CHECKDIR))
	for a in $(METRICS_SNAPSHOTS); do cmp $$a $(CHECKDIR)/$$a || exit 1; done
	diff -r BENCH_pr3_series $(CHECKDIR)/BENCH_pr3_series
	$(GO) build -o $(CHECKDIR)/falconlake ./cmd/falconlake
	for p in $(LAKE_PAIRS); do \
		$(CHECKDIR)/falconlake diff BENCH_$${p}_before.jsonl BENCH_$${p}_after.jsonl || exit 1; \
	done
	$(GO) run ./cmd/falconbench -quick -storm 71 -metrics $(CHECKDIR)/storm_a.json >/dev/null
	$(GO) run ./cmd/falconbench -quick -storm 71 -metrics $(CHECKDIR)/storm_b.json >/dev/null
	cmp $(CHECKDIR)/storm_a.json $(CHECKDIR)/storm_b.json
	rm -rf $(CHECKDIR)
	$(GO) test -race -run 'TestStormSweepShort|TestStormDeterminism' ./internal/experiments/

# Regenerate every table at full measurement windows (several minutes).
bench-full:
	$(GO) run ./cmd/falconbench

.PHONY: bench-full

ci: vet build test race
