GO ?= go

# Packages whose concurrency matters most; `make race` keeps them honest.
# store, vts, sindex and tstore are the state every injector and every
# one-shot share.
RACE_PKGS := ./internal/core/... ./internal/fabric/... ./internal/server/... \
             ./internal/client/... ./internal/chaos/... ./internal/obs/... \
             ./internal/flow/... ./internal/stream/... ./internal/soak/... \
             ./internal/member/... ./internal/wire/... ./internal/cluster/... \
             ./internal/trace/... ./internal/stats/... ./internal/oplog/... \
             ./internal/store/... ./internal/vts/... ./internal/sindex/... \
             ./internal/tstore/...

.PHONY: all ci fmt vet build build-cmds test race fuzz-short smoke soak soak-short chaos-proc bench bench-smoke bench-e2e clean

all: ci

# The full gate: what CI runs, in order.
ci: fmt vet build build-cmds test race fuzz-short soak-short chaos-proc

# Format gate: any file gofmt would rewrite fails the build.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Build-only guard for the binaries: catches flag/wiring breakage in the
# commands without running a workload.
build-cmds:
	$(GO) build -o /dev/null ./cmd/wukongsd
	$(GO) build -o /dev/null ./cmd/wsbench

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Five seconds of native fuzzing per target where bytes cross a trust
# boundary: the op decoder never panics and round-trips, the verb interpreter
# never panics and leaves no trace of an op it refuses, the in-memory tuple
# parser never panics and agrees with the streaming Reader, and the durable
# log's Open never panics on a damaged segment and leaves a log that ranges
# and appends cleanly. -fuzz takes one target per run.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeOp$$' -fuzztime 5s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzApplyVerb$$' -fuzztime 5s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzParseTuples$$' -fuzztime 5s ./internal/rdf
	$(GO) test -run '^$$' -fuzz '^FuzzOplogOpen$$' -fuzztime 5s ./internal/oplog

# Quick confidence pass, including the chaos kill/recover smoke test.
smoke:
	$(GO) test -short ./...

# Overload/degradation soak (DESIGN.md §10): three-phase pressure run under
# the race detector, asserting the degradation contract. soak-short is the
# ci-sized variant.
soak:
	$(GO) test -race -count=1 ./internal/soak/...

soak-short:
	$(GO) test -race -short -count=1 ./internal/soak/...

# Process-level chaos (DESIGN.md §12, §15): build the real wukongsd, form a
# 3-daemon TCP cluster, and run three scenarios — a member kill -9 (survivor
# answers every one-shot sub-ms and twin-equal; rejoin + twin-equal dedup),
# an authority kill -9 (fenced succession, bounded recorded
# write-unavailability, demoted ex-seed resume, twin-equal deliveries), and a
# fourth daemon joining the running three (rank 3, equal applied sequence,
# twin-equal deliveries). The scenarios ARE the short configuration, so
# -short changes nothing.
chaos-proc:
	$(GO) test -short -count=1 -run 'TestProcClusterKillDashNine|TestProcSeedKillFailover|TestProcFourthDaemonJoins' ./internal/chaos/...

# Every benchmark reports B/op and allocs/op. BenchmarkMicro_Tick (one
# daemon-side tick: EMIT ×5, ADVANCE, POLL ×6) lives in internal/server
# because it drives the unexported POLL handler. BenchmarkForwardedWrite
# (internal/cluster) is one write through a member of a seed + member pair
# over loopback TCP with fsynced oplogs. BenchmarkShardGet and
# BenchmarkShardAppendOne (internal/store) probe 100 k keys in random order.
bench:
	$(GO) test -bench . -benchtime 20x -run '^$$' . ./internal/server ./internal/cluster ./internal/store

# Short observability-instrumented workload: prints per-stage p50/p99/p999 and
# writes the metric registry under .bench_build/. wsbench exits nonzero if no
# stage samples were recorded, so this target fails when the instrumentation
# goes dark.
bench-smoke:
	mkdir -p .bench_build
	$(GO) run ./cmd/wsbench -exp table2 -runs 3 -latency off -obs-json .bench_build/bench-smoke.json

# The repository's one client-observed benchmark (benchmark/README.md): real
# daemons over loopback, three workloads, the metrics BENCHMARK.json declares.
bench-e2e:
	$(GO) run ./benchmark

clean:
	$(GO) clean ./...
	rm -rf .bench_build benchmark/out
