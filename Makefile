GO ?= go

# Packages whose concurrency matters most; `make race` keeps them honest.
# store, vts, sindex and tstore are the state every injector and every
# one-shot share; every connection and every firing reads strserver and
# exec (the two add about 3 s under -race on a 2-vCPU host).
RACE_PKGS := ./internal/core/... ./internal/fabric/... ./internal/server/... \
             ./internal/client/... ./internal/chaos/... ./internal/obs/... \
             ./internal/flow/... ./internal/stream/... ./internal/soak/... \
             ./internal/member/... ./internal/wire/... ./internal/cluster/... \
             ./internal/trace/... ./internal/stats/... ./internal/oplog/... \
             ./internal/store/... ./internal/vts/... ./internal/sindex/... \
             ./internal/tstore/... ./internal/strserver/... ./internal/exec/...

.PHONY: all ci fmt vet build build-cmds examples test shapes race faults fuzz-short smoke soak soak-short chaos-proc bench bench-smoke bench-e2e bench-compare clean

all: ci

# The full gate: what CI runs, in order.
ci: fmt vet build build-cmds examples test shapes race faults fuzz-short soak-short chaos-proc

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

# Build and run each example program under examples/; a non-zero exit fails.
# Each runs in well under a second on a 2-vCPU host.
examples:
	@set -e; for d in examples/*/; do echo "$(GO) run ./$$d"; $(GO) run ./$$d > /dev/null; done

test:
	$(GO) test ./...

# The paper's evaluation shapes (EXPERIMENTS.md) as a gate, on equal work:
# every baseline answers L1–L6 and C1–C11 with Wukong+S's rows, from the
# tuples the engine's Driver emitted (TestSystemsAgree). Then Table 2's
# ordering, Table 4's unsupported cells, Table 5's RDMA penalty, Fig. 4's
# cross-system share, Fig. 12's Group II speed-up, Table 9's Wukong+S ≪
# Storm+Wukong ≪ Spark Streaming (each a ratio with a margin under
# spin-injected latency), Table 6's index-free GPS stream and per-batch cost
# ≪ the batch interval, and Table 7's index < raw data with PO-L amortizing
# better than PO (every *Shape test). About 5 s of test time (6 s with the
# build) on a 2-vCPU host; Tables 6 and 7 take 0.03 s of it.
shapes:
	$(GO) test -count=1 -run 'Shape$$|^TestSystemsAgree$$|^TestTable4StructuredStreamingUnsupported$$|^TestFig4CrossSystemCost$$' ./internal/bench/experiments

race:
	$(GO) test -race $(RACE_PKGS)

# Replication under wire faults, five times over: 15 % drops, 10 % dups and
# 5 % bit flips on the seed's frames, with nothing on the broadcast retrying,
# must converge; a round trip that times out behind a damaged length prefix
# must drop its socket so the next one redials; and a peer that stops
# answering on open sockets must neither stall a survivor's Status or
# detector reads past 20 ms nor escape being declared dead, and once the
# authority has declared it dead must cost no write on the authority 100 ms;
# a member must ack a forwarded write, from its own apply, while the
# authority's apply of it is held; and a join, a resume, a takeover and an
# anti-entropy pull that meet a compacted donor must each return with the
# donor's seq and rows, where a caller that returns while a catch-up is
# still running fails. A wedge that comes back shows here as a failure, not
# as a one-in-four flake. About 45 s of wall time on a 2-vCPU host.
faults:
	$(GO) test -count=5 -run 'TestClusterTCPReplicationUnderWireFaults$$|TestTCPTimedOutCallRedialsPastDamagedLengthPrefix$$|TestHungPeerStallsNoLivenessRead$$|TestHungPeerStallsNoWriteOnceDead$$|TestForwardAckPrecedesAuthorityApply$$|TestSnapshotCatchUpFarBehindDefaultWindow$$|TestResumeAsMemberFromCompactedDonor$$|TestTakeoverReconcilesFromCompactedSurvivor$$|TestAntiEntropyFromCompactedAuthority$$' ./internal/cluster ./internal/wire

# Five seconds of native fuzzing per target where bytes cross a trust
# boundary, and where one model checks a whole query path: the wire frame
# decoder never panics, re-encodes what it decodes to the same bytes, and
# types its errors the way Resyncable says; a daemon's connection handler
# never panics on arbitrary request bytes, frames every reply line as a
# status line, a counted row or ".", and leaves the next connection served;
# the op decoder never panics and
# round-trips, the verb interpreter never panics and leaves
# no trace of an op it refuses, the in-memory tuple parser never panics and
# agrees with the streaming Reader, the key scanner EMIT interns from agrees
# with that parser, every tuple the renderer writes parses back to itself,
# the durable log's Open never panics on a damaged segment, counts damage
# exactly when a non-zero byte follows its records, and leaves a log that
# ranges and appends cleanly, a snapshot file either loads to a payload
# that saves back to the same bytes or is quarantined, a cluster snapshot
# transcript restores into a fresh daemon or fails with an error, a store
# shard answers every drawn append, prune and read the way a plain model
# does, a one-shot over a drawn graph, query and engine configuration
# answers what a nested-loop model over term strings answers, and the query
# parser never panics on arbitrary text and renders what it accepts back to
# a query that parses to the same thing. -fuzz takes one target per run.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzServerRequest$$' -fuzztime 5s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeOp$$' -fuzztime 5s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzApplyVerb$$' -fuzztime 5s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzApplySnapshot$$' -fuzztime 5s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzShardMatchesModel$$' -fuzztime 5s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzParseTuples$$' -fuzztime 5s ./internal/rdf
	$(GO) test -run '^$$' -fuzz '^FuzzTupleKeys$$' -fuzztime 5s ./internal/rdf
	$(GO) test -run '^$$' -fuzz '^FuzzTupleRoundTrip$$' -fuzztime 5s ./internal/rdf
	$(GO) test -run '^$$' -fuzz '^FuzzOplogOpen$$' -fuzztime 5s ./internal/oplog
	$(GO) test -run '^$$' -fuzz '^FuzzLoadSnapshot$$' -fuzztime 5s ./internal/oplog
	$(GO) test -run '^$$' -fuzz '^FuzzOneShot$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/sparql

# Quick confidence pass, including the chaos kill/recover smoke test.
smoke:
	$(GO) test -short ./...

# Overload/degradation soak (DESIGN.md §10): three-phase pressure run under
# the race detector, asserting the degradation contract (bounded queue, exact
# shed accounting, prefix integrity, recovered throughput). It injects no
# faults: admission pressure is the only stress. soak-short is the ci-sized
# variant.
soak:
	$(GO) test -race -count=1 ./internal/soak/...

soak-short:
	$(GO) test -race -short -count=1 ./internal/soak/...

# Process-level chaos (DESIGN.md §8, §12, §15): build the real wukongsd, form
# a 3-daemon TCP cluster, and run three scenarios — a member kill -9 (survivor
# answers every one-shot sub-ms and twin-equal; rejoin + twin-equal dedup),
# an authority kill -9 (fenced succession, bounded recorded
# write-unavailability, demoted ex-seed resume, twin-equal deliveries), and a
# fourth daemon joining the running three (rank 3, equal applied sequence,
# twin-equal deliveries) — then a fourth: a standalone -data-dir daemon
# kill -9ed between acked EMITs and the ADVANCE that seals them, restarted,
# and sent the last EMIT again under its id= token (every acked tuple
# delivered exactly once). The scenarios ARE the short configuration, so
# -short changes nothing. About 5 s of wall time with the build on a 2-vCPU host.
chaos-proc:
	$(GO) test -short -count=1 -run 'TestProcClusterKillDashNine|TestProcSeedKillFailover|TestProcFourthDaemonJoins|TestProcStandaloneKillDashNine' ./internal/chaos/...

# Every benchmark reports B/op and allocs/op. BenchmarkMicro_Tick (one
# daemon-side tick: EMIT ×5, ADVANCE, POLL ×6), BenchmarkMicro_Emit (that
# tick's five EMITs alone, also in ns/tuple) and BenchmarkMicro_Query (one
# S2 probe and one S4 scan answered by the QUERY handler, on the 50 k-triple
# graph, on an engine 1 500 ticks have grown, and on that grown engine while
# another goroutine keeps ticking it: Small, Grown and Ticking) live in
# internal/server because they drive unexported handlers. BenchmarkForwardedWrite
# (internal/cluster) is one write through a member of a seed + member pair
# over loopback TCP with fsynced oplogs. BenchmarkShardGet,
# BenchmarkShardReadFrontier (128 keys per call, in ns/key) and
# BenchmarkShardAppendOne (internal/store) probe 100 k keys in random order.
# BenchmarkClientEmit (internal/client) is one 3 337-tuple EMIT against a
# server that only acknowledges; it reports ns and allocs per tuple.
# BenchmarkLexicals (internal/strserver) resolves random IDs of 400 k
# entities one Lexical call each against one Lexicals call per 64, in ns/ID.
bench:
	$(GO) test -bench . -benchtime 20x -run '^$$' . ./internal/server ./internal/cluster ./internal/store ./internal/client ./internal/strserver

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

# Two result sets of `go run ./benchmark -repeat 5 -out FILE`, cell by cell:
# the medians, their relative difference and each metric's bound. Exits 1 if
# any cell leaves its bound, e.g.
#   make bench-compare OLD=parent.json NEW=change.json
bench-compare:
	$(GO) run ./benchmark -compare $(OLD) $(NEW)

clean:
	$(GO) clean ./...
	rm -rf .bench_build benchmark/out
