# Developer entry points; CI (.github/workflows/ci.yml) runs `make ci`'s
# constituent steps with the same flags.

GO ?= go

.PHONY: fmt build vet test race bench-check bench-json bench-scale bench-serve bench-gate perfbench-check table1 cover fuzz-short lbshard-smoke ci

# Format check: fails, listing them, when gofmt would rewrite any
# tracked Go file (the nested perfbench module's included).
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Compile-and-run every benchmark exactly once, as a smoke check.
bench-check:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Run the Table-1, batching, dynamic-event and shard-round benchmarks
# (uniform ShardRound and WeightedShardRound both match) and the
# per-node decide kernels (BenchmarkDecideNode in ./internal/core, the
# only gated run whose Algorithm 1 nodes have eligible edges and take
# over 10 ms) once and emit BENCH_core.json (ns/op plus the
# rounds/theory-rounds, allocation, bytes-per-node and ns/node metrics)
# via cmd/benchjson. The file is committed as the bench-gate baseline —
# rerun this target and commit the result when a slowdown is
# intentional. Separate steps (not a pipe) so a failing benchmark run
# fails the target instead of writing a truncated JSON.
bench-json:
	$(GO) test -run '^$$' -bench 'Table1|RoundBatchedVsPerTask|DynamicEvents|ShardRound|WeightedShardRound|WeightedCornerRound' -benchtime 1x -cpu 1 . > BENCH_core.txt
	$(GO) test -run '^$$' -bench 'DecideNode' -benchtime 1x -cpu 1 ./internal/core >> BENCH_core.txt
	$(GO) run ./cmd/benchjson < BENCH_core.txt > BENCH_core.json
	rm -f BENCH_core.txt

# Scaling benchmarks only (uniform + weighted shard engine rounds,
# instance build at n ∈ {10⁴, 10⁵, 10⁶}, and the distributed cluster
# round over net.Pipe at n ∈ {10⁵, 10⁶}), emitted as BENCH_scale.json —
# the committed bench-gate baseline recording rounds/sec, allocs/round,
# state-bytes/node and cluster wire bytes/round versus n across PRs.
bench-scale:
	$(GO) test -run '^$$' -bench 'ShardRound|WeightedShardRound|ShardBuild|WeightedCornerRound|ClusterRound' -benchtime 1x -cpu 1 . > BENCH_scale.txt
	$(GO) run ./cmd/benchjson < BENCH_scale.txt > BENCH_scale.json
	rm -f BENCH_scale.txt

# Serving-path benchmarks: batcher submit cost, full serve round and
# the sustained-throughput acceptance run (SERVE_SUSTAIN controls the
# sustained window; the committed baseline records the 10s run whose
# achieved-ops/s metric is the ≥100k/s acceptance evidence). Emitted as
# BENCH_serve.json, the committed bench-gate baseline.
SERVE_SUSTAIN ?= 10s
bench-serve:
	SERVE_SUSTAIN=$(SERVE_SUSTAIN) $(GO) test -run '^$$' -bench 'BatcherSubmit|ServeRound|ServeSustained' -benchtime 1x -cpu 1 . > BENCH_serve.txt
	$(GO) run ./cmd/benchjson < BENCH_serve.txt > BENCH_serve.json
	rm -f BENCH_serve.txt

# Regression gate: re-measure the bench-json (decide kernels included)
# and bench-scale suites into *.fresh.json and diff them against the
# committed BENCH_core.json / BENCH_scale.json baselines with
# cmd/benchgate. The gate judges fresh/baseline ns/op ratios
# normalized by their median — a uniformly slower machine cancels out,
# a single regressed benchmark does not —
# and ignores sub-10ms benchmarks (pure noise at one iteration), so it
# stays non-flaky on shared CI runners while still catching asymptotic
# hot-path regressions. Refresh the baselines with `make bench-json
# bench-scale bench-serve` and commit the JSON when a slowdown is
# intentional.
#
# The serve suite re-measures only the batcher and round benchmarks:
# ServeSustained's ns/op is its wall-clock duration (an acceptance
# record, not a regression signal), so the fresh run skips it and the
# gate reports it as baseline-only. Allocations gate too: matched
# allocs/op pairs against a growth budget, and -max-allocs pins the
# weighted shard round at n=10⁶ under 1,000 allocs/round absolutely —
# the bound the O(movers) arena decide established.
#
# Every baseline and fresh run uses -cpu 1. go test names a benchmark run
# at GOMAXPROCS N > 1 "Name-N" and benchgate joins on that name, so a
# fresh run at another -cpu than its baseline would match nothing (which
# benchgate rejects with exit 2). One core is also how the baselines
# were recorded: the engines default their worker count to GOMAXPROCS.
BENCH_GATE_TOLERANCE ?= 1.5
bench-gate:
	$(GO) test -run '^$$' -bench 'Table1|RoundBatchedVsPerTask|DynamicEvents|ShardRound|WeightedShardRound|WeightedCornerRound' -benchtime 1x -cpu 1 . > BENCH_core.fresh.txt
	$(GO) test -run '^$$' -bench 'DecideNode' -benchtime 1x -cpu 1 ./internal/core >> BENCH_core.fresh.txt
	$(GO) run ./cmd/benchjson < BENCH_core.fresh.txt > BENCH_core.fresh.json
	rm -f BENCH_core.fresh.txt
	$(GO) test -run '^$$' -bench 'ShardRound|WeightedShardRound|ShardBuild|WeightedCornerRound|ClusterRound' -benchtime 1x -cpu 1 . > BENCH_scale.fresh.txt
	$(GO) run ./cmd/benchjson < BENCH_scale.fresh.txt > BENCH_scale.fresh.json
	rm -f BENCH_scale.fresh.txt
	$(GO) test -run '^$$' -bench 'BatcherSubmit|ServeRound' -benchtime 1x -cpu 1 . > BENCH_serve.fresh.txt
	$(GO) run ./cmd/benchjson < BENCH_serve.fresh.txt > BENCH_serve.fresh.json
	rm -f BENCH_serve.fresh.txt
	$(GO) run ./cmd/benchgate -tolerance $(BENCH_GATE_TOLERANCE) \
		-max-allocs 'WeightedShardRound/ring-n=1000000/shard=1000' \
		BENCH_core.json=BENCH_core.fresh.json BENCH_scale.json=BENCH_scale.fresh.json BENCH_serve.json=BENCH_serve.fresh.json

# perfbench/ is a nested module (the repository benchmark), so the root
# `go test ./...` does not reach its manifest, stats and pacer tests.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# True-distribution smoke: one coordinator spawning two lbshard worker
# processes over a unix socket, checkpointing every 20 rounds; -verify
# re-runs the same instance on the in-process shard engine and requires
# the distributed result to match bit for bit (reflect.DeepEqual in the
# coordinator). Leaves lbshard-smoke.ckpt, lbshard-smoke.json, the
# coordinator Chrome trace and the aggregated cluster telemetry behind
# for CI to archive.
lbshard-smoke:
	$(GO) build -o lbshard.bin ./cmd/lbshard
	./lbshard.bin -graph torus -n 64 -tasks 4000 -seed 11 \
		-model weighted -speeds twoclass -rounds 60 -trace 10 -shards 2 \
		-socket /tmp/lbshard-smoke.sock -spawn \
		-checkpoint lbshard-smoke.ckpt -checkpoint-every 20 \
		-verify -result lbshard-smoke.json \
		-trace-out lbshard-smoke-trace.json -stats-out lbshard-smoke-stats.json
	rm -f lbshard.bin

# Regenerate the empirical counterpart of the paper's Table 1.
table1:
	$(GO) test -run '^$$' -bench Table1 -benchtime 3x .

# Aggregate coverage profile + per-function summary.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# Short native-fuzzing pass over the samplers, the graph generators,
# the decide kernels, the transport frame reader, the cluster config
# decoder, the worker's event-slice, own-state and stats decoders, every
# per-round frame reader (the coordinator's flows, step-done and
# boundary-loads readers, the worker's grant and halo-loads readers),
# the checkpoint decoder, the journal reader
# and its walk of rotated segment chains (each with a seq replay of
# every small journal it accepts), the instance
# decoder of journal headers (instance.FromMeta), lbd's /tasks and
# /complete body decoder and the Prometheus exposition parser (each
# -fuzz run accepts exactly one target, hence one line per target),
# including the differential checks of the Binomial zero-mass shortcut
# and of the branch-free decide kernels against their
# pre-optimisation references.
# -fuzzminimizetime 100x bounds the minimization of each new input to
# 100 execs: with Go's default of 60 s, minimizing one KB-sized input
# (a checkpoint seed) used up the whole run. A crasher is still
# reported and saved.
# CI runs this on every push; longer local sessions can raise FUZZTIME.
FUZZTIME ?= 5s
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzBinomial$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/rng
	$(GO) test -run '^$$' -fuzz '^FuzzBinomialZeroShortcut$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/rng
	$(GO) test -run '^$$' -fuzz '^FuzzPoisson$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/rng
	$(GO) test -run '^$$' -fuzz '^FuzzMultinomial$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/rng
	$(GO) test -run '^$$' -fuzz '^FuzzEqualSplit$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/rng
	$(GO) test -run '^$$' -fuzz '^FuzzGenerators$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzDecideKernel$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeConfig$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/shard
	$(GO) test -run '^$$' -fuzz '^FuzzWorkerDecoders$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/shard
	$(GO) test -run '^$$' -fuzz '^FuzzRoundFlows$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/shard
	$(GO) test -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/shard
	$(GO) test -run '^$$' -fuzz '^FuzzReadJournal$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzReadJournalSegments$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzSpecMeta$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/instance
	$(GO) test -run '^$$' -fuzz '^FuzzServeBodies$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzParseExposition$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/obs

ci: fmt vet build race bench-check perfbench-check
