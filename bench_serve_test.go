package repro

// Serving-path benchmarks: the internal/serve batcher and round loop in
// front of a million-node weighted shard engine — the lbd daemon's hot
// path. `make bench-serve` records them into BENCH_serve.json (with
// SERVE_SUSTAIN=10s for the sustained-throughput acceptance run); the
// bench gate diffs fresh runs against that baseline.

import (
	"context"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/spectral"
	"repro/internal/task"
	"repro/internal/workload"
)

// buildWeightedServeEngine constructs the standard serving instance:
// a ring of n two-class-speed nodes with tasksPerNode weighted tasks
// placed speed-proportionally, on the weighted shard engine (P pinned
// at 8, as in BenchmarkWeightedShardRound).
func buildWeightedServeEngine(b *testing.B, n, tasksPerNode int) (*shard.WeightedEngine, *core.System) {
	b.Helper()
	g, err := graph.Ring(n)
	if err != nil {
		b.Fatal(err)
	}
	speeds, err := machine.TwoClass(n, 0.25, 2)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(g, speeds, core.WithLambda2(spectral.Lambda2Ring(n)))
	if err != nil {
		b.Fatal(err)
	}
	weights, err := task.RandomWeights(tasksPerNode*n, 0.1, 1, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	perNode, err := workload.WeightedProportional(sys.Speeds(), weights)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, shard.Options{Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	return eng, sys
}

// servePsi0 computes Ψ₀ from a node-weight snapshot (the shard engine
// never materializes a WeightedState).
func servePsi0(sys *core.System, w []float64) float64 {
	var totalW float64
	for _, wi := range w {
		totalW += wi
	}
	speeds := sys.Speeds()
	avg := totalW / sys.STotal()
	s := 0.0
	for i, wi := range w {
		e := wi - avg*speeds[i]
		s += e * e / speeds[i]
	}
	return s
}

// BenchmarkBatcherSubmit measures the submission fast path in
// isolation: one op into a million-node pending batch (no round loop
// consuming). The dense batch vectors and touched lists are reused, so
// the uniform path is allocation-free after warm-up and the weighted
// path amortizes to the per-node weight-list growth.
func BenchmarkBatcherSubmit(b *testing.B) {
	const n = 1_000_000
	for _, mode := range []struct {
		name     string
		weighted bool
	}{{"uniform", false}, {"weighted", true}} {
		b.Run(mode.name, func(b *testing.B) {
			// No round loop takes the group: after the first submission's
			// wake, pure submit cost.
			bt, err := serve.NewBatcher(n, mode.weighted, nil)
			if err != nil {
				b.Fatal(err)
			}
			st := rng.New(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := serve.Op{Kind: serve.OpArrive, Node: st.Intn(n)}
				if mode.weighted {
					op.Kind = serve.OpArriveWeighted
					op.Weight = 0.1 + 0.9*st.Float64()
				}
				if _, err := bt.Submit(op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeRound measures one full serving round against a live
// 10⁶-node weighted shard engine: 8192 submissions, made while the loop
// is held in Server.Do, batch into exactly one pre-round event batch;
// the loop applies it, journals it, and steps Algorithm 2. ns/op is the
// end-to-end admission period a saturated daemon sustains per round.
func BenchmarkServeRound(b *testing.B) {
	const n = 1_000_000
	const per = 8192
	eng, _ := buildWeightedServeEngine(b, n, 16)
	defer eng.Close()
	srv, err := serve.New[*core.WeightedState](eng, serve.Config{
		N: n, Weighted: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	st := rng.New(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var last serve.Ticket
		var err error
		srv.Do(func() {
			for k := 0; k < per && err == nil; k++ {
				op := serve.Op{Kind: serve.OpArriveWeighted, Node: st.Intn(n), Weight: 0.1 + 0.9*st.Float64()}
				if k%4 == 3 {
					op = serve.Op{Kind: serve.OpCompleteWeighted, Node: st.Intn(n)}
				}
				last, err = srv.Submit(op)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := last.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stats := srv.Stats()
	if stats.Rounds > 0 {
		b.ReportMetric(float64(stats.Submissions)/float64(stats.Rounds), "submissions/round")
	}
	if _, err := srv.Stop(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServeSustained is the acceptance benchmark: the in-process
// open-loop generator drives Server.Submit at 100k ops/sec against a
// live 10⁶-node weighted shard engine for SERVE_SUSTAIN (default 2s as
// a smoke run; `make bench-serve` records the 10s run). Reported
// metrics: the achieved submission rate, client-observed admission
// latency, and the final Ψ₀ — bounded, because completions balance
// arrivals and the protocol keeps rebalancing the admitted batches.
func BenchmarkServeSustained(b *testing.B) {
	const n = 1_000_000
	dur := 2 * time.Second
	if s := os.Getenv("SERVE_SUSTAIN"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			b.Fatalf("SERVE_SUSTAIN=%q: %v", s, err)
		}
		dur = d
	}
	eng, sys := buildWeightedServeEngine(b, n, 16)
	defer eng.Close()
	srv, err := serve.New[*core.WeightedState](eng, serve.Config{N: n, Weighted: true, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var rep serve.LoadReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Offered rate 110k: the open-loop pacer's tail overrun shaves a
		// few percent off Submitted/Elapsed, and the acceptance line is
		// a *sustained* ≥100k/s, not a pacing-accuracy test.
		r, err := serve.RunLoad(context.Background(), srv.Submit, serve.LoadOpts{
			Rate: 110_000, Duration: dur, N: n,
			Weighted: true, CompleteEvery: 2, Seed: uint64(i)*7919 + 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep = r
	}
	b.StopTimer()
	b.ReportMetric(rep.AchievedRate, "achieved-ops/s")
	b.ReportMetric(rep.AdmitP50Us, "admit-p50-us")
	b.ReportMetric(rep.AdmitP99Us, "admit-p99-us")
	stats := srv.Stats()
	b.ReportMetric(float64(stats.Rounds), "rounds")
	var psi0 float64
	srv.Do(func() { psi0 = servePsi0(sys, eng.NodeWeights()) })
	b.ReportMetric(psi0, "psi0")
	if _, err := srv.Stop(); err != nil {
		b.Fatal(err)
	}
}
