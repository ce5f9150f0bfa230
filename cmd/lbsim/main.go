// Command lbsim runs a single load-balancing simulation and reports the
// convergence behaviour: rounds to the Ψ₀ ≤ 4ψ_c state, to an
// ε-approximate NE, and to an exact NE, with an optional potential trace.
//
// Examples:
//
//	lbsim -graph ring -n 64 -tasks 6400 -seed 7
//	lbsim -graph torus -n 100 -tasks 50000 -speeds twoclass -smax 4
//	lbsim -graph hypercube -n 64 -model weighted -protocol baseline
//	lbsim -graph torus -n 256 -engine shard -trace 100
//
// With -rounds k the convergence phases are skipped and exactly k
// protocol rounds run, reporting throughput — the scale mode for the
// shard engine, whose CSR-backed state handles million-node instances
// in both task models:
//
//	lbsim -graph ring -n 1000000 -engine shard -rounds 100
//	lbsim -graph torus -n 250000 -engine shard -shards 8 -rounds 200
//	lbsim -graph ring -n 1000000 -model weighted -engine shard -rounds 100 \
//	      -speeds twoclass -placement proportional
//
// With any of -arrivals, -departures or -churn set, lbsim switches to
// the dynamic regime: tasks arrive and complete while the protocol
// runs, nodes periodically leave and join, and the report shows the
// steady-state metrics (time-averaged Ψ₀, post-burst recovery) instead
// of convergence phases:
//
//	lbsim -graph torus -n 64 -arrivals 32 -departures 0.6 -horizon 500
//	lbsim -graph ring -n 32 -arrivals 16 -departures 0.7 -churn 100 -engine cluster
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/harness"
	"repro/internal/instance"
	"repro/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbsim: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	spec := instance.Default()
	spec.Bind(flag.CommandLine)
	var (
		engine    = flag.String("engine", "seq", "execution engine: seq|shard|cluster; see the engine matrix in README.md (identical trajectories)")
		eps       = flag.Float64("eps", 0.25, "epsilon for the approximate-NE stop")
		maxRounds = flag.Int("maxrounds", 2_000_000, "safety cap on rounds")
		trace     = flag.Int("trace", 0, "emit a potential trace every k rounds (0 = off)")
		analyze   = flag.Bool("analyze", false, "print a state diagnostic after each phase (uniform model)")

		fixedRounds   = flag.Int("rounds", 0, "run exactly k protocol rounds instead of the convergence phases (reports throughput; the scale mode for either model)")
		distWorkers   = flag.Int("dist-workers", 0, "pin the shard engine's worker-pool size (0 = all cores; identical trajectories)")
		shards        = flag.Int("shards", 0, "shard engine: partition count P (0 = worker count)")
		shardStrategy = flag.String("shard-strategy", "contiguous", "shard engine: partition strategy contiguous|degree")

		arrivals   = flag.Float64("arrivals", 0, "dynamic: expected task arrivals per round (Poisson, spread over nodes)")
		departures = flag.Float64("departures", 0, "dynamic: per-unit-speed task completion rate (Poisson(rate·sᵢ) per node)")
		churn      = flag.Int("churn", 0, "dynamic: alternate node leave/join every k rounds (0 = off)")
		burstEvery = flag.Int("burstevery", 0, "dynamic: burst arrival period in rounds (0 = off)")
		burstSize  = flag.Int64("burstsize", 0, "dynamic: tasks per burst (default m/4 when bursts are on)")
		horizon    = flag.Int("horizon", 500, "dynamic: rounds of continuous traffic")
		eventSeed  = flag.Uint64("eventseed", 0, "dynamic: event-stream seed (default seed+17)")
	)
	flag.Parse()

	inst, err := spec.Build()
	if err != nil {
		return err
	}
	sys, m, seed := inst.Sys, inst.M, spec.Seed
	eo := harness.EngineOpts{Workers: *distWorkers, Shards: *shards, Strategy: *shardStrategy}
	fmt.Printf("instance: %s  Δ=%d  λ₂=%.5f  s_max=%g  S=%.0f  m=%d\n",
		sys.Graph(), sys.MaxDegree(), sys.Lambda2(), sys.SMax(), sys.STotal(), m)
	fmt.Printf("theory:   γ=%.1f  ψ_c=%.1f  T_approx≤%.0f  T_exact≤%.3g\n",
		sys.Gamma(), sys.PsiCritical(), 2*sys.ApproxPhaseRounds(m), sys.ExactPhaseRounds(1))

	if *arrivals < 0 || *departures < 0 || *churn < 0 || *burstEvery < 0 || *burstSize < 0 {
		return fmt.Errorf("dynamic flags must be non-negative (arrivals=%g departures=%g churn=%d burstevery=%d burstsize=%d)",
			*arrivals, *departures, *churn, *burstEvery, *burstSize)
	}
	if *arrivals > 0 || *departures > 0 || *churn > 0 || *burstEvery > 0 {
		if *fixedRounds > 0 {
			return fmt.Errorf("-rounds conflicts with the dynamic flags; use -horizon to bound a dynamic run")
		}
		dyn := dynCfg{
			arrivals: *arrivals, departures: *departures, churn: *churn,
			burstEvery: *burstEvery, burstSize: *burstSize,
			horizon: *horizon, eventSeed: *eventSeed, trace: *trace,
		}
		if dyn.eventSeed == 0 {
			dyn.eventSeed = seed + 17
		}
		if dyn.burstEvery > 0 && dyn.burstSize <= 0 {
			dyn.burstSize = m / 4
		}
		return runDynamic(inst, *engine, seed, dyn, eo)
	}
	if *fixedRounds > 0 {
		if spec.Model == "weighted" {
			return runFixedWeighted(inst, *engine, seed, *fixedRounds, *trace, eo)
		}
		return runFixed(inst, *engine, seed, *fixedRounds, *trace, eo)
	}
	if spec.Model == "weighted" {
		return runWeighted(inst, *engine, *eps, seed, *maxRounds, *trace, eo)
	}
	return runUniform(inst, *engine, *eps, seed, *maxRounds, *trace, *analyze, eo)
}

// dynCfg bundles the dynamic-regime flags.
type dynCfg struct {
	arrivals, departures float64
	churn                int
	burstEvery           int
	burstSize            int64
	horizon              int
	eventSeed            uint64
	trace                int
}

// runDynamic executes the dynamic regime: continuous arrivals and
// completions (and optional bursts and churn) over a fixed horizon,
// reporting steady-state metrics and the event ledger.
func runDynamic(inst *instance.Instance, engine string, seed uint64, cfg dynCfg, eo harness.EngineOpts) error {
	w := dynamics.Workload{
		Seed:        cfg.eventSeed,
		ArrivalRate: cfg.arrivals,
		ServiceRate: cfg.departures,
		BurstEvery:  cfg.burstEvery,
		BurstSize:   cfg.burstSize,
	}
	opts := harness.DynamicOpts{
		MaxRounds: cfg.horizon,
		Seed:      seed,
		Workload:  w,
		Churn:     dynamics.AlternatingChurn(cfg.horizon, cfg.churn),
		Engine:    eo,
	}
	fmt.Printf("dynamic:  horizon=%d  λ=%g/round  μ=%g·sᵢ/round  burst=%d@%d  churn every %d  engine=%s\n",
		cfg.horizon, cfg.arrivals, cfg.departures, cfg.burstSize, cfg.burstEvery, cfg.churn, engine)

	weighted := inst.Weights != nil
	var res harness.DynamicResult
	var err error
	if weighted {
		res, err = harness.RunWeightedDynamic(engine, inst.Sys, inst.Protocol, inst.Weights, opts)
	} else {
		res, err = harness.RunUniformDynamic(engine, inst.Sys, core.Algorithm1{}, inst.Counts, opts)
	}
	if err != nil {
		return err
	}
	if weighted {
		fmt.Printf("traffic:  %d event batches: +%d/−%d tasks (+%.1f/−%.1f weight)\n",
			res.Ledger.Batches, res.Ledger.ArrivedTasks, res.Ledger.DepartedTasks,
			res.Ledger.ArrivedWeight, res.Ledger.DepartedWeight)
	} else {
		fmt.Printf("traffic:  %d event batches: +%d/−%d tasks\n",
			res.Ledger.Batches, res.Ledger.Arrived, res.Ledger.Departed)
	}
	fmt.Printf("run:      %d rounds in %d epochs, %d protocol moves, final n=%d\n",
		res.Rounds, res.Epochs, res.Moves, res.FinalN)
	mtr := res.Metrics
	fmt.Printf("steady:   Ψ̄₀=%.4g  max Ψ₀=%.4g  final Ψ₀=%.4g\n", mtr.TimeAvgPsi0, mtr.MaxPsi0, mtr.FinalPsi0)
	if mtr.Bursts > 0 {
		fmt.Printf("recovery: %d/%d bursts recovered, mean %.1f rounds\n",
			mtr.BurstsRecovered, mtr.Bursts, mtr.RecoveryMeanRounds)
	}
	if cfg.trace > 0 {
		// The dynamic runner traces every round for its metrics; honor
		// the -trace k sampling contract on output (round 0 and the
		// final round always included, like the static path).
		var pts []core.TracePoint
		for i, p := range res.Trace {
			if i == 0 || i == len(res.Trace)-1 || p.Round%cfg.trace == 0 {
				pts = append(pts, p)
			}
		}
		emitTrace(core.RunResult{Trace: pts}, cfg.trace)
	}
	return nil
}

func runUniform(inst *instance.Instance, engine string, eps float64, seed uint64, maxRounds, trace int, analyze bool, eo harness.EngineOpts) error {
	sys, counts := inst.Sys, inst.Counts
	st, err := core.NewUniformState(sys, counts)
	if err != nil {
		return err
	}
	fmt.Printf("start:    Ψ₀=%.4g  L_Δ=%.2f  engine=%s\n", core.Psi0(st), core.LDelta(st), engine)

	// The three phases chain through the final counts of each run; every
	// phase executes on the selected engine through the shared driver.
	threshold := 4 * sys.PsiCritical()
	res1, counts, err := harness.RunUniformEngineOpts(engine, sys, core.Algorithm1{}, counts,
		core.StopAtPsi0Below(threshold), core.RunOpts{MaxRounds: maxRounds, Seed: seed, TraceEvery: trace}, eo)
	if err != nil {
		return fmt.Errorf("phase 1: %w", err)
	}
	fmt.Printf("phase 1:  Ψ₀ ≤ 4ψ_c after %d rounds (%d moves)\n", res1.Rounds, res1.Moves)
	emitTrace(res1, trace)
	if analyze {
		if st, err = core.NewUniformState(sys, counts); err != nil {
			return err
		}
		fmt.Print(analysis.Format(analysis.Analyze(st, 0)))
	}

	res2, counts, err := harness.RunUniformEngineOpts(engine, sys, core.Algorithm1{}, counts,
		core.StopAtApproxNash(eps), core.RunOpts{MaxRounds: maxRounds, Seed: seed + 1}, eo)
	if err != nil {
		return fmt.Errorf("phase 2 (approx): %w", err)
	}
	fmt.Printf("phase 2:  %.3g-approximate NE after %d more rounds\n", eps, res2.Rounds)

	res3, counts, err := harness.RunUniformEngineOpts(engine, sys, core.Algorithm1{}, counts,
		core.StopAtNash(), core.RunOpts{MaxRounds: maxRounds, Seed: seed + 2}, eo)
	if err != nil {
		return fmt.Errorf("phase 3 (exact): %w", err)
	}
	if st, err = core.NewUniformState(sys, counts); err != nil {
		return err
	}
	fmt.Printf("phase 3:  exact NE after %d more rounds; final L_Δ=%.3f\n", res3.Rounds, core.LDelta(st))
	if analyze {
		fmt.Print(analysis.Format(analysis.Analyze(st, 0)))
	}
	return nil
}

func runWeighted(inst *instance.Instance, engine string, eps float64, seed uint64, maxRounds, trace int, eo harness.EngineOpts) error {
	sys, proto, perNode := inst.Sys, inst.Protocol, inst.Weights
	start, err := core.NewWeightedState(sys, perNode)
	if err != nil {
		return err
	}
	fmt.Printf("start:    W=%.1f  Ψ₀=%.4g  L_Δ=%.2f  protocol=%s  engine=%s\n",
		start.TotalWeight(), core.WeightedPsi0(start), core.WeightedLDelta(start), proto.Name(), engine)

	res, st, err := harness.RunWeightedEngineOpts(engine, sys, proto, perNode,
		core.StopAtWeightedApproxNash(eps), core.RunOpts{MaxRounds: maxRounds, Seed: seed, TraceEvery: trace}, eo)
	if err != nil {
		return err
	}
	fmt.Printf("done:     %.3g-approximate NE after %d rounds (%d moves)\n", eps, res.Rounds, res.Moves)
	emitTrace(res, trace)
	fmt.Printf("final:    Ψ₀=%.4g  L_Δ=%.3f  thresholdNE=%v exactNE=%v\n",
		core.WeightedPsi0(st), core.WeightedLDelta(st), core.IsWeightedThresholdNE(st), core.IsWeightedNash(st))
	return nil
}

// fixedHeader renders the scale-mode banner from the RESOLVED engine
// parameters — what actually runs (GOMAXPROCS workers, shards clamped
// and defaulted), never the raw flag values, which print as the
// meaningless "workers=0 shards=0". Shard fields appear only for the
// shard and cluster engines.
func fixedHeader(rounds int, model, engine string, eo harness.EngineOpts) string {
	if engine == harness.EngineShard || engine == harness.EngineCluster {
		return fmt.Sprintf("fixed:    %d rounds  model=%s  engine=%s  workers=%d  shards=%d (%s)",
			rounds, model, engine, eo.Workers, eo.Shards, eo.Strategy)
	}
	return fmt.Sprintf("fixed:    %d rounds  model=%s  engine=%s  workers=%d",
		rounds, model, engine, eo.Workers)
}

// fixedReport renders the scale-mode throughput line. Durations are
// µs-rounded: rounding the total to milliseconds truncated
// sub-millisecond runs to the nonsensical "5 rounds in 0s".
func fixedReport(rounds int, elapsed time.Duration, moves int64) string {
	perRound := time.Duration(0)
	if rounds > 0 {
		perRound = elapsed / time.Duration(rounds)
	}
	return fmt.Sprintf("run:      %d rounds in %v (%v/round, %.1f rounds/sec), %d moves",
		rounds, elapsed.Round(time.Microsecond), perRound.Round(time.Microsecond),
		float64(rounds)/elapsed.Seconds(), moves)
}

// runFixed executes exactly `rounds` protocol rounds with no stop
// condition — the scale mode: on the shard engine a million-node
// instance runs in flat CSR-backed state, so the only O(n) costs are
// the arrays themselves. Reports moves, final potentials and
// throughput.
func runFixed(inst *instance.Instance, engine string, seed uint64, rounds, trace int, eo harness.EngineOpts) error {
	sys := inst.Sys
	fmt.Println(fixedHeader(rounds, "uniform", engine, eo.Resolved(engine, sys.N())))
	var phases *shard.PhaseTimes
	eo.Probe = probePhases(&phases)
	start := time.Now()
	res, counts, err := harness.RunUniformEngineOpts(engine, sys, core.Algorithm1{}, inst.Counts, nil,
		core.RunOpts{MaxRounds: rounds, Seed: seed, TraceEvery: trace}, eo)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	st, err := core.NewUniformState(sys, counts)
	if err != nil {
		return err
	}
	fmt.Println(fixedReport(res.Rounds, elapsed, res.Moves))
	emitPhases(phases)
	fmt.Printf("final:    Ψ₀=%.6g  L_Δ=%.3f\n", core.Psi0(st), core.LDelta(st))
	emitTrace(res, trace)
	return nil
}

// runFixedWeighted is the weighted scale mode: exactly `rounds` rounds
// of the selected weighted protocol on the selected engine — on the
// shard engine the weighted state is one flat task-weight pool per
// shard, so a million-node heterogeneous instance runs without
// pointer-heavy per-node structures. Pair with -placement proportional
// and a non-uniform -speeds profile for the every-node-active regime.
func runFixedWeighted(inst *instance.Instance, engine string, seed uint64, rounds, trace int, eo harness.EngineOpts) error {
	sys := inst.Sys
	fmt.Println(fixedHeader(rounds, "weighted", engine, eo.Resolved(engine, sys.N())))
	var phases *shard.PhaseTimes
	eo.Probe = probePhases(&phases)
	start := time.Now()
	res, st, err := harness.RunWeightedEngineOpts(engine, sys, inst.Protocol, inst.Weights, nil,
		core.RunOpts{MaxRounds: rounds, Seed: seed, TraceEvery: trace}, eo)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	fmt.Println(fixedReport(res.Rounds, elapsed, res.Moves))
	emitPhases(phases)
	fmt.Printf("final:    W=%.1f  Ψ₀=%.6g  L_Δ=%.3f\n",
		st.TotalWeight(), core.WeightedPsi0(st), core.WeightedLDelta(st))
	emitTrace(res, trace)
	return nil
}

// probePhases is the harness Probe that captures shard-engine phase
// timings (other engines don't implement shard.PhaseTimer and leave
// the pointer nil).
func probePhases(out **shard.PhaseTimes) func(any) {
	return func(eng any) {
		if pt, ok := eng.(shard.PhaseTimer); ok {
			t := pt.Phases()
			*out = &t
		}
	}
}

// emitPhases prints the per-phase round breakdown captured by
// probePhases: on the shard engines each round is three
// barrier-separated phases, and the split shows whether time goes to
// load snapshots, protocol decisions, or commit traffic (barrier
// stalls surface as the gap between a phase's average and its
// slowest-shard cost).
func emitPhases(t *shard.PhaseTimes) {
	if t == nil || t.Rounds == 0 {
		return
	}
	fmt.Printf("phases:   %s\n", t)
}

func emitTrace(res core.RunResult, trace int) {
	if trace <= 0 {
		return
	}
	fmt.Fprintln(os.Stderr, "round,psi0,ldelta,moves")
	for _, p := range res.Trace {
		fmt.Fprintf(os.Stderr, "%d,%.6g,%.6g,%d\n", p.Round, p.Psi0, p.LDelta, p.Moves)
	}
}
