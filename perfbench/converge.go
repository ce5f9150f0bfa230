package main

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// The converge workload is an lbsim corner start: a d = 16 hypercube
// (n = 65,536) of two-class nodes with 16 weighted tasks per node, all
// on node 0 — the paper's worst case — run by core.Drive over the
// weighted shard engine until Ψ₀ ≤ 4ψ_c (Theorem 1.3), checking the
// stop condition every round as lbsim does.
const (
	convergeDim          = 16
	convergeTasksPerNode = 16
	// convergeMaxRounds only guards against a run that never converges;
	// the stop condition ends every run long before it.
	convergeMaxRounds = 100_000
	// convergeMinSeeds is the fewest protocol seeds a window covers,
	// however long each takes.
	convergeMinSeeds = 3
)

type convergeInstance struct {
	sys *core.System
	eng *shard.WeightedEngine
	w0  float64
	m0  int64
}

func buildConverge(cfg config) (*convergeInstance, setupTimes, error) {
	var ts setupTimes
	t0 := time.Now()
	sys, err := hypercubeSystem(convergeDim)
	if err != nil {
		return nil, ts, err
	}
	t1 := time.Now()
	perNode, err := weightedTasks(sys, convergeTasksPerNode*sys.N(), "corner", cfg.seed)
	if err != nil {
		return nil, ts, err
	}
	w0, m0 := totalWeight(perNode)
	t2 := time.Now()
	eng, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, shard.Options{Shards: shards})
	if err != nil {
		return nil, ts, err
	}
	t3 := time.Now()
	ts = setupTimes{graph: t1.Sub(t0), instance: t2.Sub(t1), engine: t3.Sub(t2)}
	return &convergeInstance{sys: sys, eng: eng, w0: w0, m0: m0}, ts, nil
}

// seedRun is one protocol seed's converge run.
type seedRun struct {
	res          core.RunResult
	wall         time.Duration // end of the round-0 stop check → end of the stop check that fired
	cpu          time.Duration // process CPU over the Drive call
	first, last  int64         // the same interval on the epoch clock
	predicate    []int64       // traced: per-round predicate time (ns), index = round
	predicateEnd []int64
}

func runConverge(cfg config) (*windowOut, error) {
	w := &windowOut{primaryName: "latency_ms"}
	epoch := time.Now()
	var setups []setupTimes
	var runs []seedRun
	var traced *tracedEngine
	var tr tracer
	var stepNs, stateNs, predNs, snapNs, decNs, comNs, partsRounds float64
	var flows int64
	var target, budget float64

	runtime.GC()
	start := time.Now()
	cpu0, gs0 := cpuTime(), readGoStats()
	for i := 0; i < convergeMinSeeds || time.Since(start) < cfg.window; i++ {
		inst, ts, err := buildConverge(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, ts)
		target = 4 * inst.sys.PsiCriticalWeighted()
		budget = inst.sys.WeightedApproxPhaseRounds(inst.m0)
		var engine core.Engine[*core.WeightedState] = inst.eng
		if cfg.traced {
			if traced == nil {
				traced = newTracedEngine(inst.eng, epoch)
			} else {
				traced.resetFor(inst.eng)
			}
			engine = traced
		}
		var run seedRun
		if cfg.traced {
			run.predicate = make([]int64, 0, 1024)
			run.predicateEnd = make([]int64, 0, 1024)
		}
		calls := 0
		stop := func(st *core.WeightedState) bool {
			p0 := time.Since(epoch).Nanoseconds()
			ok := st.Psi0() <= target
			now := time.Since(epoch).Nanoseconds()
			if calls == 0 {
				run.first = now
			}
			run.last = now
			if run.predicate != nil {
				run.predicate = append(run.predicate, p0)
				run.predicateEnd = append(run.predicateEnd, now)
			}
			calls++
			return ok
		}
		f0, c0 := inst.eng.CrossFlows(), cpuTime()
		res, err := core.Drive[*core.WeightedState](engine, stop, core.RunOpts{MaxRounds: convergeMaxRounds, Seed: protocolSeed(cfg.seed, i)})
		run.cpu = cpuTime() - c0
		if err != nil {
			inst.eng.Close()
			return nil, fmt.Errorf("seed %d: %w", i, err)
		}
		run.res = res
		run.wall = time.Duration(run.last - run.first)
		flows += inst.eng.CrossFlows() - f0
		runs = append(runs, run)

		if traced != nil {
			seedSpan := tr.add("core.converge", run.first, run.last, -1, uint64(i)<<32)
			for r := 1; r <= res.Rounds && r < maxTracedRounds; r++ {
				rr := traced.log[r]
				id := uint64(i)<<32 | uint64(r)
				pEnd := run.predicateEnd[r]
				round := tr.add("core.round", rr.stepStart, pEnd, seedSpan, id)
				s := tr.add("shard.step", rr.stepStart, rr.stepEnd, round, id)
				t := rr.stepStart
				for _, ph := range []struct {
					name string
					d    int64
				}{{"shard.snapshot", rr.snapshot}, {"shard.decide", rr.decide}, {"shard.commit", rr.commit}} {
					tr.add(ph.name, t, t+ph.d, s, id)
					t += ph.d
				}
				sc := tr.add("core.stopcheck", rr.stateStart, pEnd, round, id)
				tr.add("shard.state", rr.stateStart, rr.stateEnd, sc, id)
				stepNs += float64(rr.stepEnd - rr.stepStart)
				stateNs += float64(rr.stateEnd - rr.stateStart)
				predNs += float64(pEnd - run.predicate[r])
				snapNs += float64(rr.snapshot)
				decNs += float64(rr.decide)
				comNs += float64(rr.commit)
				partsRounds++
			}
		}

		// Per-seed checks, outside the converge interval.
		st, err := inst.eng.State()
		psi := math.Inf(1)
		if err == nil {
			psi = st.Psi0()
		}
		w.check(fmt.Sprintf("seed %d converged", i), res.Converged && psi <= target,
			"Ψ₀ %.6g ≤ 4ψ_c %.6g after %d rounds", psi, target, res.Rounds)
		var wNow float64
		for _, x := range inst.eng.NodeWeights() {
			wNow += x
		}
		m := inst.eng.TaskCount()
		w.check(fmt.Sprintf("seed %d conserves tasks", i), m == inst.m0 && math.Abs(wNow-inst.w0) <= 1e-9*inst.w0,
			"%d tasks of weight %.9g; started with %d of weight %.9g", m, wNow, inst.m0, inst.w0)
		inst.eng.Close()
		runtime.GC()
	}
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	gs := readGoStats().sub(gs0)
	w.e("peak_rss_mb", "MB", peakRSSMB(), 0, "VmHWM after the window")

	var walls, rounds, cpuPer []float64
	var totalRounds, totalMoves int64
	var totalWall time.Duration
	for _, r := range runs {
		walls = append(walls, ms(float64(r.wall)))
		rounds = append(rounds, float64(r.res.Rounds))
		cpuPer = append(cpuPer, r.cpu.Seconds()*1e6/float64(max(r.res.Rounds, 1)))
		totalRounds += int64(r.res.Rounds)
		totalMoves += r.res.Moves
		totalWall += r.wall
	}
	seeds := int64(len(runs))
	w.attempted = seeds
	addSetupMetrics(w, setups)
	w.e("latency_ms", "ms", median(walls), seeds, fmt.Sprintf("median over seeds of the time to Ψ₀ ≤ 4ψ_c; %.3f s window, %.3f CPU-s", elapsed.Seconds(), cpu.Seconds()))
	w.e("cpu_us_per_op", "us", median(cpuPer), seeds, "CPU per round, median over seeds")
	w.primary = median(walls)

	w.l("core.rounds", "count", median(rounds), seeds, "median over seeds")
	w.l("core.rounds_over_budget", "ratio", median(rounds)/budget, seeds, fmt.Sprintf("median rounds ÷ Theorem 1.3 budget %.1f", budget))
	w.l("core.moves_per_round", "count", float64(totalMoves)/float64(totalRounds), totalRounds, "")
	w.l("shard.cross_flows_per_round", "count", float64(flows)/float64(totalRounds), totalRounds, "")
	w.l("go.alloc_bytes_per_op", "bytes", gs.allocBytes/float64(totalRounds), totalRounds, "per round, including each seed's engine build")
	w.l("go.gc_cpu_share", "fraction", gs.gcShare(), 0, "")
	if traced != nil {
		n := int64(partsRounds)
		w.l("shard.step_ms", "ms", ms(stepNs/partsRounds), n, "mean per round")
		w.l("shard.snapshot_ms", "ms", ms(snapNs/partsRounds), n, "mean per round")
		w.l("shard.decide_ms", "ms", ms(decNs/partsRounds), n, "mean per round")
		w.l("shard.commit_ms", "ms", ms(comNs/partsRounds), n, "mean per round")
		w.l("core.stopcheck_ms", "ms", ms((stateNs+predNs)/partsRounds), n, fmt.Sprintf("mean per round; State() %.4f ms + predicate %.4f ms", ms(stateNs/partsRounds), ms(predNs/partsRounds)))
		// Each round's stop check starts with State(); the predicate's
		// own span ends the round.
		parts := stepNs + stateNs + predNs
		share := parts / float64(totalWall.Nanoseconds())
		w.l("trace.parts_share", "fraction", share, n, "(step + stop check) ÷ converge time, summed over seeds")
		w.check("traced parts add up", abs(share-1) <= partsTolerance,
			"step %.4f s + stop check %.4f s = %.4f s vs converge %.4f s over %d seeds", stepNs/1e9, (stateNs+predNs)/1e9, parts/1e9, totalWall.Seconds(), seeds)
		w.notes = append(w.notes, selfNotes(tr.spans)...)
		path := filepath.Join(cfg.dir, "spans.jsonl")
		if err := tr.write(path); err != nil {
			w.check("spans written", false, "%v", err)
		} else {
			w.notes = append(w.notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
		}
	}

	// Reference: the sequential engine on seed 0 must take the same
	// rounds and moves (core.RunWeighted, lbsim's -engine seq).
	sys, err := hypercubeSystem(convergeDim)
	if err != nil {
		return nil, err
	}
	perNode, err := weightedTasks(sys, convergeTasksPerNode*sys.N(), "corner", cfg.seed)
	if err != nil {
		return nil, err
	}
	st, err := core.NewWeightedState(sys, perNode)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ref, err := core.RunWeighted(st, core.Algorithm2{}, core.StopAtWeightedPsi0Below(target),
		core.RunOpts{MaxRounds: convergeMaxRounds, Seed: protocolSeed(cfg.seed, 0)})
	d := time.Since(t0)
	w.check("seed 0 matches the sequential engine", err == nil && reflect.DeepEqual(ref, runs[0].res),
		"sequential %d rounds %d moves, shard %d rounds %d moves (err %v)", ref.Rounds, ref.Moves, runs[0].res.Rounds, runs[0].res.Moves, err)
	if ref.Rounds > 0 {
		w.l("core.reference_round_ms", "ms", d.Seconds()*1e3/float64(ref.Rounds), int64(ref.Rounds),
			fmt.Sprintf("core.RunWeighted, the sequential engine; shard engine %.4f ms/round on the same seed", runs[0].wall.Seconds()*1e3/float64(runs[0].res.Rounds)))
	}
	if !allOK(w.checks) {
		w.failed++
	}
	return w, nil
}
