// Command table1 regenerates the paper's Table 1 — the convergence-time
// comparison of this paper's bounds against Berenbrink–Hoefer–Sauerwald
// (SODA'11, "[6]") over the four graph classes.
//
// Two modes:
//
//	table1 -mode bounds  -n 64 -m 262144
//	  evaluates the asymptotic bound formulas of both papers at a
//	  concrete size, with exact λ₂ and Δ per instance — the analytic
//	  reproduction of the printed table;
//
//	table1 -mode measure -sizes 16,32,64,128 -repeats 3 -workers 4
//	  runs the protocol over a size sweep, measures rounds to the
//	  Ψ₀ ≤ 4ψ_c state (Theorem 1.1 phase) and to the exact NE
//	  (Theorem 1.2), and fits log–log scaling exponents against the
//	  table's predictions. Repetitions execute concurrently on the
//	  harness worker pool (-workers, 0 = all cores) and -engine picks
//	  the execution engine (seq|shard|cluster — the trajectories, and
//	  therefore the table, are identical).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("table1: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		mode      = flag.String("mode", "bounds", "bounds|measure")
		n         = flag.Int("n", 64, "instance size for -mode bounds")
		m         = flag.Int64("m", 0, "task count for -mode bounds (default 64·n)")
		sizesArg  = flag.String("sizes", "16,32,64", "comma-separated sweep sizes for -mode measure")
		tpn       = flag.Int("taskspernode", 64, "tasks per node in the sweep")
		repeats   = flag.Int("repeats", 3, "repetitions per size")
		seed      = flag.Uint64("seed", 1, "random seed")
		exact     = flag.Bool("exact", false, "also measure exact-NE convergence (slower)")
		approxEps = flag.Float64("approxeps", 0, "if > 0, measure rounds to a fixed ε-approximate NE instead of the Ψ₀ ≤ 4ψ_c phase")
		classesFl = flag.String("classes", "complete,ring,torus,hypercube", "classes to include")
		jsonOut   = flag.Bool("json", false, "emit JSON instead of text")
		workers   = flag.Int("workers", 0, "concurrent repetitions in -mode measure (0 = all cores)")
		engine    = flag.String("engine", "seq", "execution engine: seq|shard|cluster (identical trajectories)")
	)
	flag.Parse()

	switch *mode {
	case "bounds":
		mm := *m
		if mm <= 0 {
			mm = 64 * int64(*n)
		}
		rows, err := experiments.BoundsTable(*n, mm)
		if err != nil {
			return err
		}
		if *jsonOut {
			return json.NewEncoder(os.Stdout).Encode(rows)
		}
		fmt.Printf("Table 1 (analytic), n≈%d, m=%d, uniform speeds\n\n", *n, mm)
		fmt.Print(experiments.FormatBoundsTable(rows))
		fmt.Println("\nexact theorem bounds per instance (with real λ₂, Δ):")
		for _, r := range rows {
			fmt.Printf("  %-16s λ₂=%-8.4f Δ=%-4d T_approx ≤ %-12.0f T_exact ≤ %-12.3g gain(approx)=%.3g gain(NE)=%.3g\n",
				r.Class, r.Lambda2, r.MaxDegree, r.TheoremT11, r.TheoremT12, r.GainApprox, r.GainExact)
		}
		return nil

	case "measure":
		sizes, err := parseSizes(*sizesArg)
		if err != nil {
			return err
		}
		var results []experiments.SweepResult
		for _, key := range strings.Split(*classesFl, ",") {
			class, err := experiments.ClassByKey(strings.TrimSpace(key))
			if err != nil {
				return err
			}
			opts := experiments.MeasureOpts{
				Sizes: sizes, TasksPerNode: *tpn, Repeats: *repeats, Seed: *seed,
				Workers: *workers, Engine: *engine,
			}
			var res experiments.SweepResult
			var label string
			if *approxEps > 0 {
				res, err = experiments.MeasureApproxNE(class, *approxEps, opts)
				label = fmt.Sprintf("[%g-approx NE]", *approxEps)
			} else {
				res, err = experiments.MeasureApproxPhase(class, opts)
				label = "[approx phase]"
			}
			if err != nil {
				return fmt.Errorf("approx sweep %s: %w", class.Key, err)
			}
			results = append(results, res)
			if !*jsonOut {
				fmt.Printf("%s %s\n", label, experiments.FormatSweep(res))
			}
			if *exact {
				resE, err := experiments.MeasureExactPhase(class, opts)
				if err != nil {
					return fmt.Errorf("exact sweep %s: %w", class.Key, err)
				}
				results = append(results, resE)
				if !*jsonOut {
					fmt.Printf("[exact NE]     %s\n", experiments.FormatSweep(resE))
				}
			}
		}
		if *jsonOut {
			return json.NewEncoder(os.Stdout).Encode(results)
		}
		return nil

	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

func parseSizes(arg string) ([]int, error) {
	parts := strings.Split(arg, ",")
	sizes := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 3 {
			return nil, fmt.Errorf("bad size %q", p)
		}
		sizes = append(sizes, v)
	}
	return sizes, nil
}
