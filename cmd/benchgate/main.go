// Command benchgate compares freshly measured benchmark JSON (the
// cmd/benchjson format) against committed baselines and fails when a
// benchmark regressed beyond the tolerance. Usage:
//
//	benchgate [-tolerance 1.5] [-min-matched 3] [-min-ns 1e7] baseline.json=fresh.json ...
//
// Every argument is one baseline=fresh file pair; all pairs pool into a
// single comparison so the normalization below sees as many benchmarks
// as possible.
//
// The gate is on round-time *ratios*, not absolute nanoseconds: CI
// runners and developer machines differ in clock speed, so each
// benchmark's fresh/baseline ns/op ratio is divided by the median ratio
// across every matched benchmark before being judged. A uniformly
// slower machine moves every ratio — and the median with them — leaving
// the normalized ratios at 1; a genuine regression moves one benchmark
// against the pack and sticks out above the median. When fewer than
// -min-matched benchmarks match, the median is too small a sample to
// estimate machine speed, so raw ratios are judged instead (with a
// warning). Benchmarks whose ns/op sits below -min-ns on either side
// are too short to measure reliably at low iteration counts — one
// scheduler hiccup doubles them — so they feed the median but are
// never gated.
//
// The default tolerance is deliberately wide. The gate exists to catch
// asymptotic and hot-path regressions — the class of bug where a round
// goes from O(degree) back to O(tasks) and slows by integer factors —
// and single-iteration measurements on steal-heavy shared runners have
// been observed to swing honest benchmarks by 1.5-2x. A limit of 2.5x
// normalized sits above that noise and far below any real complexity
// regression.
//
// Allocation counts gate separately. Unlike ns/op they are
// deterministic — the same code allocates the same number of times on
// any machine — so no normalization applies. Matched pairs reporting
// allocs/op on both sides fail when fresh exceeds base·-alloc-factor
// AND grows by more than -alloc-slack absolute allocations. On top of
// the relative gate, -max-allocs takes comma-separated substring=limit
// entries (the limit follows the LAST '=', since benchmark names
// contain '='): every fresh benchmark whose key contains the substring
// must report allocs/op at or below the limit, and a pattern matching
// no fresh benchmark is a usage error so a renamed benchmark cannot
// silently void its ceiling.
//
// Exit status: 0 all benchmarks within tolerance, 1 at least one
// regression, 2 usage or I/O error — or no benchmark matched at all,
// which gates nothing and almost always means the fresh run used a
// different -cpu than the baseline (go test names a benchmark run at
// GOMAXPROCS N > 1 "Name-N"). The -max-allocs ceilings are judged
// before that check, since they need no baseline. Benchmarks present
// on only one side are reported but never gate — a renamed or new
// benchmark must not break CI, it just won't be judged until the
// baseline is refreshed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Bench mirrors cmd/benchjson's output element.
type Bench struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// pair is one matched benchmark with its fresh/baseline ns/op ratio,
// plus the allocs/op values when both sides report them.
type pair struct {
	key         string
	base        float64
	fresh       float64
	ratio       float64
	normed      float64
	srcPair     string
	hasAllocs   bool
	baseAllocs  float64
	freshAllocs float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, prints the verdicts to
// stdout and the warnings to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tolerance := fs.Float64("tolerance", 1.5, "allowed fractional slowdown above the normalized baseline (1.5 = +150%)")
	minMatched := fs.Int("min-matched", 3, "minimum matched benchmarks for median normalization; below this raw ratios are judged")
	minNs := fs.Float64("min-ns", 1e7, "noise floor: benchmarks whose ns/op is below this on either side inform the median but never gate")
	allocFactor := fs.Float64("alloc-factor", 2.0, "allowed allocs/op growth factor over the baseline (alloc counts are deterministic, so no machine normalization)")
	allocSlack := fs.Float64("alloc-slack", 64, "absolute allocs/op growth always allowed, so tiny counts (2 -> 5) never trip the factor")
	maxAllocs := fs.String("max-allocs", "", "comma-separated substring=limit ceilings on fresh allocs/op (e.g. 'WeightedShardRound/ring-n=1000000=1000'); a pattern matching no fresh benchmark is an error")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: benchgate [flags] baseline.json=fresh.json ...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	ceilings, err := parseCeilings(*maxAllocs)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	var pairs []pair
	var missing []string
	var allFresh []Bench
	for _, arg := range fs.Args() {
		basePath, freshPath, ok := strings.Cut(arg, "=")
		if !ok {
			fmt.Fprintf(stderr, "benchgate: argument %q is not a baseline.json=fresh.json pair\n", arg)
			return 2
		}
		base, err := load(basePath)
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
		fresh, err := load(freshPath)
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
		allFresh = append(allFresh, fresh...)
		p, m := match(base, fresh, fmt.Sprintf("%s vs %s", basePath, freshPath))
		pairs = append(pairs, p...)
		missing = append(missing, m...)
	}
	for _, m := range missing {
		fmt.Fprintf(stderr, "benchgate: warning: %s\n", m)
	}
	// The absolute ceilings judge the fresh runs alone, so they hold
	// even when no baseline pair matched.
	failed := false
	ceilingVerdicts, err := judgeCeilings(allFresh, ceilings)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	for _, v := range ceilingVerdicts {
		fmt.Fprintln(stdout, v.text)
		failed = failed || v.failed
	}
	if len(pairs) == 0 {
		// Usually a GOMAXPROCS mismatch: go test suffixes benchmark
		// names with -N when N > 1, so a baseline recorded at -cpu 1
		// matches only a fresh run at -cpu 1.
		fmt.Fprintln(stderr, "benchgate: no benchmarks matched the baseline (check names and -cpu); nothing was gated")
		return 2
	}
	if !normalize(pairs, *minMatched) {
		fmt.Fprintf(stderr, "benchgate: warning: only %d matched benchmarks (< %d); judging raw ratios without machine-speed normalization\n",
			len(pairs), *minMatched)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].normed > pairs[j].normed })
	limit := 1 + *tolerance
	for _, p := range pairs {
		verdict := "ok"
		switch {
		case p.base < *minNs || p.fresh < *minNs:
			// Sub-floor benchmarks complete in so few microseconds that a
			// scheduler hiccup moves their ratio by factors; they still
			// feed the median (it is robust to them) but never gate.
			// Either side below the floor disqualifies: a hiccup during
			// the baseline capture inflates base just as easily as fresh.
			verdict = "below noise floor, not gated"
		case p.normed > limit:
			verdict = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(stdout, "%-70s %12.0f -> %12.0f ns/op  ratio %.2f  normalized %.2f  %s\n",
			p.key, p.base, p.fresh, p.ratio, p.normed, verdict)
	}
	// Matched allocs/op pairs gate against the baseline growth budget;
	// alloc counts are deterministic, so they judge raw values.
	for _, v := range judgeAllocs(pairs, *allocFactor, *allocSlack) {
		fmt.Fprintln(stdout, v.text)
		failed = failed || v.failed
	}
	if failed {
		fmt.Fprintf(stderr, "benchgate: FAIL: regression beyond tolerance\n")
		return 1
	}
	fmt.Fprintf(stdout, "benchgate: %d benchmarks within tolerance (limit %.2f)\n", len(pairs), limit)
	return 0
}

// verdict is one judged line of gate output.
type verdict struct {
	text   string
	failed bool
}

// judgeAllocs compares matched allocs/op against the baseline: fresh
// may grow to base·factor, and small counts get an absolute slack so
// 2 → 5 allocations (harmless jitter in an amortized arena) never trip
// the factor. Pairs without allocs/op on both sides are skipped — most
// benchmarks do not call ReportAllocs.
func judgeAllocs(pairs []pair, factor, slack float64) []verdict {
	var out []verdict
	for _, p := range pairs {
		if !p.hasAllocs {
			continue
		}
		v := verdict{}
		state := "ok"
		if p.freshAllocs > p.baseAllocs*factor && p.freshAllocs-p.baseAllocs > slack {
			state = "ALLOC REGRESSION"
			v.failed = true
		}
		v.text = fmt.Sprintf("%-70s %12.0f -> %12.0f allocs/op  %s", p.key, p.baseAllocs, p.freshAllocs, state)
		out = append(out, v)
	}
	return out
}

// ceiling is one -max-allocs entry: every fresh benchmark whose key
// contains the pattern must stay at or below the limit.
type ceiling struct {
	pattern string
	limit   float64
}

// parseCeilings parses the -max-allocs flag.
func parseCeilings(spec string) ([]ceiling, error) {
	if spec == "" {
		return nil, nil
	}
	var out []ceiling
	for _, part := range strings.Split(spec, ",") {
		// Benchmark names themselves contain '=' (ring-n=1000000), so the
		// limit is everything after the LAST '='.
		i := strings.LastIndex(part, "=")
		if i <= 0 {
			return nil, fmt.Errorf("-max-allocs entry %q is not a substring=limit pair", part)
		}
		pattern, limitStr := part[:i], part[i+1:]
		var limit float64
		if _, err := fmt.Sscanf(limitStr, "%g", &limit); err != nil || limit < 0 {
			return nil, fmt.Errorf("-max-allocs entry %q: bad limit %q", part, limitStr)
		}
		out = append(out, ceiling{pattern: pattern, limit: limit})
	}
	return out, nil
}

// judgeCeilings applies the absolute allocs/op ceilings to the fresh
// benchmarks. A pattern matching no fresh benchmark with allocs/op is
// an error, not a pass — a renamed benchmark must not silently void
// its ceiling.
func judgeCeilings(fresh []Bench, ceilings []ceiling) ([]verdict, error) {
	var out []verdict
	for _, c := range ceilings {
		matched := false
		for _, b := range fresh {
			k := key(b)
			if !strings.Contains(k, c.pattern) {
				continue
			}
			allocs, ok := b.Metrics["allocs/op"]
			if !ok {
				continue
			}
			matched = true
			v := verdict{}
			state := "ok"
			if allocs > c.limit {
				state = "ALLOC CEILING EXCEEDED"
				v.failed = true
			}
			v.text = fmt.Sprintf("%-70s %12.0f allocs/op  ceiling %.0f  %s", k, allocs, c.limit, state)
			out = append(out, v)
		}
		if !matched {
			return nil, fmt.Errorf("-max-allocs pattern %q matched no fresh benchmark reporting allocs/op", c.pattern)
		}
	}
	return out, nil
}

// load reads one benchjson file.
func load(path string) ([]Bench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var benches []Bench
	if err := json.Unmarshal(data, &benches); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return benches, nil
}

// key identifies a benchmark across files: the name plus the procs
// suffix, since the same benchmark at different GOMAXPROCS is a
// different measurement.
func key(b Bench) string {
	if b.Procs > 0 {
		return fmt.Sprintf("%s-%d", b.Name, b.Procs)
	}
	return b.Name
}

// match joins two benchmark sets on key and extracts ns/op ratios.
// Entries lacking ns/op or present on one side only are reported as
// missing, never judged.
func match(base, fresh []Bench, src string) ([]pair, []string) {
	freshBy := make(map[string]Bench, len(fresh))
	for _, b := range fresh {
		freshBy[key(b)] = b
	}
	var pairs []pair
	var missing []string
	seen := make(map[string]bool, len(base))
	for _, b := range base {
		k := key(b)
		seen[k] = true
		f, ok := freshBy[k]
		if !ok {
			missing = append(missing, fmt.Sprintf("%s: %s only in baseline", src, k))
			continue
		}
		bn, bok := b.Metrics["ns/op"]
		fn, fok := f.Metrics["ns/op"]
		if !bok || !fok || bn <= 0 || fn <= 0 {
			missing = append(missing, fmt.Sprintf("%s: %s has no comparable ns/op", src, k))
			continue
		}
		p := pair{key: k, base: bn, fresh: fn, ratio: fn / bn, srcPair: src}
		ba, baok := b.Metrics["allocs/op"]
		fa, faok := f.Metrics["allocs/op"]
		if baok && faok {
			p.hasAllocs, p.baseAllocs, p.freshAllocs = true, ba, fa
		}
		pairs = append(pairs, p)
	}
	for _, f := range fresh {
		if k := key(f); !seen[k] {
			missing = append(missing, fmt.Sprintf("%s: %s only in fresh run", src, k))
		}
	}
	return pairs, missing
}

// normalize divides each ratio by the median ratio when enough
// benchmarks matched to estimate the machine-speed factor, and reports
// whether it did; below minMatched the raw ratios pass through.
func normalize(pairs []pair, minMatched int) bool {
	med := 1.0
	normalized := len(pairs) >= minMatched
	if normalized {
		rs := make([]float64, len(pairs))
		for i, p := range pairs {
			rs[i] = p.ratio
		}
		sort.Float64s(rs)
		if n := len(rs); n%2 == 1 {
			med = rs[n/2]
		} else {
			med = (rs[n/2-1] + rs[n/2]) / 2
		}
	}
	for i := range pairs {
		pairs[i].normed = pairs[i].ratio / med
	}
	return normalized
}
