// Differential tests for the decide kernels. Algorithm1.DecideNode and
// Algorithm2.DecideNodeFlat find their eligible edges with a branch-free
// bitmask, evaluate p_ij through edgeProb (1/sⱼ from System.invSpeed,
// no degree ratio where it is exactly 1), and (Algorithm 2) restore the
// block identity permutation in O(movers) instead of rewriting it. None
// of that may change a result: the references below are the code as it
// stood before, and every call must return what they return and leave
// the node stream where they leave it. The tests sweep degrees across the 64-edge chunk
// seams, irregular neighborhoods, four speed profiles, exact ties
// ℓᵢ − ℓⱼ == 1/sⱼ, every rng.Binomial branch and the DecideBlock seams;
// the fuzzer roams the same space.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/rng"
)

// rng.Binomial's branches, in its own order.
const (
	binZero      = iota // n <= 0
	binAll              // p >= 1
	binBernoulli        // n == 1
	binSmall            // n < 16
	binBTPE             // n·min(p, 1−p) >= 30
	binModeWalk         // the rest
	binBranches
)

// refBranches, when non-nil, counts the rng.Binomial branch of every
// draw the reference kernels make.
var refBranches *[binBranches]int

// refBinomial is nodeStream.Binomial(n, p), recording its branch.
func refBinomial(r *rng.Stream, n int, p float64) int {
	if refBranches != nil {
		b := binModeWalk
		switch {
		case n <= 0 || p <= 0 || math.IsNaN(p):
			b = binZero
		case p >= 1:
			b = binAll
		case n == 1:
			b = binBernoulli
		case n < 16:
			b = binSmall
		case float64(n)*math.Min(p, 1-p) >= 30:
			b = binBTPE
		}
		refBranches[b]++
	}
	return r.Binomial(n, p)
}

// refMigrationProb is migrationProb, verbatim.
func refMigrationProb(sys *System, i, j int, li, lj, alpha, wi float64) float64 {
	deg := float64(sys.g.Degree(i))
	dij := float64(sys.g.DMax(i, j))
	p := deg / dij * (li - lj) / (alpha * (1/sys.speeds[i] + 1/sys.speeds[j]) * wi)
	if p > 1 {
		// Cannot occur for α ≥ s_max (p ≤ 1/α·sᵢ·(ℓᵢ−ℓⱼ)·sᵢ/wᵢ ≤ 1/α·s_max
		// is bounded by 1), but clamp defensively for user-chosen α.
		p = 1
	}
	if p < 0 {
		p = 0
	}
	return p
}

// refDecideNode is Algorithm1.DecideNode before the bitmask, verbatim
// apart from drawing through refBinomial.
func refDecideNode(p Algorithm1, sys *System, i int, wi int64, li float64, nbLoads []float64, nodeStream *rng.Stream, out []int64) int64 {
	nbs := sys.g.Neighbors(i)
	deg := len(nbs)
	for idx := 0; idx < deg; idx++ {
		out[idx] = 0
	}
	if wi == 0 {
		return 0
	}
	alpha := p.effectiveAlpha(sys)
	invDeg := 1 / float64(deg)
	remaining := int(wi)
	rest := 1.0 // probability mass of the categories not yet drawn
	moves := int64(0)
	for idx, jj := range nbs {
		if remaining == 0 {
			break
		}
		j := int(jj)
		lj := nbLoads[idx]
		if li-lj <= 1/sys.speeds[j] {
			continue
		}
		q := refMigrationProb(sys, i, j, li, lj, alpha, float64(wi)) * invDeg
		if q <= 0 {
			continue
		}
		// Clamp the conditional like rng.MultinomialInto: rest can drift
		// at or below q when the eligible edges carry the full mass.
		cp := 1.0
		if rest > q {
			cp = q / rest
		}
		k := refBinomial(nodeStream, remaining, cp)
		if k > 0 {
			out[idx] = int64(k)
			moves += int64(k)
			remaining -= k
		}
		rest -= q
	}
	return moves
}

// refDecideNodeFlat is Algorithm2.DecideNodeFlat before the bitmask and
// the swap log, verbatim apart from drawing through refBinomial. It
// must not share a scratch with the kernel: it leaves ident permuted.
func refDecideNodeFlat(p Algorithm2, sys *System, i, cnt int, wi float64, loads []float64, nodeStream *rng.Stream, sc *WeightedScratch) []TaskMove {
	if cnt == 0 {
		return nil
	}
	g := sys.g
	alpha := p.effectiveAlpha(sys)
	nbs := g.Neighbors(i)
	deg := len(nbs)
	li := loads[i]
	if cap(sc.probs) < deg {
		sc.probs = make([]float64, deg)
		sc.counts = make([]int, deg)
	}
	// probs[idx] = P(a task targets neighbor idx AND passes its coin).
	probs := sc.probs[:deg]
	counts := sc.counts[:deg]
	sumQ := 0.0
	lastPos := -1 // last eligible neighbor: takes the block remainder
	for idx, jj := range nbs {
		probs[idx] = 0
		j := int(jj)
		if li-loads[j] <= 1/sys.speeds[j] {
			continue
		}
		pij := refMigrationProb(sys, i, j, li, loads[j], alpha, wi)
		if pij <= 0 {
			continue
		}
		probs[idx] = pij / float64(deg)
		sumQ += probs[idx]
		lastPos = idx
	}
	if lastPos < 0 {
		return nil
	}
	if sumQ > 1 {
		sumQ = 1 // Σ pij/deg ≤ 1 exactly; guard the final rounding ulp
	}
	if sc.ident == nil {
		sc.ident = make([]int16, DecideBlock)
		sc.destOf = make([]int32, DecideBlock)
	}
	ident, destOf := sc.ident, sc.destOf
	// Presize the move buffer to the expected mover count (E = cnt·ΣQ,
	// concentrated within O(√E)) before truncating: append-driven growth
	// would memmove the dead previous contents on every doubling, so
	// replace an undersized buffer with a fresh empty one instead,
	// monotone-doubling the cap so a run allocates O(log peak) times.
	// The estimate involves no random draws, so it is trajectory-neutral.
	if est := int(float64(cnt)*sumQ*1.125) + 64; cap(sc.moves) < est {
		sc.moves = make([]TaskMove, 0, max(est, 2*cap(sc.moves)))
	}
	out := sc.moves[:0]
	for base := (cnt - 1) / DecideBlock * DecideBlock; base >= 0; base -= DecideBlock {
		bsz := cnt - base
		if bsz > DecideBlock {
			bsz = DecideBlock
		}
		tb := refBinomial(nodeStream, bsz, sumQ)
		if tb == 0 {
			continue
		}
		// Conditional multinomial split of the block's movers over the
		// eligible neighbors (probabilities q/Σq), with the same
		// conditional-probability clamp as rng.MultinomialInto; the last
		// eligible neighbor takes the remainder outright.
		remaining := tb
		rest := sumQ
		for idx := 0; idx < lastPos; idx++ {
			q := probs[idx]
			if q <= 0 {
				counts[idx] = 0
				continue
			}
			cp := 1.0
			if rest > q {
				cp = q / rest
			}
			c := refBinomial(nodeStream, remaining, cp)
			counts[idx] = c
			remaining -= c
			rest -= q
		}
		counts[lastPos] = remaining
		// Choose which block positions move: the prefix of a partial
		// Fisher–Yates over [0, bsz) in random order, split into runs of
		// counts[idx] — a uniformly random ordered partition. Record each
		// mover's destination per position and mark it in the bitmap.
		var bm [DecideBlock / 64]uint64
		for t := 0; t < bsz; t++ {
			ident[t] = int16(t)
		}
		t := 0
		for idx := 0; idx <= lastPos; idx++ {
			for c := counts[idx]; c > 0; c-- {
				r := t + nodeStream.Intn(bsz-t)
				ident[t], ident[r] = ident[r], ident[t]
				pos := int(ident[t])
				destOf[pos] = int32(idx)
				bm[pos>>6] |= 1 << (uint(pos) & 63)
				t++
			}
		}
		// Emit the block's moves in descending position order by scanning
		// the bitmap from the top word down.
		for w := (bsz - 1) >> 6; w >= 0; w-- {
			word := bm[w]
			for word != 0 {
				b := bits.Len64(word) - 1
				word &^= 1 << uint(b)
				pos := w<<6 | b
				out = append(out, TaskMove{From: i, Idx: base + pos, To: int(nbs[destOf[pos]])})
			}
		}
	}
	sc.moves = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// kernelCase is one node of one instance under both kernels.
type kernelCase struct {
	sys   *System
	i     int
	loads []float64 // global snapshot; loads[i] is ℓᵢ
	alpha float64
	seed  uint64 // node stream seed
}

// kernelStats records what a sweep exercised.
type kernelStats struct {
	calls, ties, upEdges int // upEdges: eligible edges with deg(j) > deg(i)
	degrees              map[int]bool
}

func newKernelStats() *kernelStats {
	return &kernelStats{degrees: map[int]bool{}}
}

// note records the case's degree, exact ties and eligible edges into a
// higher degree.
func (ks *kernelStats) note(c kernelCase) {
	g := c.sys.g
	deg := g.Degree(c.i)
	ks.calls++
	ks.degrees[deg] = true
	li := c.loads[c.i]
	for _, j := range g.Neighbors(c.i) {
		lj, inv := c.loads[j], 1/c.sys.speeds[j]
		if li-lj == inv {
			ks.ties++
		}
		if li-lj > inv && g.Degree(int(j)) > deg {
			ks.upEdges++
		}
	}
}

// checkAlgorithm1 runs both Algorithm 1 kernels on c with wi tasks and
// compares the moves, out and the stream position.
func checkAlgorithm1(t *testing.T, c kernelCase, wi int64) {
	t.Helper()
	nbs := c.sys.g.Neighbors(c.i)
	nb := make([]float64, len(nbs))
	for idx, j := range nbs {
		nb[idx] = c.loads[j]
	}
	p := Algorithm1{Alpha: c.alpha}
	gotOut, wantOut := make([]int64, len(nbs)+1), make([]int64, len(nbs)+1)
	gotOut[len(nbs)], wantOut[len(nbs)] = -7, -7 // past deg(i): untouched
	a, b := rng.New(c.seed), rng.New(c.seed)
	got := p.DecideNode(c.sys, c.i, wi, c.loads[c.i], nb, a, gotOut)
	want := refDecideNode(p, c.sys, c.i, wi, c.loads[c.i], nb, b, wantOut)
	if got != want || !slices.Equal(gotOut, wantOut) {
		t.Fatalf("%s node %d (deg %d) wi=%d alpha=%g seed %d: DecideNode = %d %v, reference %d %v",
			c.sys.g.Name(), c.i, len(nbs), wi, c.alpha, c.seed, got, gotOut, want, wantOut)
	}
	if a.Uint64() != b.Uint64() {
		t.Fatalf("%s node %d wi=%d seed %d: DecideNode consumed a different number of draws",
			c.sys.g.Name(), c.i, wi, c.seed)
	}
}

// checkAlgorithm2 runs both Algorithm 2 kernels on c with cnt tasks of
// total weight wi, each on its own long-lived scratch, and compares the
// moves and the stream position.
func checkAlgorithm2(t *testing.T, c kernelCase, cnt int, wi float64, got, want *WeightedScratch) {
	t.Helper()
	p := Algorithm2{Alpha: c.alpha}
	a, b := rng.New(c.seed), rng.New(c.seed)
	gm := p.DecideNodeFlat(c.sys, c.i, cnt, wi, c.loads, a, got)
	wm := refDecideNodeFlat(p, c.sys, c.i, cnt, wi, c.loads, b, want)
	if !slices.Equal(gm, wm) {
		t.Fatalf("%s node %d (deg %d) cnt=%d wi=%g alpha=%g seed %d: %d moves, reference %d (first difference at %d)",
			c.sys.g.Name(), c.i, c.sys.g.Degree(c.i), cnt, wi, c.alpha, c.seed, len(gm), len(wm), firstDiff(gm, wm))
	}
	if a.Uint64() != b.Uint64() {
		t.Fatalf("%s node %d cnt=%d seed %d: DecideNodeFlat consumed a different number of draws",
			c.sys.g.Name(), c.i, cnt, c.seed)
	}
	for k, v := range got.ident {
		if int(v) != k {
			t.Fatalf("%s node %d cnt=%d seed %d: ident[%d] = %d after the call, want the identity",
				c.sys.g.Name(), c.i, cnt, c.seed, k, v)
		}
	}
}

// checkEdgeProb compares edgeProb with migrationProb's reference, bit
// for bit, on every edge of c, eligible or not.
func checkEdgeProb(t *testing.T, c kernelCase, wi float64) {
	t.Helper()
	alpha := Algorithm1{Alpha: c.alpha}.effectiveAlpha(c.sys)
	li := c.loads[c.i]
	ep := newEdgeProb(c.sys, c.i, li, alpha, wi)
	for _, jj := range c.sys.g.Neighbors(c.i) {
		j := int(jj)
		got := ep.at(j, c.loads[j])
		want := refMigrationProb(c.sys, c.i, j, li, c.loads[j], alpha, wi)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s edge %d→%d alpha=%g wi=%g: edgeProb = %v, reference %v",
				c.sys.g.Name(), c.i, j, alpha, wi, got, want)
		}
	}
}

func firstDiff(a, b []TaskMove) int {
	for k := range min(len(a), len(b)) {
		if a[k] != b[k] {
			return k
		}
	}
	return min(len(a), len(b))
}

// neighborLoads fills loads with ℓᵢ = li and, per neighbor of i, a load
// drawn by kind: an exact tie ℓᵢ − ℓⱼ == 1/sⱼ, one ulp either side of
// it, or a random load in [li − spread, li + spread].
func neighborLoads(sys *System, i int, li, spread float64, r *rng.Stream, loads []float64) {
	loads[i] = li
	for _, jj := range sys.g.Neighbors(i) {
		j := int(jj)
		inv := 1 / sys.speeds[j]
		switch r.Intn(6) {
		case 0:
			loads[j] = exactTie(li, inv)
		case 1:
			loads[j] = math.Nextafter(exactTie(li, inv), math.Inf(1))
		case 2:
			loads[j] = math.Nextafter(exactTie(li, inv), math.Inf(-1))
		default:
			loads[j] = li + spread*(2*r.Float64()-1)
		}
	}
}

// exactTie returns an lj with li − lj == inv in floating point when one
// lies within a few ulps of li − inv, else li − inv itself.
func exactTie(li, inv float64) float64 {
	lj := li - inv
	for k, up, down := 0, lj, lj; k < 8; k++ {
		if li-up == inv {
			return up
		}
		if li-down == inv {
			return down
		}
		up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
	}
	return lj
}

// kernelGraphs spans node degrees 1 to 200 with every chunk seam of the
// 64-edge mask (63/64/65, 128/129, 130) and irregular neighborhoods
// where deg(j) > deg(i) (star leaves, bipartite, lollipop, barbell,
// tree, Erdős–Rényi).
func kernelGraphs(t testing.TB) []*graph.Graph {
	t.Helper()
	var gs []*graph.Graph
	add := func(g *graph.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	for _, n := range []int{2, 3, 64, 65, 66, 129, 130, 131} {
		add(graph.Complete(n))
	}
	add(graph.Star(201))
	add(graph.CompleteBipartite(3, 140))
	add(graph.Lollipop(66, 4))
	add(graph.Barbell(65, 2))
	add(graph.BinaryTree(31))
	add(graph.Hypercube(7))
	add(graph.Torus(5, 6))
	for seed := uint64(1); len(gs) < 17; seed++ {
		if g, err := graph.ErdosRenyi(150, 0.4, rng.New(seed)); err == nil && g.IsConnected() {
			gs = append(gs, g)
		}
	}
	return gs
}

// kernelSpeeds returns the four speed profiles for n nodes: unit,
// two-class, powers of two, and random integers up to 7 (whose 1/sⱼ
// are not dyadic).
func kernelSpeeds(t testing.TB, n int, r *rng.Stream) []machine.Speeds {
	t.Helper()
	two, err := machine.TwoClass(n, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	pow, err := machine.PowersOfTwo(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	ints, err := machine.RandomIntegers(n, 7, r)
	if err != nil {
		t.Fatal(err)
	}
	return []machine.Speeds{machine.Uniform(n), two, pow, ints}
}

// kernelNodes picks the nodes of g to test: all of a small graph,
// otherwise a sample that always includes the minimum- and
// maximum-degree nodes.
func kernelNodes(g *graph.Graph, r *rng.Stream) []int {
	if g.N() <= 40 {
		nodes := make([]int, g.N())
		for i := range nodes {
			nodes[i] = i
		}
		return nodes
	}
	lo, hi := 0, 0
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) < g.Degree(lo) {
			lo = v
		}
		if g.Degree(v) > g.Degree(hi) {
			hi = v
		}
	}
	nodes := []int{lo, hi, g.N() - 1}
	for len(nodes) < 24 {
		nodes = append(nodes, r.Intn(g.N()))
	}
	return nodes
}

// TestDecideKernelMatchesReference is the sweep: every graph × speed
// profile × sampled node, at two loads scales and two dampings (the
// default 4·s_max and a small α whose p_ij clamp at 1), for Algorithm 1
// with task counts that reach every rng.Binomial branch and for
// Algorithm 2 with task counts across the DecideBlock seams.
func TestDecideKernelMatchesReference(t *testing.T) {
	var branches [binBranches]int
	refBranches = &branches
	defer func() { refBranches = nil }()
	ks := newKernelStats()
	meta := rng.New(2026)
	wis := []int64{1, 2, 7, 15, 16, 40, 300, 5000, 200_000, 1 << 20}
	cnts := []int{1, 2, 15, 100, 4095, 4096, 4097, 8191, 8192, 8193, 12289}
	if testing.Short() {
		wis, cnts = []int64{1, 7, 40, 200_000}, []int{1, 15, 4095, 4096, 4097}
	}
	for _, g := range kernelGraphs(t) {
		for _, speeds := range kernelSpeeds(t, g.N(), meta) {
			sys, err := NewSystem(g, speeds, WithLambda2(1))
			if err != nil {
				t.Fatal(err)
			}
			loads := make([]float64, g.N())
			got, want := NewWeightedScratch(sys.maxDeg), NewWeightedScratch(sys.maxDeg)
			for _, i := range kernelNodes(g, meta) {
				for _, alpha := range []float64{0, 0.3} {
					for _, scale := range []float64{1, 64} {
						li := scale * float64(1+meta.Intn(8)) / speeds[i]
						neighborLoads(sys, i, li, 3*scale, meta, loads)
						c := kernelCase{sys: sys, i: i, loads: loads, alpha: alpha}
						ks.note(c)
						checkEdgeProb(t, c, li*speeds[i])
						for _, wi := range wis {
							c.seed = meta.Uint64()
							checkAlgorithm1(t, c, wi)
						}
						for _, cnt := range cnts {
							c.seed = meta.Uint64()
							checkAlgorithm2(t, c, cnt, li*speeds[i]*(0.5+meta.Float64()), got, want)
						}
					}
				}
			}
		}
	}
	for _, d := range []int{1, 63, 64, 65, 128, 129, 130} {
		if !ks.degrees[d] {
			t.Errorf("no node of degree %d was tested", d)
		}
	}
	if ks.ties == 0 || ks.upEdges == 0 {
		t.Errorf("%d exact ties and %d eligible edges into a higher degree: the sweep misses a case", ks.ties, ks.upEdges)
	}
	for b, n := range branches {
		if n == 0 {
			t.Errorf("rng.Binomial branch %d was never drawn (counts %v)", b, branches)
		}
	}
	t.Logf("%d nodes, %d exact ties, %d eligible edges into a higher degree, Binomial branches %v",
		ks.calls, ks.ties, ks.upEdges, branches)
}

// TestDecideKernelScratchAcrossCalls drives both Algorithm 2 kernels
// through many calls on one scratch each, mixing task counts across the
// block seams, so a swap log that failed to restore the identity would
// show up as a different move set at the next call.
func TestDecideKernelScratchAcrossCalls(t *testing.T) {
	g, err := graph.Star(70)
	if err != nil {
		t.Fatal(err)
	}
	speeds, err := machine.TwoClass(g.N(), 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(g, speeds, WithLambda2(1))
	if err != nil {
		t.Fatal(err)
	}
	got, want := NewWeightedScratch(sys.maxDeg), NewWeightedScratch(sys.maxDeg)
	r := rng.New(5)
	loads := make([]float64, g.N())
	for call := 0; call < 400; call++ {
		i := r.Intn(2) * (1 + r.Intn(g.N()-1)) // the hub half the time
		cnt := 1 + r.Intn(3*DecideBlock)
		li := float64(cnt) / speeds[i]
		neighborLoads(sys, i, li, li, r, loads)
		c := kernelCase{sys: sys, i: i, loads: loads, alpha: []float64{0, 0.5}[r.Intn(2)], seed: r.Uint64()}
		checkAlgorithm2(t, c, cnt, float64(cnt)*(0.2+r.Float64()), got, want)
	}
}

// FuzzDecideKernel compares both kernels with their references on one
// node of a fuzzed instance: graph shape and size, speed profile, task
// count, damping and load spread all come from the input.
func FuzzDecideKernel(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(64), uint32(40), uint16(0), float64(3))
	f.Add(uint64(2), uint8(1), uint16(200), uint32(4096), uint16(300), float64(50))
	f.Add(uint64(3), uint8(2), uint16(130), uint32(1<<20), uint16(0), float64(0.5))
	f.Add(uint64(4), uint8(7), uint16(66), uint32(4097), uint16(1000), float64(8))
	f.Add(uint64(5), uint8(13), uint16(129), uint32(1), uint16(0), float64(1))
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8, size uint16, count uint32, alphaMilli uint16, spread float64) {
		if math.IsNaN(spread) || math.IsInf(spread, 0) || math.Abs(spread) > 1e12 {
			return
		}
		r := rng.New(seed)
		g, err := fuzzGraph(shape%5, int(size), r)
		if err != nil || !g.IsConnected() {
			return
		}
		speeds := kernelSpeeds(t, g.N(), r)[int(shape/5)%4]
		sys, err := NewSystem(g, speeds, WithLambda2(1))
		if err != nil {
			t.Fatal(err)
		}
		i := r.Intn(g.N())
		cnt := 1 + int(count%(1<<21))
		li := float64(cnt) / speeds[i]
		loads := make([]float64, g.N())
		neighborLoads(sys, i, li, spread, r, loads)
		c := kernelCase{sys: sys, i: i, loads: loads, alpha: float64(alphaMilli) / 1000, seed: r.Uint64()}
		checkAlgorithm1(t, c, int64(cnt))
		got, want := NewWeightedScratch(sys.maxDeg), NewWeightedScratch(sys.maxDeg)
		checkAlgorithm2(t, c, cnt, float64(cnt)*(0.1+r.Float64()), got, want)
		c.seed = r.Uint64() // a second call on the same scratch
		checkAlgorithm2(t, c, cnt, float64(cnt)*(0.1+r.Float64()), got, want)
	})
}

// fuzzGraph builds one of five shapes with about size vertices.
func fuzzGraph(shape uint8, size int, r *rng.Stream) (*graph.Graph, error) {
	switch shape {
	case 0:
		return graph.Complete(2 + size%140)
	case 1:
		return graph.Star(3 + size%260)
	case 2:
		return graph.CompleteBipartite(1+size%5, 1+size%150)
	case 3:
		return graph.Lollipop(3+size%70, 1+size%5)
	case 4:
		return graph.ErdosRenyi(10+size%120, 0.3, r)
	}
	return nil, fmt.Errorf("no shape %d", shape)
}
