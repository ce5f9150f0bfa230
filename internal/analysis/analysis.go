// Package analysis computes per-state diagnostics of a running
// simulation: the potential functions, the set and mass of non-Nash
// edges (Definition 3.7), the expected-flow matrix, and load statistics.
// The experiment harness and the lbsim CLI use it to explain *why* a
// configuration converges at the speed it does — e.g. how much of Ψ₀ is
// concentrated on few nodes, and how much expected flow the current
// state generates.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// EdgeFlow is one directed edge with positive expected flow.
type EdgeFlow struct {
	From, To int
	Flow     float64
}

// Report summarizes one uniform state.
type Report struct {
	N            int     `json:"n"`
	M            int64   `json:"m"`
	Psi0         float64 `json:"psi0"`
	Psi1         float64 `json:"psi1"`
	LDelta       float64 `json:"lDelta"`
	AvgLoad      float64 `json:"avgLoad"`
	NonNashEdges int     `json:"nonNashEdges"` // directed count
	DirectedEdge int     `json:"directedEdges"`
	MaxGap       float64 `json:"maxLoadGap"` // max over directed edges of ℓᵢ−ℓⱼ
	TotalFlow    float64 `json:"totalExpectedFlow"`
	IsNash       bool    `json:"isNash"`
	// Psi0TopShare is the fraction of Ψ₀ carried by the top 10% of
	// nodes by deviation — 1.0 means the imbalance is a point mass.
	Psi0TopShare float64 `json:"psi0TopShare"`
}

// Analyze computes a Report for a uniform state with damping alpha
// (zero selects the system default 4·s_max).
func Analyze(st *core.UniformState, alpha float64) Report {
	sys := st.System()
	g := sys.Graph()
	if alpha == 0 {
		alpha = sys.DefaultAlpha()
	}
	rep := Report{
		N:       sys.N(),
		M:       st.Total(),
		Psi0:    core.Psi0(st),
		Psi1:    core.Psi1(st),
		LDelta:  core.LDelta(st),
		AvgLoad: st.AverageLoad(),
		IsNash:  core.IsNash(st),
	}
	for i := 0; i < g.N(); i++ {
		li := st.Load(i)
		for _, jj := range g.Neighbors(i) {
			j := int(jj)
			rep.DirectedEdge++
			gap := li - st.Load(j)
			if gap > rep.MaxGap {
				rep.MaxGap = gap
			}
			if f := core.ExpectedFlowUniform(st, i, j, alpha); f > 0 {
				rep.NonNashEdges++
				rep.TotalFlow += f
			}
		}
	}
	// Ψ₀ concentration.
	contrib := make([]float64, sys.N())
	for i := 0; i < sys.N(); i++ {
		e := st.Deviation(i)
		contrib[i] = e * e / sys.Speed(i)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(contrib)))
	top := sys.N() / 10
	if top < 1 {
		top = 1
	}
	topSum := 0.0
	for i := 0; i < top; i++ {
		topSum += contrib[i]
	}
	if rep.Psi0 > 0 {
		rep.Psi0TopShare = topSum / rep.Psi0
	}
	return rep
}

// Flows returns all directed edges with positive expected flow, sorted
// by descending flow.
func Flows(st *core.UniformState, alpha float64) []EdgeFlow {
	sys := st.System()
	g := sys.Graph()
	if alpha == 0 {
		alpha = sys.DefaultAlpha()
	}
	var out []EdgeFlow
	for i := 0; i < g.N(); i++ {
		for _, jj := range g.Neighbors(i) {
			j := int(jj)
			if f := core.ExpectedFlowUniform(st, i, j, alpha); f > 0 {
				out = append(out, EdgeFlow{From: i, To: j, Flow: f})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Flow > out[b].Flow })
	return out
}

// Format renders a Report as human-readable text.
func Format(rep Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d tasks=%d avgLoad=%.3f\n", rep.N, rep.M, rep.AvgLoad)
	fmt.Fprintf(&b, "Ψ₀=%.6g (top-10%% nodes carry %.0f%%)  Ψ₁=%.6g  L_Δ=%.4g\n",
		rep.Psi0, 100*rep.Psi0TopShare, rep.Psi1, rep.LDelta)
	fmt.Fprintf(&b, "non-Nash edges: %d/%d directed, max gap %.4g, total expected flow %.4g\n",
		rep.NonNashEdges, rep.DirectedEdge, rep.MaxGap, rep.TotalFlow)
	fmt.Fprintf(&b, "Nash equilibrium: %v\n", rep.IsNash)
	return b.String()
}
