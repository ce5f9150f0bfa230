package shard

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// PhaseTimes accumulates wall-clock time per barrier-separated phase
// across an engine's rounds. The decide bucket includes the serial
// inter-barrier bookkeeping of the weighted engine (the move bases),
// and the commit bucket its round-end refold of the cached weight sums
// and the total-weight fold that follows; both are part of the
// respective phase's critical path. The
// numbers expose where a configuration stalls — a commit share that
// grows with P is barrier overhead and flow-buffer traffic, a decide
// share that grows with skew is protocol work concentrating in one
// shard while the others idle at the barrier. Shards says which shard
// that is: the in-process engines record each shard's own decide and
// commit time, two clock reads per shard per phase, so the slowest
// shard's busy time sits beside the phase's barrier-to-barrier time.
type PhaseTimes struct {
	Snapshot time.Duration
	Decide   time.Duration
	Commit   time.Duration
	Rounds   int64
	// Shards[s] is shard s's cumulative busy time in the decide and
	// commit phases; nil where no per-shard time is recorded (the
	// cluster coordinator, whose workers report WorkerStats instead).
	Shards []ShardTimes `json:",omitempty"`
}

// ShardTimes is one shard's cumulative busy time in the decide and
// commit phases: the time its worker spent running that shard, not the
// barrier-to-barrier wall time.
type ShardTimes struct {
	Decide time.Duration
	Commit time.Duration
}

// Total is the summed wall-clock time across the three phases.
func (t PhaseTimes) Total() time.Duration {
	return t.Snapshot + t.Decide + t.Commit
}

// String renders per-round phase averages and, where recorded, each
// shard's per-round busy time, e.g.
// "snapshot 1.2ms/round (3%), decide 30ms/round (75%), commit 8.8ms/round (22%) over 40 rounds; shard busy decide 29ms 11ms, commit 8.1ms 3ms per round".
// The phase part is obs.FormatPhases, the one formatter behind both
// this string (lbsim's "phases:" line) and serve's Stats.String.
func (t PhaseTimes) String() string {
	s := obs.FormatPhases(t.Rounds,
		obs.PhaseBreakdown{Name: "snapshot", Dur: t.Snapshot},
		obs.PhaseBreakdown{Name: "decide", Dur: t.Decide},
		obs.PhaseBreakdown{Name: "commit", Dur: t.Commit})
	if len(t.Shards) == 0 || t.Rounds == 0 {
		return s
	}
	per := func(d time.Duration) string {
		return (d / time.Duration(t.Rounds)).Round(time.Microsecond).String()
	}
	decide := make([]string, len(t.Shards))
	commit := make([]string, len(t.Shards))
	for k, st := range t.Shards {
		decide[k], commit[k] = per(st.Decide), per(st.Commit)
	}
	return fmt.Sprintf("%s; shard busy decide %s, commit %s per round", s, strings.Join(decide, " "), strings.Join(commit, " "))
}

// PhaseTimer is implemented by engines that record per-phase round
// timings; callers discover it via type assertion (the harness Probe
// hook does exactly that).
type PhaseTimer interface {
	Phases() PhaseTimes
}
