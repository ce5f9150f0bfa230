package serve

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Histogram ranges (obs.Histogram: 2³ log-linear buckets per octave,
// ≤12.5% relative error): batch sizes up to 2²⁰ submissions, admission
// latencies up to 2³⁰ µs (~18 minutes).
const (
	batchOctaves = 20
	admitOctaves = 30
)

// flushHelp explains lbd_flushes_total's causes: idle, the group's
// first submission woke a parked round loop; busy, the group opened
// while the loop was busy (a round or a Do probe) and was taken the
// moment the loop was free; final, Stop drained it in the last round.
const flushHelp = "Admitted groups by how the round loop took them: idle (woke a parked loop), busy (opened while the loop was busy), final (drained by Stop)."

// Metrics is the serve daemon's counter set, implemented on an
// obs.Registry so every series also exposes over GET /metrics in
// Prometheus text format. Updates are lock-free atomics (the submit
// path, the round loop, and stats readers never contend on a lock) and
// allocation-free after construction; Snapshot folds everything into a
// plain Stats value, keeping /stats behavior identical to the
// pre-registry implementation.
type Metrics struct {
	reg *obs.Registry

	submissions *obs.Counter
	rejected    *obs.Counter
	batches     *obs.Counter
	rounds      *obs.Counter
	idleRounds  *obs.Counter
	moves       *obs.Counter
	flushIdle   *obs.Counter
	flushBusy   *obs.Counter
	flushFinal  *obs.Counter
	queueNs     *obs.Counter
	applyNs     *obs.Counter
	stepNs      *obs.Counter
	snapshotNs  *obs.Counter
	decideNs    *obs.Counter
	commitNs    *obs.Counter
	batchHist   *obs.Histogram
	admitHist   *obs.Histogram

	// High-water marks. The all-time pair is monotone for the life of
	// the process; the window pair resets on ResetWindow so /stats
	// deltas stay meaningful on long-running daemons (a single slow
	// admission at boot would otherwise pin admitMaxUs forever).
	admitMaxNs    atomic.Int64
	maxBatch      atomic.Int64
	admitMaxWinNs atomic.Int64
	maxBatchWin   atomic.Int64
	winStart      atomic.Int64 // unix nanos of the current window start
}

// NewMetrics returns an empty metrics set on a fresh registry.
func NewMetrics() *Metrics { return NewMetricsOn(obs.NewRegistry()) }

// NewMetricsOn builds the metrics set registering every series on r.
func NewMetricsOn(r *obs.Registry) *Metrics {
	m := &Metrics{
		reg:         r,
		submissions: r.NewCounter("lbd_submissions_total", "Task submissions accepted by the batcher."),
		rejected:    r.NewCounter("lbd_rejected_total", "Task submissions rejected (validation or closed intake)."),
		batches:     r.NewCounter("lbd_batches_total", "Flushed submission groups applied as pre-round event batches."),
		rounds:      r.NewCounter("lbd_rounds_total", "Protocol rounds executed by the round loop."),
		idleRounds:  r.NewCounter("lbd_idle_rounds_total", "Rounds stepped without a pending batch (idle drain)."),
		moves:       r.NewCounter("lbd_moves_total", "Cumulative task moves across all rounds."),
		flushIdle:   r.NewCounter("lbd_flushes_total", flushHelp, obs.Label{Key: "cause", Value: "idle"}),
		flushBusy:   r.NewCounter("lbd_flushes_total", flushHelp, obs.Label{Key: "cause", Value: "busy"}),
		flushFinal:  r.NewCounter("lbd_flushes_total", flushHelp, obs.Label{Key: "cause", Value: "final"}),
		queueNs:     r.NewCounterScaled("lbd_queue_wait_seconds_total", "Time groups waited from first submission to their round's apply.", 1e-9),
		applyNs:     r.NewCounterScaled("lbd_apply_seconds_total", "Time applying event batches to the engine.", 1e-9),
		stepNs:      r.NewCounterScaled("lbd_step_seconds_total", "Time inside engine Step calls.", 1e-9),
		snapshotNs:  r.NewCounterScaled("lbd_phase_seconds_total", "Engine time by barrier phase.", 1e-9, obs.Label{Key: "phase", Value: "snapshot"}),
		decideNs:    r.NewCounterScaled("lbd_phase_seconds_total", "Engine time by barrier phase.", 1e-9, obs.Label{Key: "phase", Value: "decide"}),
		commitNs:    r.NewCounterScaled("lbd_phase_seconds_total", "Engine time by barrier phase.", 1e-9, obs.Label{Key: "phase", Value: "commit"}),
		batchHist:   r.NewHistogram("lbd_batch_size", "Submissions per admitted group.", batchOctaves),
		admitHist:   r.NewHistogram("lbd_admit_wait_microseconds", "Submission-to-admission latency.", admitOctaves),
	}
	m.winStart.Store(time.Now().UnixNano())
	r.NewGaugeFunc("lbd_admit_max_seconds", "All-time admission-latency high-water mark.",
		func() float64 { return float64(m.admitMaxNs.Load()) / 1e9 })
	r.NewGaugeFunc("lbd_admit_max_window_seconds", "Admission-latency high-water mark since the last window reset.",
		func() float64 { return float64(m.admitMaxWinNs.Load()) / 1e9 })
	r.NewGaugeFunc("lbd_batch_max", "All-time largest flushed group.",
		func() float64 { return float64(m.maxBatch.Load()) })
	r.NewGaugeFunc("lbd_batch_max_window", "Largest flushed group since the last window reset.",
		func() float64 { return float64(m.maxBatchWin.Load()) })
	r.NewGaugeFunc("lbd_window_age_seconds", "Age of the current high-water-mark window.",
		func() float64 { return time.Duration(time.Now().UnixNano() - m.winStart.Load()).Seconds() })
	return m
}

// Registry exposes the underlying registry for /metrics exposition and
// for owners registering engine-level series alongside the serve set.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// ResetWindow starts a fresh high-water-mark window: the windowed
// admit/batch maxima drop to zero while the all-time marks keep their
// monotone values.
func (m *Metrics) ResetWindow() {
	m.admitMaxWinNs.Store(0)
	m.maxBatchWin.Store(0)
	m.winStart.Store(time.Now().UnixNano())
}

func maxInto(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (m *Metrics) recordAdmit(d time.Duration) {
	m.admitHist.Observe(d.Microseconds())
	maxInto(&m.admitMaxNs, int64(d))
	maxInto(&m.admitMaxWinNs, int64(d))
}

func (m *Metrics) recordBatch(size int, queue time.Duration) {
	m.batches.Add(1)
	m.batchHist.Observe(int64(size))
	m.queueNs.Add(uint64(queue))
	maxInto(&m.maxBatch, int64(size))
	maxInto(&m.maxBatchWin, int64(size))
}

// Stats is one CSV-friendly snapshot of a serve run: scalar fields
// only, so it flattens to a header row and a value row (CSVHeader /
// CSVRow) and marshals directly for GET /stats.
type Stats struct {
	Submissions uint64 `json:"submissions"`
	Rejected    uint64 `json:"rejected"`
	Batches     uint64 `json:"batches"`
	Rounds      uint64 `json:"rounds"`
	IdleRounds  uint64 `json:"idleRounds"`
	Moves       int64  `json:"moves"`

	FlushIdle  uint64 `json:"flushIdle"`
	FlushBusy  uint64 `json:"flushBusy"`
	FlushFinal uint64 `json:"flushFinal"`

	BatchMean float64 `json:"batchMean"`
	BatchP50  float64 `json:"batchP50"`
	BatchP99  float64 `json:"batchP99"`
	BatchMax  int64   `json:"batchMax"`

	QueueSec    float64 `json:"queueSec"`
	ApplySec    float64 `json:"applySec"`
	StepSec     float64 `json:"stepSec"`
	SnapshotSec float64 `json:"snapshotSec"`
	DecideSec   float64 `json:"decideSec"`
	CommitSec   float64 `json:"commitSec"`

	AdmitP50Us float64 `json:"admitP50Us"`
	AdmitP99Us float64 `json:"admitP99Us"`
	AdmitMaxUs float64 `json:"admitMaxUs"`

	// Psi0 is the live Ψ₀ at snapshot time when the owner wired a
	// potential probe (NaN-free: 0 when absent).
	Psi0 float64 `json:"psi0"`

	// WindowSec is the age of the current high-water-mark window;
	// AdmitMaxWindowUs and BatchMaxWindow are the windowed
	// counterparts of the monotone AdmitMaxUs/BatchMax marks, so
	// /stats deltas stay meaningful on long-running daemons.
	WindowSec        float64 `json:"windowSec"`
	AdmitMaxWindowUs float64 `json:"admitMaxWindowUs"`
	BatchMaxWindow   int64   `json:"batchMaxWindow"`
}

// Snapshot folds the counters into a Stats value. Concurrent-safe; the
// snapshot is not atomic across fields (counters advance while it is
// taken), which is fine for monitoring.
func (m *Metrics) Snapshot() Stats {
	s := Stats{
		Submissions:      m.submissions.Value(),
		Rejected:         m.rejected.Value(),
		Batches:          m.batches.Value(),
		Rounds:           m.rounds.Value(),
		IdleRounds:       m.idleRounds.Value(),
		Moves:            int64(m.moves.Value()),
		FlushIdle:        m.flushIdle.Value(),
		FlushBusy:        m.flushBusy.Value(),
		FlushFinal:       m.flushFinal.Value(),
		BatchP50:         m.batchHist.Quantile(0.50),
		BatchP99:         m.batchHist.Quantile(0.99),
		BatchMax:         m.maxBatch.Load(),
		QueueSec:         time.Duration(m.queueNs.Value()).Seconds(),
		ApplySec:         time.Duration(m.applyNs.Value()).Seconds(),
		StepSec:          time.Duration(m.stepNs.Value()).Seconds(),
		SnapshotSec:      time.Duration(m.snapshotNs.Value()).Seconds(),
		DecideSec:        time.Duration(m.decideNs.Value()).Seconds(),
		CommitSec:        time.Duration(m.commitNs.Value()).Seconds(),
		AdmitP50Us:       m.admitHist.Quantile(0.50),
		AdmitP99Us:       m.admitHist.Quantile(0.99),
		AdmitMaxUs:       float64(m.admitMaxNs.Load()) / 1e3,
		WindowSec:        time.Duration(time.Now().UnixNano() - m.winStart.Load()).Seconds(),
		AdmitMaxWindowUs: float64(m.admitMaxWinNs.Load()) / 1e3,
		BatchMaxWindow:   m.maxBatchWin.Load(),
	}
	if s.Batches > 0 {
		s.BatchMean = float64(s.Submissions-s.Rejected) / float64(s.Batches)
	}
	return s
}

// statsFields pins the CSV column order.
var statsFields = []string{
	"submissions", "rejected", "batches", "rounds", "idleRounds", "moves",
	"flushIdle", "flushBusy", "flushFinal",
	"batchMean", "batchP50", "batchP99", "batchMax",
	"queueSec", "applySec", "stepSec", "snapshotSec", "decideSec", "commitSec",
	"admitP50Us", "admitP99Us", "admitMaxUs", "psi0",
	"windowSec", "admitMaxWindowUs", "batchMaxWindow",
}

// CSVHeader returns the comma-joined column names matching CSVRow.
func (Stats) CSVHeader() string { return strings.Join(statsFields, ",") }

// CSVRow renders the snapshot as one CSV record in CSVHeader order.
func (s Stats) CSVRow() string {
	vals := []any{
		s.Submissions, s.Rejected, s.Batches, s.Rounds, s.IdleRounds, s.Moves,
		s.FlushIdle, s.FlushBusy, s.FlushFinal,
		s.BatchMean, s.BatchP50, s.BatchP99, s.BatchMax,
		s.QueueSec, s.ApplySec, s.StepSec, s.SnapshotSec, s.DecideSec, s.CommitSec,
		s.AdmitP50Us, s.AdmitP99Us, s.AdmitMaxUs, s.Psi0,
		s.WindowSec, s.AdmitMaxWindowUs, s.BatchMaxWindow,
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			parts[i] = fmt.Sprintf("%g", x)
		default:
			parts[i] = fmt.Sprint(x)
		}
	}
	return strings.Join(parts, ",")
}

// String renders the snapshot as key=value pairs for shutdown logs.
// The phase segment uses the shared obs formatter — the same renderer
// behind lbsim's "phases:" line.
func (s Stats) String() string {
	return fmt.Sprintf(
		"submissions=%d rejected=%d batches=%d rounds=%d idle=%d moves=%d "+
			"flush(idle=%d busy=%d final=%d) batch(mean=%.1f p50=%g p99=%g max=%d window=%d) "+
			"t(queue=%.3fs apply=%.3fs step=%.3fs) phases(%s) "+
			"admit(p50=%gµs p99=%gµs max=%.0fµs window=%.0fµs/%.0fs) psi0=%g",
		s.Submissions, s.Rejected, s.Batches, s.Rounds, s.IdleRounds, s.Moves,
		s.FlushIdle, s.FlushBusy, s.FlushFinal,
		s.BatchMean, s.BatchP50, s.BatchP99, s.BatchMax, s.BatchMaxWindow,
		s.QueueSec, s.ApplySec, s.StepSec,
		obs.FormatPhases(int64(s.Rounds),
			obs.PhaseBreakdown{Name: "snapshot", Dur: time.Duration(s.SnapshotSec * 1e9)},
			obs.PhaseBreakdown{Name: "decide", Dur: time.Duration(s.DecideSec * 1e9)},
			obs.PhaseBreakdown{Name: "commit", Dur: time.Duration(s.CommitSec * 1e9)}),
		s.AdmitP50Us, s.AdmitP99Us, s.AdmitMaxUs, s.AdmitMaxWindowUs, s.WindowSec, s.Psi0)
}
