package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/shard"
)

// serveSpec is one lbd traffic shape: a weighted daemon on a ring of n
// two-class nodes holding tasksPerNode U[0.1,1] tasks each, placed in
// proportion to speed, fed open-loop submissions alternating arrival
// and completion on uniformly random nodes, plus optional placement
// hint reads (GET /load?k=hintK).
type serveSpec struct {
	name         string
	n            int
	tasksPerNode int
	rate         float64 // submissions per second
	hintRate     float64 // hint reads per second (0: none)
	hintK        int
	// perRound makes a round, not a submission, the unit of work ("op")
	// that cpu_us_per_op and go.alloc_bytes_per_op count: the unit the
	// workload's cost scales with.
	perRound bool
}

var (
	// The BENCH_serve acceptance run's per-op path at a size where
	// rounds are cheap: 150k submissions/s against n = 4,096.
	ingestSpec = serveSpec{name: "serve-ingest", n: 4096, tasksPerNode: 16, rate: 150_000}
	// The CI lbd smoke's rate at a size where rounds dominate, with
	// hint reads competing for the round loop.
	mixedSpec = serveSpec{name: "serve-mixed", n: 131_072, tasksPerNode: 16, rate: 20_000, hintRate: 10, hintK: 16, perRound: true}
)

// journalSegmentBytes rotates the journal a few times per window, so
// rotation and the segment-chain read-back are both exercised.
const journalSegmentBytes = 8 << 20

func runServeIngest(cfg config) (*windowOut, error) { return runServe(cfg, ingestSpec) }
func runServeMixed(cfg config) (*windowOut, error)  { return runServe(cfg, mixedSpec) }

// serveInstance is one built daemon: engine, rotating journal sink,
// server and HTTP handler, as cmd/lbd wires them.
type serveInstance struct {
	eng     *shard.WeightedEngine
	traced  *tracedEngine
	srv     *serve.Server[*core.WeightedState]
	sink    *serve.JournalSink
	handler http.Handler
	scans   *scanLog
	journal string
	tasks   int64
}

func buildServe(cfg config, sp serveSpec, epoch time.Time, journal string) (*serveInstance, setupTimes, error) {
	var ts setupTimes
	t0 := time.Now()
	sys, err := ringSystem(sp.n)
	if err != nil {
		return nil, ts, err
	}
	t1 := time.Now()
	perNode, err := weightedTasks(sys, sp.tasksPerNode*sp.n, "proportional", cfg.seed)
	if err != nil {
		return nil, ts, err
	}
	t2 := time.Now()
	eng, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, shard.Options{Shards: shards})
	if err != nil {
		return nil, ts, err
	}
	inst := &serveInstance{eng: eng, journal: journal, tasks: int64(sp.tasksPerNode * sp.n)}
	scfg := serve.Config{
		N:        sp.n,
		Weighted: true,
		Seed:     protocolSeed(cfg.seed, 0),
		Meta:     map[string]string{"benchmark": sp.name, "seed": strconv.FormatUint(cfg.seed, 10)},
	}
	if inst.sink, err = serve.NewJournalSink(inst.journal, journalSegmentBytes, scfg); err != nil {
		eng.Close()
		return nil, ts, err
	}
	scfg.Sink = inst.sink
	var engine core.Engine[*core.WeightedState] = eng
	probe := serve.Prober{NodeLoad: eng.NodeLoad}
	if cfg.traced {
		inst.traced = newTracedEngine(eng, epoch)
		engine = inst.traced
		inst.scans = &scanLog{epoch: epoch}
		probe.NodeLoad = inst.scans.wrap(eng.NodeLoad, sp.n)
	}
	if inst.srv, err = serve.New[*core.WeightedState](engine, scfg); err != nil {
		inst.sink.Close(nil)
		eng.Close()
		return nil, ts, err
	}
	inst.handler = serve.NewHandler(inst.srv, probe)
	t3 := time.Now()
	ts = setupTimes{graph: t1.Sub(t0), instance: t2.Sub(t1), engine: t3.Sub(t2)}
	return inst, ts, nil
}

// discard stops and removes an instance built only to time setup.
func (inst *serveInstance) discard() {
	res, _ := inst.srv.Stop()
	inst.sink.Close(&res)
	inst.eng.Close()
	removeJournal(inst.journal)
}

func journalSegments(path string) []string {
	segs, _ := filepath.Glob(path + ".*")
	return append([]string{path}, segs...)
}

func removeJournal(path string) {
	for _, p := range journalSegments(path) {
		os.Remove(p)
	}
}

func journalBytes(path string) int64 {
	var total int64
	for _, p := range journalSegments(path) {
		if fi, err := os.Stat(p); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// groupRec is one admission group as the generator saw it: every
// ticket the group's shared done channel covers, with each
// submission's due time (ns since the window start).
type groupRec struct {
	done    <-chan struct{}
	tickets []serve.Ticket
	due     []int64
	// Traced only: the first submission's Submit call.
	submitStart, submitEnd int64
}

// groupStat is what the collector keeps per resolved group.
type groupStat struct {
	round    uint64
	count    int64
	sumDue   float64 // Σ due times, ns
	firstDue int64
	seen     int64 // when the collector saw the group resolve, ns
	submit   [2]int64
}

// hintRec is one placement-hint read.
type hintRec struct {
	due, done int64
	ok        bool
	detail    string
}

// scanLog brackets each /load?k= scan: the wrapped NodeLoad marks the
// first and the last node a scan reads. Scans run one at a time on the
// round-loop goroutine (inside Server.Do); the mutex orders them with
// the reader that collects them after the window.
type scanLog struct {
	epoch time.Time
	mu    sync.Mutex
	cur   int64
	scans [][2]int64
}

// reset forgets the scans recorded so far.
func (s *scanLog) reset() {
	s.mu.Lock()
	s.scans = s.scans[:0]
	s.mu.Unlock()
}

func (s *scanLog) wrap(f func(int) (float64, error), n int) func(int) (float64, error) {
	return func(i int) (float64, error) {
		if i == 0 {
			s.cur = time.Since(s.epoch).Nanoseconds()
		}
		l, err := f(i)
		if i == n-1 {
			end := time.Since(s.epoch).Nanoseconds()
			s.mu.Lock()
			s.scans = append(s.scans, [2]int64{s.cur, end})
			s.mu.Unlock()
		}
		return l, err
	}
}

// A serve window is split evenly across serveInstances daemons, each
// built fresh, fed serveWarmup of unmeasured traffic (a daemon is
// long-running, so measuring starts once its heap, threads and caches
// have settled) and then measured. Identical daemons in one process ran
// up to 1.5× apart in speed, each steady for its lifetime, so pooling
// the one-second slices of several daemons makes the window's medians
// medians over those regimes rather than one draw.
const (
	serveInstances = 5
	serveWarmup    = time.Second
)

// loadRun is what one pass of the generator recorded. Times are
// relative to the pass's start unless noted.
type loadRun struct {
	start                             time.Time
	base                              int64 // start on the epoch clock
	admit, lag, submitHist, queueHist hist
	// Latency and CPU are also kept per one-second slice of due times;
	// the end-to-end values are medians over slices, so a burst of host
	// CPU steal moves one slice, not the whole value.
	slices   []hist
	cpuMarks []time.Duration
	stats    []groupStat
	hints    []hintRec

	total, arrivals, submitFailed int64
	elapsed, cpu                  time.Duration
	gs                            goStats
	flows                         int64
	// Journal segment bytes and the submissions they hold (warm-up
	// included), filled in once the daemon has stopped.
	journalBytes, journalOps int64
}

// drive runs the open-loop generator (and the hint reader, if the spec
// has one) against inst for window, and waits until every submission
// has resolved and every read has returned.
func (inst *serveInstance) drive(sp serveSpec, ops *rng.Stream, window time.Duration, epoch time.Time) *loadRun {
	lr := &loadRun{slices: make([]hist, int(window/sliceLen))}
	lr.cpuMarks = make([]time.Duration, len(lr.slices)+1)
	groups := make(chan *groupRec, 1024) // never full: a handful of groups are in flight per round
	free := make(chan *groupRec, 1024)
	collected := make(chan struct{})

	lr.start = time.Now()
	start := lr.start
	lr.base = start.Sub(epoch).Nanoseconds()
	p := newPacer(start, sp.rate, window)
	gs0 := readGoStats()
	lr.cpuMarks[0] = cpuTime()
	flows0 := inst.eng.CrossFlows()

	go func() {
		defer close(collected)
		for g := range groups {
			<-g.done
			seen := time.Since(start).Nanoseconds()
			st := groupStat{firstDue: g.due[0], seen: seen, submit: [2]int64{g.submitStart, g.submitEnd}}
			for i := range g.tickets {
				round, err := g.tickets[i].Wait()
				if err != nil {
					lr.admit.addFailed()
					continue
				}
				st.round = round
				st.count++
				st.sumDue += float64(g.due[i])
				lat := time.Duration(seen - g.due[i])
				lr.admit.add(lat)
				if sl := int(g.due[i] / int64(sliceLen)); sl < len(lr.slices) {
					lr.slices[sl].add(lat)
				}
				if inst.traced != nil && round < maxTracedRounds {
					lr.queueHist.add(time.Duration(inst.traced.log[round].applyStart - lr.base - g.due[i]))
				}
			}
			lr.stats = append(lr.stats, st)
			g.tickets, g.due = g.tickets[:0], g.due[:0]
			free <- g
		}
	}()

	var hintWG sync.WaitGroup
	hintsDone := make(chan struct{})
	if sp.hintRate > 0 {
		hp := newPacer(start, sp.hintRate, window)
		lr.hints = make([]hintRec, hp.total())
		go func() {
			defer close(hintsDone)
			for j := range lr.hints {
				due := hp.at(int64(j))
				time.Sleep(time.Until(due))
				hintWG.Add(1)
				go func(j int, due time.Time) {
					defer hintWG.Done()
					lr.hints[j] = readHint(inst.handler, sp, due.Sub(start).Nanoseconds(), start)
				}(j, due)
			}
		}()
	} else {
		close(hintsDone)
	}

	// Open-loop generator: wake, send everything due, sleep until the
	// next due time.
	var cur *groupRec
	var k int64
	lr.total = p.total()
	for k < lr.total {
		now := time.Now()
		for sl := int(now.Sub(start) / sliceLen); sl >= 1 && sl < len(lr.cpuMarks) && lr.cpuMarks[sl] == 0; sl-- {
			lr.cpuMarks[sl] = cpuTime()
		}
		due := p.dueBy(now)
		for ; k < due; k++ {
			op := serve.Op{Kind: serve.OpCompleteWeighted, Node: ops.Intn(sp.n)}
			if k%2 == 0 {
				op.Kind = serve.OpArriveWeighted
				op.Weight = 0.1 + 0.9*ops.Float64()
			}
			dueNs := p.at(k).Sub(start).Nanoseconds()
			var t0 time.Time
			if inst.traced != nil {
				t0 = time.Now()
				lr.lag.add(t0.Sub(start) - time.Duration(dueNs))
			} else {
				lr.lag.add(now.Sub(start) - time.Duration(dueNs))
			}
			t, err := inst.srv.Submit(op)
			var t1 time.Time
			if inst.traced != nil {
				t1 = time.Now()
				lr.submitHist.add(t1.Sub(t0))
			}
			if err != nil {
				lr.submitFailed++
				continue
			}
			if op.Kind == serve.OpArriveWeighted {
				lr.arrivals++
			}
			if d := t.Done(); cur == nil || d != cur.done {
				if cur != nil {
					groups <- cur
				}
				select {
				case cur = <-free:
				default:
					cur = &groupRec{}
				}
				cur.done = d
				if inst.traced != nil {
					cur.submitStart, cur.submitEnd = t0.Sub(epoch).Nanoseconds(), t1.Sub(epoch).Nanoseconds()
				}
			}
			cur.tickets = append(cur.tickets, t)
			cur.due = append(cur.due, dueNs)
		}
		if k < lr.total {
			time.Sleep(time.Until(p.at(k)))
		}
	}
	if cur != nil {
		groups <- cur
	}
	close(groups)
	<-collected
	<-hintsDone
	hintWG.Wait()
	lr.elapsed = time.Since(start)
	lr.cpuMarks[len(lr.slices)] = cpuTime()
	lr.cpu = lr.cpuMarks[len(lr.slices)] - lr.cpuMarks[0]
	lr.gs = readGoStats().sub(gs0)
	lr.flows = inst.eng.CrossFlows() - flows0
	return lr
}

func runServe(cfg config, sp serveSpec) (*windowOut, error) {
	w := &windowOut{primaryName: "latency_ms"}
	epoch := time.Now()
	daemons := max(1, min(serveInstances, int(cfg.window/sliceLen)))
	sub := cfg.window / time.Duration(daemons)

	// Extra builds, discarded, so that setup_s is a median of enough
	// builds; the measured daemons' builds count too.
	var setups []setupTimes
	var spent time.Duration
	for n := daemons; n < setupRepeats || (spent < setupBudget && n < setupMaxRepeats); n++ {
		inst, ts, err := buildServe(cfg, sp, epoch, filepath.Join(cfg.dir, "journal-setup.jsonl"))
		if err != nil {
			return nil, err
		}
		inst.discard()
		setups = append(setups, ts)
		spent += ts.total()
		runtime.GC()
	}

	type finished struct {
		journal string
		res     core.RunResult
	}
	var (
		runs   []*loadRun
		done   []finished
		traced *serveTrace
		stream = subStream(cfg.seed, streamOps)
	)
	if cfg.traced {
		traced = &serveTrace{}
	}
	for d := 0; d < daemons; d++ {
		runtime.GC() // the previous daemon's memory is not part of this one's peak
		inst, ts, err := buildServe(cfg, sp, epoch, filepath.Join(cfg.dir, fmt.Sprintf("journal-%d.jsonl", d)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, ts)
		warm := inst.drive(sp, stream, serveWarmup, epoch)
		if inst.traced != nil {
			inst.traced.resetLog()
			inst.scans.reset()
		}
		lr := inst.drive(sp, stream, sub, epoch)
		res, stopErr := inst.srv.Stop()
		closeErr := inst.sink.Close(&res)
		if traced != nil {
			traced.add(inst, lr, d)
		}
		checkDaemon(w, sp, d, inst, warm, lr, res, stopErr, closeErr)
		lr.journalBytes = journalBytes(inst.journal)
		lr.journalOps = warm.total + lr.total
		inst.eng.Close()
		runs = append(runs, lr)
		done = append(done, finished{inst.journal, res})
	}
	w.e("peak_rss_mb", "MB", peakRSSMB(), 0, "VmHWM after the window, before the checks")
	addSetupMetrics(w, setups)

	// Pool the daemons' runs.
	var (
		admit, lag                        hist
		slices                            []hist
		hints                             []hintRec
		cpuPer                            []float64
		cpu, elapsed                      time.Duration
		gs                                goStats
		total, refused, flows, rounds     int64
		journalBytesTotal, journalOpTotal int64
	)
	for _, lr := range runs {
		admit.merge(&lr.admit)
		lag.merge(&lr.lag)
		slices = append(slices, lr.slices...)
		hints = append(hints, lr.hints...)
		// A slice's ops are its submissions, or the rounds whose
		// admission the collector saw in it (the same clock as the
		// slice's CPU marks).
		opsIn := make([]int64, len(lr.slices))
		for i := range lr.slices {
			opsIn[i] = int64(lr.slices[i].n)
		}
		if sp.perRound {
			clear(opsIn)
			for _, st := range lr.stats {
				if sl := int(st.seen / int64(sliceLen)); sl < len(opsIn) {
					opsIn[sl]++
				}
			}
		}
		for i := range lr.slices {
			if d := lr.cpuMarks[i+1] - lr.cpuMarks[i]; d > 0 && lr.cpuMarks[i] > 0 && opsIn[i] > 0 {
				cpuPer = append(cpuPer, d.Seconds()*1e6/float64(opsIn[i]))
			}
		}
		cpu += lr.cpu
		elapsed += lr.elapsed
		gs.allocBytes += lr.gs.allocBytes
		gs.gcCPU += lr.gs.gcCPU
		gs.totalCPU += lr.gs.totalCPU
		total += lr.total
		refused += lr.submitFailed
		flows += lr.flows
		rounds += int64(len(lr.stats))
		journalBytesTotal += lr.journalBytes
		journalOpTotal += lr.journalOps
	}
	admitted := int64(admit.n)
	w.attempted = total + int64(len(hints))
	w.failed = refused + int64(admit.failed)
	addLatency(w.e, "admit", &admit, slices, 99)
	latency, latencyN, latencyOf := ms(sliceQuantile(slices, 50)), admit.total(), "admission p50, median of slices"
	if sp.hintRate > 0 {
		hh := hist{exact: true}
		for _, h := range hints {
			if h.ok {
				hh.add(time.Duration(h.done - h.due))
			} else {
				hh.addFailed()
				w.failed++
			}
		}
		addLatency(w.e, "hint", &hh, nil, 90)
		latency, latencyN, latencyOf = ms(hh.quantile(50)), hh.total(), "hint read p50"
	}
	w.e("latency_ms", "ms", latency, latencyN, latencyOf)
	w.primary = latency
	unit, ops := "submission", admitted
	if sp.perRound {
		unit, ops = "round", rounds
	}
	w.e("cpu_us_per_op", "us", median(cpuPer), ops, fmt.Sprintf("CPU per %s, median of %d slices; whole window %.4g us (%.3f CPU-s over %.3f s)",
		unit, len(cpuPer), cpu.Seconds()*1e6/float64(ops), cpu.Seconds(), elapsed.Seconds()))

	// Per-layer metrics: generator health and serve-layer counters.
	w.l("serve.gen_lag_ms", "ms", ms(lag.quantile(99)), lag.total(), fmt.Sprintf("p99; p50 %.4g ms", ms(lag.quantile(50))))
	w.l("serve.batch_ops", "count", float64(admitted)/float64(max(rounds, 1)), rounds, "submissions per admitted round")
	w.l("serve.journal_bytes_per_op", "bytes", float64(journalBytesTotal)/float64(journalOpTotal), journalOpTotal, "bytes of journal segments per submission, warm-up included")
	w.l("shard.cross_flows_per_round", "count", float64(flows)/float64(max(rounds, 1)), rounds, "")
	var moves, lifeRounds int64
	for _, f := range done {
		moves += f.res.Moves
		lifeRounds += int64(f.res.Rounds)
	}
	w.l("core.moves_per_round", "count", float64(moves)/float64(max(lifeRounds, 1)), lifeRounds, "over the daemons' lifetimes, warm-up included")
	w.l("go.alloc_bytes_per_op", "bytes", gs.allocBytes/float64(max(ops, 1)), ops, "per "+unit)
	w.l("go.gc_cpu_share", "fraction", gs.gcShare(), 0, "")
	if traced != nil {
		traced.finish(w, cfg.dir, &admit)
	}

	// lbd -verify on every daemon's journal, after the window.
	var replayed time.Duration
	var replayedRounds int
	for d, f := range done {
		dur, n := replayJournal(w, cfg, sp, d, f.journal, f.res)
		replayed += dur
		replayedRounds += n
		removeJournal(f.journal)
	}
	if replayedRounds > 0 {
		w.l("core.reference_round_ms", "ms", replayed.Seconds()*1e3/float64(replayedRounds), int64(replayedRounds), "serve.Replay of the journals: the same rounds without a serving layer")
	}
	if !allOK(w.checks) {
		w.failed++
	}
	return w, nil
}

// checkDaemon runs the per-daemon checks that need the live daemon:
// every submission admitted, the ledger and journal agree, tasks are
// conserved and every hint read was valid (warm-up included).
func checkDaemon(w *windowOut, sp serveSpec, d int, inst *serveInstance, warm, lr *loadRun, res core.RunResult, stopErr, closeErr error) {
	total := warm.total + lr.total
	refused := warm.submitFailed + lr.submitFailed
	failed := int64(warm.admit.failed + lr.admit.failed)
	all := int64(warm.admit.n + lr.admit.n)
	w.check(fmt.Sprintf("daemon %d submissions admitted", d), refused == 0 && failed == 0 && all == total,
		"%d of %d admitted, %d refused, %d failed", all, total, refused, failed)
	w.check(fmt.Sprintf("daemon %d stopped cleanly", d), stopErr == nil && closeErr == nil, "stop: %v, journal close: %v", stopErr, closeErr)
	arrivals := warm.arrivals + lr.arrivals
	w.check(fmt.Sprintf("daemon %d arrivals ledgered", d), res.Ledger.ArrivedTasks == arrivals && res.Ledger.Batches == inst.sink.Entries(),
		"ledger arrived %d of %d submitted; %d batches, %d journal entries", res.Ledger.ArrivedTasks, arrivals, res.Ledger.Batches, inst.sink.Entries())
	want := inst.tasks + res.Ledger.ArrivedTasks - res.Ledger.DepartedTasks
	got := inst.eng.TaskCount()
	w.check(fmt.Sprintf("daemon %d tasks conserved", d), got == want, "engine holds %d tasks, initial + arrived − departed = %d", got, want)
	if sp.hintRate > 0 {
		bad, reads := 0, 0
		detail := ""
		for _, hs := range [][]hintRec{warm.hints, lr.hints} {
			for _, h := range hs {
				reads++
				if !h.ok {
					bad++
					detail = h.detail
				}
			}
		}
		w.check(fmt.Sprintf("daemon %d hint reads", d), bad == 0, "%d of %d reads answered with a valid k=%d hint %s", reads-bad, reads, sp.hintK, detail)
	}
}

func allOK(cs []check) bool {
	for _, c := range cs {
		if !c.OK {
			return false
		}
	}
	return true
}

// addLatency adds the median and a tail percentile of h, with the
// highest percentile the sample supports named in the note. With
// slices, each value is the median over slices of the slice's
// percentile.
func addLatency(add func(name, unit string, v float64, n int64, note string), prefix string, h *hist, slices []hist, tail float64) {
	n := h.total()
	value := func(p float64) (float64, string) {
		whole := fmt.Sprintf("whole window %.4g ms, %d beyond", ms(h.quantile(p)), beyond(p, n))
		if slices == nil {
			return ms(h.quantile(p)), whole
		}
		return ms(sliceQuantile(slices, p)), fmt.Sprintf("median of %d slices, min slice n=%d; %s", len(slices), minSlice(slices), whole)
	}
	v, note := value(50)
	add(prefix+"_p50_ms", "ms", v, n, note)
	best := tailPercentile(n)
	v, note = value(tail)
	add(fmt.Sprintf("%s_p%g_ms", prefix, tail), "ms", v, n, fmt.Sprintf("%s; highest supported tail p%g = %.4g ms", note, best, ms(h.quantile(best))))
}

// readHint sends one GET /load?k= to the handler in process and checks
// the answer: k distinct in-range nodes in ascending load order.
func readHint(h http.Handler, sp serveSpec, due int64, start time.Time) hintRec {
	req := httptest.NewRequest(http.MethodGet, "/load?k="+strconv.Itoa(sp.hintK), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	r := hintRec{due: due, done: time.Since(start).Nanoseconds()}
	if rec.Code != http.StatusOK {
		r.detail = fmt.Sprintf("status %d", rec.Code)
		return r
	}
	var body struct {
		Nodes []struct {
			Node int     `json:"node"`
			Load float64 `json:"load"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		r.detail = err.Error()
		return r
	}
	if len(body.Nodes) != sp.hintK {
		r.detail = fmt.Sprintf("%d nodes", len(body.Nodes))
		return r
	}
	seen := map[int]bool{}
	for i, e := range body.Nodes {
		if e.Node < 0 || e.Node >= sp.n || seen[e.Node] || (i > 0 && e.Load < body.Nodes[i-1].Load) {
			r.detail = fmt.Sprintf("bad entry %d: %+v", i, e)
			return r
		}
		seen[e.Node] = true
	}
	r.ok = true
	return r
}

// replayJournal is lbd -verify: read daemon d's rotated segment chain
// back and replay it on a freshly built engine; the result must equal
// the live one bit for bit. It returns the replay's wall time and
// rounds.
func replayJournal(w *windowOut, cfg config, sp serveSpec, d int, path string, live core.RunResult) (time.Duration, int) {
	name := fmt.Sprintf("daemon %d journal replay", d)
	j, err := serve.ReadJournalSegments(path)
	if err != nil {
		w.check(name, false, "read: %v", err)
		return 0, 0
	}
	sys, err := ringSystem(sp.n)
	if err != nil {
		w.check(name, false, "rebuild: %v", err)
		return 0, 0
	}
	perNode, err := weightedTasks(sys, sp.tasksPerNode*sp.n, "proportional", cfg.seed)
	if err != nil {
		w.check(name, false, "rebuild: %v", err)
		return 0, 0
	}
	eng, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, shard.Options{Shards: shards})
	if err != nil {
		w.check(name, false, "rebuild: %v", err)
		return 0, 0
	}
	defer eng.Close()
	t0 := time.Now()
	res, err := serve.Replay[*core.WeightedState](j, eng)
	dur := time.Since(t0)
	ok := err == nil && reflect.DeepEqual(res, live)
	w.check(name, ok, "%d entries, %d rounds, %d moves replayed in %.3f s (err %v)", len(j.Entries), res.Rounds, res.Moves, dur.Seconds(), err)
	return dur, res.Rounds
}
