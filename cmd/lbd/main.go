// Command lbd is the load-balancing daemon: a live engine behind a
// batched-ingestion serve loop (internal/serve), fed either by HTTP
// clients or by a built-in open-loop generator. Individual task
// submissions are amortized into one pre-round event batch per
// protocol round, so a million-node engine stepping a few rounds per
// second still admits >100k submissions per second. With -journal,
// every admitted batch streams to disk as its round completes; the
// journal replays offline to a bit-identical RunResult.
//
// Modes:
//
//	lbd -listen 127.0.0.1:8080 -graph ring -n 100000 -engine shard
//	    daemon: serve POST /tasks, POST /complete, GET /load, GET /stats
//	    until SIGINT/SIGTERM; then drain, print stats and close the
//	    -journal chain on the final result.
//
//	lbd -selfdrive -rate 100000 -duration 10s -graph ring -n 1000000 \
//	    -model weighted -engine shard -placement proportional
//	    selfdrive: drive the in-process submit path open-loop at -rate,
//	    then report achieved rate, admission latency and final Ψ₀.
//	    With -via http the same generator runs over loopback HTTP with
//	    -clients concurrent connections (closed-loop per client).
//	    With -verify the -journal chain is read back, replayed on a fresh
//	    engine and compared bit-for-bit against the live result.
//
//	lbd -replay run.jsonl [-engine seq]
//	    replay: rebuild the instance from the journal header, re-run
//	    the recorded batches through core.Drive on the chosen engine,
//	    and verify the result matches the journal's footer bit for bit.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbd: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// flags bundles the parsed command line so tests can drive the mode
// entry points without going through a FlagSet.
type flags struct {
	spec instance.Spec

	// engine
	engine        string
	distWorkers   int
	shards        int
	shardStrategy string

	// serve loop
	idleRounds      int
	trace           int
	journalPath     string
	journalMaxBytes int64

	// daemon
	listen  string
	pprofOn bool

	// observability
	metricsOut string

	// selfdrive
	selfdrive     bool
	rate          float64
	duration      time.Duration
	burst         int
	completeEvery int
	via           string
	clients       int
	verify        bool
	csv           bool

	// replay
	replay string
}

func parseFlags(argv []string) (*flags, error) {
	fl := &flags{spec: instance.Default()}
	fl.spec.N, fl.spec.Placement = 1024, "proportional"
	fs := flag.NewFlagSet("lbd", flag.ContinueOnError)
	fl.spec.Bind(fs)

	fs.StringVar(&fl.engine, "engine", "seq", "execution engine: seq|shard|cluster")
	fs.IntVar(&fl.distWorkers, "dist-workers", 0, "pin the shard engine's worker-pool size (0 = all cores)")
	fs.IntVar(&fl.shards, "shards", 0, "shard engine: partition count P (0 = worker count)")
	fs.StringVar(&fl.shardStrategy, "shard-strategy", "contiguous", "shard engine: partition strategy contiguous|degree")

	fs.IntVar(&fl.idleRounds, "idlerounds", 0, "event-less rounds to keep stepping after traffic pauses")
	fs.IntVar(&fl.trace, "trace", 0, "sample a potential trace point every k rounds (0 = off; materializes state)")
	fs.StringVar(&fl.journalPath, "journal", "", "stream the admitted-batch journal (JSONL) to this path as rounds complete (empty = keep no journal)")
	fs.Int64Var(&fl.journalMaxBytes, "journal-max-bytes", 0, "rotate -journal into checkpoint-anchored segments path, path.1, ... at this size (0 = one unrotated file)")

	fs.StringVar(&fl.listen, "listen", "127.0.0.1:8080", "daemon mode: HTTP listen address")
	fs.BoolVar(&fl.pprofOn, "pprof", false, "mount net/http/pprof under /debug/pprof on the HTTP surface")
	fs.StringVar(&fl.metricsOut, "metrics-out", "", "selfdrive: write the final Prometheus exposition here (strictly validated)")

	fs.BoolVar(&fl.selfdrive, "selfdrive", false, "drive the daemon with the built-in open-loop generator and exit")
	fs.Float64Var(&fl.rate, "rate", 100_000, "selfdrive: target submission rate, ops/sec")
	fs.DurationVar(&fl.duration, "duration", 10*time.Second, "selfdrive: generator run time")
	fs.IntVar(&fl.burst, "burst", 0, "selfdrive: ops per pacing tick (0 = 64)")
	fs.IntVar(&fl.completeEvery, "complete-every", 4, "selfdrive: every k-th op is a completion (0 = arrivals only)")
	fs.StringVar(&fl.via, "via", "direct", "selfdrive submit path: direct|http (loopback)")
	fs.IntVar(&fl.clients, "clients", 32, "selfdrive -via http: concurrent client connections")
	fs.BoolVar(&fl.verify, "verify", false, "selfdrive: replay the -journal chain on a fresh engine and compare bit-for-bit")
	fs.BoolVar(&fl.csv, "csv", false, "selfdrive: also print the final stats as CSV (header + row)")

	fs.StringVar(&fl.replay, "replay", "", "replay mode: journal file to re-run and verify")
	if err := fs.Parse(argv); err != nil {
		return nil, err
	}
	if fl.journalMaxBytes != 0 && fl.journalPath == "" {
		return nil, fmt.Errorf("-journal-max-bytes bounds the segments of -journal: set -journal")
	}
	return fl, nil
}

func run(argv []string) error {
	fl, err := parseFlags(argv)
	if err != nil {
		return err
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	switch {
	case fl.replay != "":
		return runReplay(fl)
	case fl.selfdrive:
		return runSelfdrive(ctx, fl)
	default:
		return runDaemon(ctx, fl)
	}
}

func (fl *flags) engineOpts() harness.EngineOpts {
	return harness.EngineOpts{Workers: fl.distWorkers, Shards: fl.shards, Strategy: fl.shardStrategy}
}

// daemonServer is cmd/lbd's view of a serve.Server of either task
// model (the generic parameter never appears in the method set).
type daemonServer interface {
	Submit(op serve.Op) (serve.Ticket, error)
	Stats() serve.Stats
	Registry() *obs.Registry
	Do(f func())
	Stop() (core.RunResult, error)
}

// daemon is one constructed daemon: system, server, HTTP surface and
// probes. close releases the engine; call it only after srv.Stop.
type daemon struct {
	sys     *core.System
	srv     daemonServer
	handler http.Handler
	probe   serve.Prober
	sink    *serve.JournalSink
	close   func() error
}

// errNode is the out-of-range probe error.
type errNode int

func (e errNode) Error() string { return fmt.Sprintf("node %d out of range", int(e)) }

// probedState is the read surface of both sequential states.
type probedState interface {
	core.State
	Load(i int) float64
	Loads() []float64
}

// stateProber answers every probe from one read of state: the live
// state of the seq engine, or one gather from every worker of a
// cluster. Loads makes GET /load?k= a single read instead of one per
// node, which on a cluster would be n gathers.
func stateProber[S probedState](n int, state func() (S, error)) serve.Prober {
	return serve.Prober{
		NodeLoad: func(i int) (float64, error) {
			if i < 0 || i >= n {
				return 0, errNode(i)
			}
			st, err := state()
			if err != nil {
				return 0, err
			}
			return st.Load(i), nil
		},
		Loads: func() ([]float64, error) {
			st, err := state()
			if err != nil {
				return nil, err
			}
			return st.Loads(), nil
		},
		Psi0: statePsi0(state),
	}
}

// statePsi0 reads Ψ₀ from the engine's state. The state carries the
// engine's running total (the weighted shard State is a zero-copy view
// of it), so /stats reports the Ψ₀ that a trace point, or a sequential
// replay, records at the same round.
func statePsi0[S core.State](state func() (S, error)) func() float64 {
	return func() float64 {
		st, err := state()
		if err != nil {
			return 0
		}
		return st.Psi0()
	}
}

// clusterStatser is the telemetry surface both cluster engines promote
// from their embedded core.
type clusterStatser interface {
	Stats() shard.ClusterStats
}

// registerEngineMetrics publishes engine-level series on the daemon's
// registry next to the serve set, discovered from the concrete engine
// the same way the probes are. Every gauge reads through the engine's
// own mutex, so a scrape during a round waits for the phase barrier —
// never the other way around.
func registerEngineMetrics(reg *obs.Registry, raw any) {
	type footprinter interface{ Footprint() int64 }
	type crossflower interface{ CrossFlows() int64 }
	if e, ok := raw.(crossflower); ok {
		reg.NewGaugeFunc("lbd_engine_cross_flows",
			"Cumulative cross-shard flow records produced by decide phases.",
			func() float64 { return float64(e.CrossFlows()) })
	}
	if e, ok := raw.(footprinter); ok {
		reg.NewGaugeFunc("lbd_engine_footprint_bytes",
			"Resident engine state in bytes.",
			func() float64 { return float64(e.Footprint()) })
	}
	if e, ok := raw.(*shard.WeightedEngine); ok {
		reg.NewGaugeFunc("lbd_engine_arena_bytes",
			"Privatization arena bytes by block class.",
			func() float64 { return float64(e.Arena().CurBytes) }, obs.Label{Key: "area", Value: "cur"})
		reg.NewGaugeFunc("lbd_engine_arena_bytes",
			"Privatization arena bytes by block class.",
			func() float64 { return float64(e.Arena().RetiredBytes) }, obs.Label{Key: "area", Value: "retired"})
		reg.NewGaugeFunc("lbd_engine_arena_dead_floats",
			"Float64 slots stranded in retired arena blocks.",
			func() float64 { return float64(e.Arena().DeadFloats) })
	}
	if c, ok := raw.(clusterStatser); ok {
		reg.NewGaugeFunc("lbd_cluster_barrier_wait_seconds",
			"Summed worker time blocked on coordinator barriers.",
			func() float64 { return float64(c.Stats().BarrierWaitNs) / 1e9 })
		reg.NewGaugeFunc("lbd_cluster_flows",
			"Cross-shard flow records shipped over the wire.",
			func() float64 { return float64(c.Stats().FlowsOut) })
		reg.NewGaugeFunc("lbd_cluster_transport_bytes",
			"Coordinator-side transport volume by direction.",
			func() float64 { return float64(c.Stats().Transport.BytesSent) }, obs.Label{Key: "dir", Value: "tx"})
		reg.NewGaugeFunc("lbd_cluster_transport_bytes",
			"Coordinator-side transport volume by direction.",
			func() float64 { return float64(c.Stats().Transport.BytesRecv) }, obs.Label{Key: "dir", Value: "rx"})
		reg.NewGaugeFunc("lbd_cluster_transport_frames",
			"Coordinator-side transport frames by direction.",
			func() float64 { return float64(c.Stats().Transport.FramesSent) }, obs.Label{Key: "dir", Value: "tx"})
		reg.NewGaugeFunc("lbd_cluster_transport_frames",
			"Coordinator-side transport frames by direction.",
			func() float64 { return float64(c.Stats().Transport.FramesRecv) }, obs.Label{Key: "dir", Value: "rx"})
		reg.NewGaugeFunc("lbd_cluster_checkpoints",
			"Checkpoints written by the coordinator.",
			func() float64 { return float64(c.Stats().Checkpoints) })
		reg.NewGaugeFunc("lbd_cluster_checkpoint_seconds",
			"Total wall-clock time spent writing checkpoints.",
			func() float64 { return float64(c.Stats().CheckpointNs) / 1e9 })
	}
}

// withPprof mounts net/http/pprof's handlers beside h when enabled
// (opt-in: profiling endpoints expose internals and cost CPU).
func withPprof(h http.Handler, on bool) http.Handler {
	if !on {
		return h
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	return mux
}

// dumpMetrics scrapes the registry into path, first re-parsing the
// exposition with the strict parser and requiring the core serve
// series — the CI smoke fails on malformed output or missing series.
func dumpMetrics(reg *obs.Registry, path string) error {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return err
	}
	fams, err := obs.ParseExposition(buf.String())
	if err != nil {
		return fmt.Errorf("-metrics-out: exposition invalid: %w", err)
	}
	if err := obs.RequireSeries(fams,
		"lbd_submissions_total", "lbd_batches_total", "lbd_rounds_total",
		"lbd_flushes_total", "lbd_batch_size", "lbd_admit_wait_microseconds",
		"lbd_step_seconds_total", "lbd_apply_seconds_total",
	); err != nil {
		return fmt.Errorf("-metrics-out: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("metrics:  %s (%d families)\n", path, len(fams))
	return nil
}

// serveConfig's journal metadata is the instance Spec, which replay
// rebuilds, plus the engine name as provenance.
func (fl *flags) serveConfig() serve.Config {
	meta := fl.spec.Meta()
	meta["engine"] = fl.engine
	return serve.Config{
		Weighted:   fl.spec.Model == "weighted",
		IdleRounds: fl.idleRounds,
		Seed:       fl.spec.Seed,
		TraceEvery: fl.trace,
		Meta:       meta,
	}
}

// buildDaemon constructs the system, engine, serve loop and probes
// from the instance flags.
func buildDaemon(fl *flags) (*daemon, error) {
	inst, err := fl.spec.Build()
	if err != nil {
		return nil, err
	}
	sys := inst.Sys
	n := sys.N()
	cfg := fl.serveConfig()
	cfg.N = n
	var sink *serve.JournalSink
	if fl.journalPath != "" {
		sink, err = serve.NewJournalSink(fl.journalPath, fl.journalMaxBytes, cfg)
		if err != nil {
			return nil, err
		}
		cfg.Sink = sink
	}
	eo := fl.engineOpts()

	if fl.spec.Model == "weighted" {
		h, err := harness.BuildWeightedEngine(fl.engine, sys, inst.Protocol, inst.Weights, eo)
		if err != nil {
			return nil, err
		}
		srv, err := serve.New[*core.WeightedState](h.Engine, cfg)
		if err != nil {
			h.Close()
			return nil, err
		}
		var p serve.Prober
		switch raw := h.Raw.(type) {
		case *core.WeightedState:
			p = stateProber(n, func() (*core.WeightedState, error) { return raw, nil })
		case *shard.WeightedEngine:
			p = serve.Prober{NodeLoad: raw.NodeLoad, Psi0: statePsi0(raw.State)}
		case *shard.WeightedCluster:
			p = stateProber(n, raw.State)
		}
		registerEngineMetrics(srv.Registry(), h.Raw)
		return &daemon{sys: sys, srv: srv, handler: withPprof(serve.NewHandler(srv, p), fl.pprofOn), probe: p, sink: sink, close: h.Close}, nil
	}
	h, err := harness.BuildUniformEngine(fl.engine, sys, core.Algorithm1{}, inst.Counts, eo)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New[*core.UniformState](h.Engine, cfg)
	if err != nil {
		h.Close()
		return nil, err
	}
	var p serve.Prober
	switch raw := h.Raw.(type) {
	case *core.UniformState:
		p = stateProber(n, func() (*core.UniformState, error) { return raw, nil })
	case *shard.Engine:
		p = serve.Prober{NodeLoad: raw.NodeLoad, Psi0: statePsi0(raw.State)}
	case *shard.UniformCluster:
		p = stateProber(n, raw.State)
	}
	registerEngineMetrics(srv.Registry(), h.Raw)
	return &daemon{sys: sys, srv: srv, handler: withPprof(serve.NewHandler(srv, p), fl.pprofOn), probe: p, sink: sink, close: h.Close}, nil
}

func (fl *flags) banner(sys *core.System) string {
	eo := fl.engineOpts().Resolved(fl.engine, sys.N())
	s := fmt.Sprintf("daemon:   n=%d graph=%s model=%s engine=%s workers=%d",
		sys.N(), fl.spec.Graph, fl.spec.Model, fl.engine, eo.Workers)
	if fl.engine == harness.EngineShard || fl.engine == harness.EngineCluster {
		s += fmt.Sprintf(" shards=%d (%s)", eo.Shards, eo.Strategy)
	}
	return s
}

// finalPsi0 reads the live Ψ₀ through the server's quiescent-engine
// path (after Stop the loop has exited, so the probe runs inline).
func (inst *daemon) finalPsi0() float64 {
	if inst.probe.Psi0 == nil {
		return 0
	}
	var psi float64
	inst.srv.Do(func() { psi = inst.probe.Psi0() })
	return psi
}

// shutdown stops the serve loop, prints the final report and closes the
// journal on the final result.
func (inst *daemon) shutdown(fl *flags) error {
	res, err := inst.srv.Stop()
	stats := inst.srv.Stats()
	stats.Psi0 = inst.finalPsi0()
	fmt.Printf("stats:    %s\n", stats)
	fmt.Printf("result:   rounds=%d moves=%d converged=%v\n", res.Rounds, res.Moves, res.Converged)
	if fl.csv {
		fmt.Println(stats.CSVHeader())
		fmt.Println(stats.CSVRow())
	}
	if err != nil {
		return fmt.Errorf("serve loop: %w", err)
	}
	if inst.sink != nil {
		if cerr := inst.sink.Close(&res); cerr != nil {
			return cerr
		}
		fmt.Printf("journal:  %s (%d entries, %d rounds, %d segments)\n",
			inst.sink.Path(), inst.sink.Entries(), res.Rounds, inst.sink.Segments())
	}
	return nil
}

// ---- daemon mode ----

// lbd's HTTP deadlines. There is no WriteTimeout: POST /tasks holds
// its reply until the admission round, and a write deadline would cut
// off that honest wait. ReadTimeout is measured from the start of the
// request and net/http cancels the request context once it passes, so
// it also caps the admission wait; it sits far above any round time.
const (
	httpReadHeaderTimeout = 10 * time.Second
	httpReadTimeout       = time.Minute
	httpIdleTimeout       = 2 * time.Minute
)

// newHTTPServer builds every lbd HTTP server with read deadlines, so a
// client that stalls mid-request cannot hold a connection and its
// goroutine forever: readHeader bounds the request line and headers,
// httpReadTimeout the whole request, httpIdleTimeout a kept-alive
// connection waiting for its next request.
func newHTTPServer(h http.Handler, readHeader time.Duration) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeader,
		ReadTimeout:       httpReadTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
}

func runDaemon(ctx context.Context, fl *flags) error {
	inst, err := buildDaemon(fl)
	if err != nil {
		return err
	}
	defer inst.close()
	fmt.Println(fl.banner(inst.sys))

	ln, err := net.Listen("tcp", fl.listen)
	if err != nil {
		inst.srv.Stop()
		return err
	}
	hs := newHTTPServer(inst.handler, httpReadHeaderTimeout)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Printf("listen:   http://%s\n", ln.Addr())

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		inst.srv.Stop()
		return err
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
	}
	return inst.shutdown(fl)
}

// ---- selfdrive mode ----

func runSelfdrive(ctx context.Context, fl *flags) error {
	if fl.verify && fl.journalPath == "" {
		return fmt.Errorf("-verify replays the journal: set -journal")
	}
	inst, err := buildDaemon(fl)
	if err != nil {
		return err
	}
	defer inst.close()
	fmt.Println(fl.banner(inst.sys))
	fmt.Printf("drive:    via=%s rate=%.0f/s duration=%v complete-every=%d\n",
		fl.via, fl.rate, fl.duration, fl.completeEvery)

	opts := serve.LoadOpts{
		Rate:          fl.rate,
		Duration:      fl.duration,
		Burst:         fl.burst,
		N:             inst.sys.N(),
		Weighted:      fl.spec.Model == "weighted",
		CompleteEvery: fl.completeEvery,
		Seed:          fl.spec.Seed + 101,
	}

	var rep serve.LoadReport
	switch fl.via {
	case "direct":
		rep, err = serve.RunLoad(ctx, inst.srv.Submit, opts)
	case "http":
		rep, err = runHTTPLoad(ctx, inst, fl, opts)
	default:
		err = fmt.Errorf("unknown -via %q (want direct|http)", fl.via)
	}
	if err != nil {
		inst.srv.Stop()
		return err
	}
	fmt.Printf("load:     %s\n", rep)
	if err := inst.shutdown(fl); err != nil {
		return err
	}
	if fl.metricsOut != "" {
		if err := dumpMetrics(inst.srv.Registry(), fl.metricsOut); err != nil {
			return err
		}
	}
	if fl.verify {
		// The chain on disk is the ledger of record; verifying it also
		// walks its segments.
		j, err := serve.ReadJournalSegments(fl.journalPath)
		if err != nil {
			return err
		}
		return verifyJournal(j, fl.engine, fl.engineOpts())
	}
	return nil
}

// runHTTPLoad drives the instance over loopback HTTP with fl.clients
// concurrent connections, each closed-loop (submit, wait for the
// admission round in the 200 response, repeat). Reported separately
// from the direct path: every submission pays an HTTP round trip that
// includes the admission wait, so throughput measures the full network
// surface, not the batcher.
func runHTTPLoad(ctx context.Context, inst *daemon, fl *flags, opts serve.LoadOpts) (serve.LoadReport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return serve.LoadReport{}, err
	}
	hs := newHTTPServer(inst.handler, httpReadHeaderTimeout)
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	clients := fl.clients
	if clients <= 0 {
		clients = 32
	}
	tr := &http.Transport{MaxIdleConns: 2 * clients, MaxIdleConnsPerHost: 2 * clients}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}

	type workerRep struct {
		submitted, failed     int64
		firstRound, lastRound uint64
		lats                  []time.Duration
	}
	reps := make([]workerRep, clients)
	deadline := time.Now().Add(fl.duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &reps[w]
			st := rng.New(opts.Seed + uint64(w)*7919)
			var idx int64
			for time.Now().Before(deadline) && ctx.Err() == nil {
				node := st.Intn(opts.N)
				path := "/tasks"
				body := map[string]any{"node": node}
				if opts.CompleteEvery >= 2 && idx%int64(opts.CompleteEvery) == int64(opts.CompleteEvery)-1 {
					path = "/complete"
				} else if opts.Weighted {
					body["weight"] = 0.1 + 0.9*st.Float64()
				}
				idx++
				b, _ := json.Marshal(body)
				t0 := time.Now()
				resp, err := hc.Post(base+path, "application/json", bytes.NewReader(b))
				if err != nil {
					r.failed++
					continue
				}
				var admit struct {
					Round uint64 `json:"round"`
				}
				derr := json.NewDecoder(resp.Body).Decode(&admit)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || derr != nil {
					r.failed++
					if resp.StatusCode == http.StatusServiceUnavailable {
						return
					}
					continue
				}
				r.submitted++
				r.lats = append(r.lats, time.Since(t0))
				if r.firstRound == 0 {
					r.firstRound = admit.Round
				}
				r.lastRound = admit.Round
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var rep serve.LoadReport
	var lats []time.Duration
	for i := range reps {
		r := &reps[i]
		rep.Submitted += r.submitted
		rep.Failed += r.failed
		if r.firstRound > 0 && (rep.FirstRound == 0 || r.firstRound < rep.FirstRound) {
			rep.FirstRound = r.firstRound
		}
		if r.lastRound > rep.LastRound {
			rep.LastRound = r.lastRound
		}
		lats = append(lats, r.lats...)
	}
	rep.Waited = rep.Submitted
	rep.Elapsed = elapsed
	if elapsed > 0 {
		rep.AchievedRate = float64(rep.Submitted) / elapsed.Seconds()
	}
	if len(lats) > 0 {
		slices.Sort(lats)
		rep.AdmitP50Us = float64(lats[len(lats)/2].Microseconds())
		rep.AdmitP99Us = float64(lats[len(lats)*99/100].Microseconds())
		rep.AdmitMaxUs = float64(lats[len(lats)-1].Microseconds())
	}
	return rep, nil
}

// ---- replay mode ----

func runReplay(fl *flags) error {
	j, err := serve.ReadJournalSegments(fl.replay)
	if err != nil {
		return err
	}
	fmt.Printf("journal:  %s  n=%d weighted=%v seed=%d rounds=%d entries=%d\n",
		fl.replay, j.N, j.Weighted, j.Seed, j.Rounds, len(j.Entries))
	return verifyJournal(j, fl.engine, fl.engineOpts())
}

// replayJournal rebuilds the journaled instance from its meta and
// replays the recorded batches on the named engine. It returns the
// replayed result and the Ψ₀ of the final state.
func replayJournal(j *serve.Journal, engine string, eo harness.EngineOpts) (core.RunResult, float64, error) {
	var res core.RunResult
	spec, err := instance.FromMeta(j.Meta)
	if err != nil {
		return res, 0, err
	}
	if j.Weighted != (spec.Model == "weighted") {
		return res, 0, fmt.Errorf("journal has weighted=%v but meta model %q", j.Weighted, spec.Model)
	}
	inst, err := spec.Build()
	if err != nil {
		return res, 0, err
	}
	if inst.Sys.N() != j.N {
		return res, 0, fmt.Errorf("rebuilt system has n=%d, journal recorded n=%d", inst.Sys.N(), j.N)
	}
	if j.Weighted {
		h, err := harness.BuildWeightedEngine(engine, inst.Sys, inst.Protocol, inst.Weights, eo)
		if err != nil {
			return res, 0, err
		}
		defer h.Close()
		if res, err = serve.Replay[*core.WeightedState](j, h.Engine); err != nil {
			return res, 0, err
		}
		return res, statePsi0(h.Engine.State)(), nil
	}
	h, err := harness.BuildUniformEngine(engine, inst.Sys, core.Algorithm1{}, inst.Counts, eo)
	if err != nil {
		return res, 0, err
	}
	defer h.Close()
	if res, err = serve.Replay[*core.UniformState](j, h.Engine); err != nil {
		return res, 0, err
	}
	return res, statePsi0(h.Engine.State)(), nil
}

// verifyJournal rebuilds the journaled instance from its meta and
// replays the recorded batches on the named engine; serve.Replay
// compares the result bit-for-bit against the journal's live-run
// footer, which both journal readers require.
func verifyJournal(j *serve.Journal, engine string, eo harness.EngineOpts) error {
	res, psi0, err := replayJournal(j, engine, eo)
	if err != nil {
		return err
	}
	fmt.Printf("replay:   bit-exact on engine=%s  rounds=%d moves=%d trace=%d points psi0=%g\n",
		engine, res.Rounds, res.Moves, len(res.Trace), psi0)
	return nil
}
