// Command lbd is the load-balancing daemon: a live engine behind a
// batched-ingestion serve loop (internal/serve), fed either by HTTP
// clients or by a built-in open-loop generator. Individual task
// submissions are amortized into one pre-round event batch per
// protocol round, so a million-node engine stepping a few rounds per
// second still admits >100k submissions per second. Every admitted
// batch is journaled; a journal replays offline to a bit-identical
// RunResult.
//
// Modes:
//
//	lbd -listen 127.0.0.1:8080 -graph ring -n 100000 -engine shard
//	    daemon: serve POST /tasks, POST /complete, GET /load, GET /stats
//	    until SIGINT/SIGTERM; then drain, print stats, write -journal.
//
//	lbd -selfdrive -rate 100000 -duration 10s -graph ring -n 1000000 \
//	    -model weighted -engine shard -placement proportional
//	    selfdrive: drive the in-process submit path open-loop at -rate,
//	    then report achieved rate, admission latency and final Ψ₀.
//	    With -via http the same generator runs over loopback HTTP with
//	    -clients concurrent connections (closed-loop per client).
//	    With -verify the journal is immediately replayed on a fresh
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
	"reflect"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/spectral"
	"repro/internal/task"
	"repro/internal/workload"
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
	// instance
	graph     string
	n         int
	tasks     int64
	seed      uint64
	speeds    string
	smax      float64
	model     string
	protocol  string
	placement string

	// engine
	engine        string
	distWorkers   int
	shards        int
	shardStrategy string

	// serve loop
	batch           int
	maxWait         time.Duration
	idleRounds      int
	trace           int
	journalPath     string
	journalMaxBytes int64
	noJournal       bool

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
	fl := &flags{}
	fs := flag.NewFlagSet("lbd", flag.ContinueOnError)
	fs.StringVar(&fl.graph, "graph", "ring", "graph class: complete|ring|path|torus|mesh|hypercube|star|regular")
	fs.IntVar(&fl.n, "n", 1024, "approximate number of processors")
	fs.Int64Var(&fl.tasks, "tasks", 0, "initial number of tasks (default 64·n)")
	fs.Uint64Var(&fl.seed, "seed", 1, "random seed (trajectory and initial placement)")
	fs.StringVar(&fl.speeds, "speeds", "uniform", "speed profile: uniform|twoclass|integers")
	fs.Float64Var(&fl.smax, "smax", 4, "maximum speed for non-uniform profiles")
	fs.StringVar(&fl.model, "model", "uniform", "task model: uniform|weighted")
	fs.StringVar(&fl.protocol, "protocol", "paper", "weighted protocol: paper|literal|baseline")
	fs.StringVar(&fl.placement, "placement", "proportional", "initial placement: corner|random|proportional")

	fs.StringVar(&fl.engine, "engine", "seq", "execution engine: seq|shard|cluster")
	fs.IntVar(&fl.distWorkers, "dist-workers", 0, "pin the shard engine's worker-pool size (0 = all cores)")
	fs.IntVar(&fl.shards, "shards", 0, "shard engine: partition count P (0 = worker count)")
	fs.StringVar(&fl.shardStrategy, "shard-strategy", "contiguous", "shard engine: partition strategy contiguous|degree")

	fs.IntVar(&fl.batch, "batch", 0, "flush the pending batch at this many submissions (0 = 4096)")
	fs.DurationVar(&fl.maxWait, "maxwait", 0, "flush a non-empty batch this long after its first submission (0 = 2ms)")
	fs.IntVar(&fl.idleRounds, "idlerounds", 0, "event-less rounds to keep stepping after traffic pauses")
	fs.IntVar(&fl.trace, "trace", 0, "sample a potential trace point every k rounds (0 = off; materializes state)")
	fs.StringVar(&fl.journalPath, "journal", "", "write the admitted-batch journal (JSONL) here on shutdown")
	fs.Int64Var(&fl.journalMaxBytes, "journal-max-bytes", 0, "stream the journal during the run, rotating -journal into checkpoint-anchored segments at this size (0 = buffer in memory, write once on shutdown)")
	fs.BoolVar(&fl.noJournal, "nojournal", false, "disable journaling (unbounded daemons; replay impossible)")

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
	fs.BoolVar(&fl.verify, "verify", false, "selfdrive: replay the journal on a fresh engine and compare bit-for-bit")
	fs.BoolVar(&fl.csv, "csv", false, "selfdrive: also print the final stats as CSV (header + row)")

	fs.StringVar(&fl.replay, "replay", "", "replay mode: journal file to re-run and verify")
	if err := fs.Parse(argv); err != nil {
		return nil, err
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

// meta returns the journal metadata: exactly the instance parameters
// flagsFromMeta needs to rebuild the initial state for replay, plus the
// engine name as provenance.
func (fl *flags) meta() map[string]string {
	return map[string]string{
		"graph":     fl.graph,
		"n":         strconv.Itoa(fl.n),
		"tasks":     strconv.FormatInt(fl.tasks, 10),
		"seed":      strconv.FormatUint(fl.seed, 10),
		"speeds":    fl.speeds,
		"smax":      strconv.FormatFloat(fl.smax, 'g', -1, 64),
		"model":     fl.model,
		"protocol":  fl.protocol,
		"placement": fl.placement,
		"engine":    fl.engine,
	}
}

// flagsFromMeta inverts meta: the instance parameters a journal header
// carries, so replay rebuilds the same system and initial placement.
func flagsFromMeta(meta map[string]string) (*flags, error) {
	get := func(k string) (string, error) {
		v, ok := meta[k]
		if !ok {
			return "", fmt.Errorf("journal meta missing %q; not written by lbd?", k)
		}
		return v, nil
	}
	fl := &flags{}
	var err error
	read := []struct {
		key string
		set func(string) error
	}{
		{"graph", func(v string) error { fl.graph = v; return nil }},
		{"n", func(v string) error { fl.n, err = strconv.Atoi(v); return err }},
		{"tasks", func(v string) error { fl.tasks, err = strconv.ParseInt(v, 10, 64); return err }},
		{"seed", func(v string) error { fl.seed, err = strconv.ParseUint(v, 10, 64); return err }},
		{"speeds", func(v string) error { fl.speeds = v; return nil }},
		{"smax", func(v string) error { fl.smax, err = strconv.ParseFloat(v, 64); return err }},
		{"model", func(v string) error { fl.model = v; return nil }},
		{"protocol", func(v string) error { fl.protocol = v; return nil }},
		{"placement", func(v string) error { fl.placement = v; return nil }},
	}
	for _, r := range read {
		v, gerr := get(r.key)
		if gerr != nil {
			return nil, gerr
		}
		if serr := r.set(v); serr != nil {
			return nil, fmt.Errorf("journal meta %s=%q: %w", r.key, v, serr)
		}
	}
	return fl, nil
}

// ---- instance construction (mirrors cmd/lbsim's builders) ----

func buildGraph(name string, n int, seed uint64) (*graph.Graph, float64, error) {
	switch name {
	case "complete", "ring", "torus", "hypercube":
		class, err := experiments.ClassByKey(name)
		if err != nil {
			return nil, 0, err
		}
		g, err := class.Build(n)
		if err != nil {
			return nil, 0, err
		}
		return g, class.Lambda2(g), nil
	case "path":
		g, err := graph.Path(n)
		if err != nil {
			return nil, 0, err
		}
		return g, spectral.Lambda2Path(n), nil
	case "mesh":
		side := 1
		for side*side < n {
			side++
		}
		g, err := graph.Mesh(side, side)
		if err != nil {
			return nil, 0, err
		}
		return g, spectral.Lambda2Mesh(side, side), nil
	case "star":
		g, err := graph.Star(n)
		if err != nil {
			return nil, 0, err
		}
		return g, spectral.Lambda2Star(n), nil
	case "regular":
		g, err := graph.RandomRegular(n, 4, rng.New(seed))
		if err != nil {
			return nil, 0, err
		}
		l2, err := spectral.Lambda2(g)
		if err != nil {
			return nil, 0, err
		}
		return g, l2, nil
	default:
		return nil, 0, fmt.Errorf("unknown graph class %q", name)
	}
}

func buildSpeeds(profile string, n int, smax float64, seed uint64) (machine.Speeds, error) {
	switch profile {
	case "uniform":
		return machine.Uniform(n), nil
	case "twoclass":
		return machine.TwoClass(n, 0.25, smax)
	case "integers":
		return machine.RandomIntegers(n, int(smax), rng.New(seed+1))
	default:
		return nil, fmt.Errorf("unknown speed profile %q", profile)
	}
}

func buildSystem(fl *flags) (*core.System, error) {
	g, lambda2, err := buildGraph(fl.graph, fl.n, fl.seed)
	if err != nil {
		return nil, err
	}
	speeds, err := buildSpeeds(fl.speeds, g.N(), fl.smax, fl.seed)
	if err != nil {
		return nil, err
	}
	return core.NewSystem(g, speeds, core.WithLambda2(lambda2))
}

func initialCounts(sys *core.System, m int64, placement string, seed uint64) ([]int64, error) {
	n := sys.N()
	switch placement {
	case "corner":
		return workload.AllOnOne(n, m, 0)
	case "random":
		return workload.UniformRandom(n, m, rng.New(seed+2))
	case "proportional":
		return workload.Proportional(sys.Speeds(), m)
	default:
		return nil, fmt.Errorf("unknown placement %q", placement)
	}
}

func initialWeighted(sys *core.System, m int64, placement string, seed uint64) ([]task.Weights, error) {
	weights, err := task.RandomWeights(int(m), 0.1, 1.0, rng.New(seed+3))
	if err != nil {
		return nil, err
	}
	n := sys.N()
	switch placement {
	case "corner":
		return workload.WeightedAllOnOne(n, weights, 0)
	case "random":
		return workload.WeightedUniformRandom(n, weights, rng.New(seed+2))
	case "proportional":
		return workload.WeightedProportional(sys.Speeds(), weights)
	default:
		return nil, fmt.Errorf("unknown placement %q", placement)
	}
}

func weightedProtocol(name string) (core.WeightedProtocol, error) {
	switch name {
	case "paper":
		return core.Algorithm2{}, nil
	case "literal":
		return core.Algorithm2Literal{}, nil
	case "baseline":
		return core.BaselineWeighted{}, nil
	default:
		return nil, fmt.Errorf("unknown weighted protocol %q", name)
	}
}

// psi0FromCounts computes Ψ₀ from a counts snapshot without building a
// UniformState (the shard engine at n=10⁶ has no materialized state).
func psi0FromCounts(sys *core.System, counts []int64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	speeds := sys.Speeds()
	avg := float64(total) / sys.STotal()
	s := 0.0
	for i, c := range counts {
		e := float64(c) - avg*speeds[i]
		s += e * e / speeds[i]
	}
	return s
}

// psi0FromWeights is the weighted counterpart, from a node-weight
// snapshot.
func psi0FromWeights(sys *core.System, w []float64) float64 {
	var totalW float64
	for _, wi := range w {
		totalW += wi
	}
	speeds := sys.Speeds()
	avg := totalW / sys.STotal()
	s := 0.0
	for i, wi := range w {
		e := wi - avg*speeds[i]
		s += e * e / speeds[i]
	}
	return s
}

// daemonServer is cmd/lbd's view of a serve.Server of either task
// model (the generic parameter never appears in the method set).
type daemonServer interface {
	Submit(op serve.Op) (serve.Ticket, error)
	Stats() serve.Stats
	Registry() *obs.Registry
	Do(f func())
	Stop() (core.RunResult, error)
	Journal() *serve.Journal
}

// instance is one constructed daemon: system, server, HTTP surface and
// probes. close releases the engine; call it only after srv.Stop.
type instance struct {
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
		Psi0: func() float64 {
			st, err := state()
			if err != nil {
				return 0
			}
			return st.Psi0()
		},
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

func (fl *flags) serveConfig() serve.Config {
	return serve.Config{
		Weighted:       fl.model == "weighted",
		BatchSize:      fl.batch,
		MaxWait:        fl.maxWait,
		IdleRounds:     fl.idleRounds,
		Seed:           fl.seed,
		TraceEvery:     fl.trace,
		DisableJournal: fl.noJournal,
		Meta:           fl.meta(),
	}
}

// buildInstance constructs the system, engine, serve loop and probes
// from the instance flags.
func buildInstance(fl *flags) (*instance, error) {
	sys, err := buildSystem(fl)
	if err != nil {
		return nil, err
	}
	n := sys.N()
	m := fl.tasks
	if m <= 0 {
		m = 64 * int64(n)
	}
	cfg := fl.serveConfig()
	cfg.N = n
	var sink *serve.JournalSink
	if fl.journalPath != "" && fl.journalMaxBytes > 0 {
		if fl.noJournal {
			return nil, fmt.Errorf("-journal-max-bytes conflicts with -nojournal")
		}
		sink, err = serve.NewJournalSink(fl.journalPath, fl.journalMaxBytes, cfg)
		if err != nil {
			return nil, err
		}
		cfg.Sink = sink
	}
	eo := fl.engineOpts()

	switch fl.model {
	case "weighted":
		proto, err := weightedProtocol(fl.protocol)
		if err != nil {
			return nil, err
		}
		perNode, err := initialWeighted(sys, m, fl.placement, fl.seed)
		if err != nil {
			return nil, err
		}
		h, err := harness.BuildWeightedEngine(fl.engine, sys, proto, perNode, eo)
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
			p = serve.Prober{
				NodeLoad: raw.NodeLoad,
				Psi0:     func() float64 { return psi0FromWeights(sys, raw.NodeWeights()) },
			}
		case *shard.WeightedCluster:
			p = stateProber(n, raw.State)
		}
		registerEngineMetrics(srv.Registry(), h.Raw)
		return &instance{sys: sys, srv: srv, handler: withPprof(serve.NewHandler(srv, p), fl.pprofOn), probe: p, sink: sink, close: h.Close}, nil

	case "uniform":
		counts, err := initialCounts(sys, m, fl.placement, fl.seed)
		if err != nil {
			return nil, err
		}
		h, err := harness.BuildUniformEngine(fl.engine, sys, core.Algorithm1{}, counts, eo)
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
			p = serve.Prober{
				NodeLoad: raw.NodeLoad,
				Psi0:     func() float64 { return psi0FromCounts(sys, raw.Counts()) },
			}
		case *shard.UniformCluster:
			p = stateProber(n, raw.State)
		}
		registerEngineMetrics(srv.Registry(), h.Raw)
		return &instance{sys: sys, srv: srv, handler: withPprof(serve.NewHandler(srv, p), fl.pprofOn), probe: p, sink: sink, close: h.Close}, nil

	default:
		return nil, fmt.Errorf("unknown task model %q (want uniform|weighted)", fl.model)
	}
}

func (fl *flags) banner(sys *core.System) string {
	eo := fl.engineOpts().Resolved(fl.engine, sys.N())
	s := fmt.Sprintf("daemon:   n=%d graph=%s model=%s engine=%s workers=%d",
		sys.N(), fl.graph, fl.model, fl.engine, eo.Workers)
	if fl.engine == harness.EngineShard || fl.engine == harness.EngineCluster {
		s += fmt.Sprintf(" shards=%d (%s)", eo.Shards, eo.Strategy)
	}
	batch, maxWait := fl.batch, fl.maxWait
	if batch <= 0 {
		batch = 4096
	}
	if maxWait <= 0 {
		maxWait = 2 * time.Millisecond
	}
	s += fmt.Sprintf(" batch=%d maxwait=%v", batch, maxWait)
	return s
}

// finalPsi0 reads the live Ψ₀ through the server's quiescent-engine
// path (after Stop the loop has exited, so the probe runs inline).
func (inst *instance) finalPsi0() float64 {
	if inst.probe.Psi0 == nil {
		return 0
	}
	var psi float64
	inst.srv.Do(func() { psi = inst.probe.Psi0() })
	return psi
}

// shutdown stops the serve loop, prints the final report and writes the
// journal.
func (inst *instance) shutdown(fl *flags) error {
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
	} else if fl.journalPath != "" {
		j := inst.srv.Journal()
		if j == nil {
			return fmt.Errorf("-journal %s: journaling is disabled", fl.journalPath)
		}
		f, ferr := os.Create(fl.journalPath)
		if ferr != nil {
			return ferr
		}
		if werr := j.Write(f); werr != nil {
			f.Close()
			return werr
		}
		if cerr := f.Close(); cerr != nil {
			return cerr
		}
		fmt.Printf("journal:  %s (%d entries, %d rounds)\n", fl.journalPath, len(j.Entries), j.Rounds)
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
	inst, err := buildInstance(fl)
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
	inst, err := buildInstance(fl)
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
		Weighted:      fl.model == "weighted",
		CompleteEvery: fl.completeEvery,
		Seed:          fl.seed + 101,
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
		j := inst.srv.Journal()
		if j == nil && inst.sink != nil {
			// Streaming mode: the chain on disk is the ledger of record;
			// verifying it also exercises the segment walk.
			j, err = serve.ReadJournalSegments(inst.sink.Path())
			if err != nil {
				return err
			}
		}
		if j == nil {
			return fmt.Errorf("-verify needs journaling enabled")
		}
		if err := verifyJournal(j, fl.engine, fl.engineOpts()); err != nil {
			return err
		}
	}
	return nil
}

// runHTTPLoad drives the instance over loopback HTTP with fl.clients
// concurrent connections, each closed-loop (submit, wait for the
// admission round in the 200 response, repeat). Reported separately
// from the direct path: every submission pays an HTTP round trip that
// includes the admission wait, so throughput measures the full network
// surface, not the batcher.
func runHTTPLoad(ctx context.Context, inst *instance, fl *flags, opts serve.LoadOpts) (serve.LoadReport, error) {
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

// verifyJournal rebuilds the journaled instance from its meta, replays
// the recorded batches on the named engine, and compares the result
// bit-for-bit against the journal's live-run footer.
func verifyJournal(j *serve.Journal, engine string, eo harness.EngineOpts) error {
	mf, err := flagsFromMeta(j.Meta)
	if err != nil {
		return err
	}
	sys, err := buildSystem(mf)
	if err != nil {
		return err
	}
	if sys.N() != j.N {
		return fmt.Errorf("rebuilt system has n=%d, journal recorded n=%d", sys.N(), j.N)
	}
	m := mf.tasks
	if m <= 0 {
		m = 64 * int64(sys.N())
	}
	var res core.RunResult
	if j.Weighted {
		if mf.model != "weighted" {
			return fmt.Errorf("journal is weighted but meta model is %q", mf.model)
		}
		proto, err := weightedProtocol(mf.protocol)
		if err != nil {
			return err
		}
		perNode, err := initialWeighted(sys, m, mf.placement, mf.seed)
		if err != nil {
			return err
		}
		h, err := harness.BuildWeightedEngine(engine, sys, proto, perNode, eo)
		if err != nil {
			return err
		}
		res, err = serve.Replay[*core.WeightedState](j, h.Engine)
		h.Close()
		if err != nil {
			return err
		}
	} else {
		counts, err := initialCounts(sys, m, mf.placement, mf.seed)
		if err != nil {
			return err
		}
		h, err := harness.BuildUniformEngine(engine, sys, core.Algorithm1{}, counts, eo)
		if err != nil {
			return err
		}
		res, err = serve.Replay[*core.UniformState](j, h.Engine)
		h.Close()
		if err != nil {
			return err
		}
	}
	if j.Result == nil {
		fmt.Printf("replay:   rounds=%d moves=%d (journal has no result footer to compare)\n",
			res.Rounds, res.Moves)
		return nil
	}
	if !reflect.DeepEqual(res, *j.Result) {
		return fmt.Errorf("replay DIVERGED from the live run:\n  live:   rounds=%d moves=%d ledger=%+v\n  replay: rounds=%d moves=%d ledger=%+v",
			j.Result.Rounds, j.Result.Moves, j.Result.Ledger, res.Rounds, res.Moves, res.Ledger)
	}
	fmt.Printf("replay:   bit-exact on engine=%s  rounds=%d moves=%d trace=%d points\n",
		engine, res.Rounds, res.Moves, len(res.Trace))
	return nil
}
