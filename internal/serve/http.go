package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/core"
)

// Prober is the engine-reading surface the HTTP layer needs beyond
// Submit: per-node load, an optional all-node load read and an
// optional Ψ₀ probe. cmd/lbd wires these from the concrete engine; all
// run through Server.Do so they see a quiescent engine.
type Prober struct {
	// NodeLoad returns node i's current load ℓᵢ.
	NodeLoad func(i int) (float64, error)
	// Loads returns all n loads in one read (nil: GET /load?k= calls
	// NodeLoad once per node). An engine whose every read gathers the
	// state from its workers sets it, so a ranking costs one gather.
	Loads func() ([]float64, error)
	// Psi0 returns the live potential (nil: /stats reports 0).
	Psi0 func() float64
}

// submitter is the handler's view of a Server of either task model.
type submitter interface {
	Submit(op Op) (Ticket, error)
	Stats() Stats
	Metrics() *Metrics
	Do(f func())
}

// handler serves the lbd HTTP/JSON surface.
type handler struct {
	s        submitter
	p        Prober
	weighted bool
	n        int
}

// NewHandler exposes srv over HTTP:
//
//	POST /tasks    {"node":i,"count":k} or {"node":i,"weight":w}  → {"round":r}
//	POST /complete {"node":i,"count":k}                           → {"round":r,"requested":k}
//	GET  /load?node=i                                             → {"node":i,"load":x}
//	GET  /load?k=3                                                → {"nodes":[{"node":i,"load":x},...]} (k least-loaded)
//	GET  /stats                                                   → serve.Stats (?reset=window starts a fresh high-water window)
//	GET  /metrics                                                 → Prometheus text exposition
//	GET  /healthz                                                 → {"status":"ok"}
//
// Handlers wait for admission, so a 200 means the task is in the
// engine and names the round that admitted it.
func NewHandler[S core.State](srv *Server[S], p Prober) http.Handler {
	h := &handler{s: srv, p: p, weighted: srv.cfg.Weighted, n: srv.cfg.N}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /tasks", h.tasks)
	mux.HandleFunc("POST /complete", h.complete)
	mux.HandleFunc("GET /load", h.load)
	mux.HandleFunc("GET /stats", h.stats)
	mux.HandleFunc("GET /metrics", h.metrics)
	mux.HandleFunc("GET /healthz", h.healthz)
	return mux
}

// taskReq is the POST /tasks and POST /complete body.
type taskReq struct {
	Node   int     `json:"node"`
	Count  int64   `json:"count,omitempty"`
	Weight float64 `json:"weight,omitempty"`
}

// admitResp reports the admission round.
type admitResp struct {
	Round uint64 `json:"round"`
	Count int64  `json:"count,omitempty"`
}

// maxBodyBytes bounds POST bodies. The legitimate requests are tiny
// JSON objects; without a cap a single oversized body would be read
// (and buffered by the JSON decoder) in full before failing.
const maxBodyBytes = 1 << 16

// decodeBody decodes a length-capped JSON request body into v,
// reporting 413 for oversized bodies and 400 for malformed ones.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
		return false
	}
	return true
}

func writeErr(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (h *handler) submitWait(w http.ResponseWriter, r *http.Request, op Op) {
	t, err := h.s.Submit(op)
	if err != nil {
		code := http.StatusBadRequest
		if err == ErrClosed {
			code = http.StatusServiceUnavailable
		}
		writeErr(w, code, err)
		return
	}
	select {
	case <-t.Done():
	case <-r.Context().Done():
		// The submission is already in the pending batch and will be
		// applied; the caller just stopped waiting for the round.
		writeErr(w, http.StatusRequestTimeout, r.Context().Err())
		return
	}
	round, err := t.Wait()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	k := op.Count
	if k == 0 {
		k = 1
	}
	writeJSON(w, admitResp{Round: round, Count: k})
}

func (h *handler) tasks(w http.ResponseWriter, r *http.Request) {
	var req taskReq
	if !decodeBody(w, r, &req) {
		return
	}
	op := Op{Node: req.Node, Count: req.Count}
	if req.Weight > 0 {
		op.Kind = OpArriveWeighted
		op.Weight = req.Weight
	} else {
		op.Kind = OpArrive
	}
	h.submitWait(w, r, op)
}

func (h *handler) complete(w http.ResponseWriter, r *http.Request) {
	var req taskReq
	if !decodeBody(w, r, &req) {
		return
	}
	op := Op{Node: req.Node, Count: req.Count, Kind: OpComplete}
	if h.weighted {
		op.Kind = OpCompleteWeighted
	}
	h.submitWait(w, r, op)
}

// loadEntry is one node of a GET /load?k= placement hint.
type loadEntry struct {
	Node int     `json:"node"`
	Load float64 `json:"load"`
}

// load answers either form of the placement-hint API: ?node=i probes a
// single node, ?k=c returns the k least-loaded nodes in ascending load
// order (ties broken by node id ascending, so the hint is
// deterministic for a given engine state). Both read through Server.Do
// and therefore see a quiescent engine — the snapshot is a consistent
// round boundary, not a mid-commit mixture.
func (h *handler) load(w http.ResponseWriter, r *http.Request) {
	if h.p.NodeLoad == nil {
		writeErr(w, http.StatusNotImplemented, fmt.Errorf("no load probe wired"))
		return
	}
	q := r.URL.Query()
	if ns := q.Get("node"); ns != "" {
		node, err := strconv.Atoi(ns)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad node: %w", err))
			return
		}
		var load float64
		var lerr error
		h.s.Do(func() { load, lerr = h.p.NodeLoad(node) })
		if lerr != nil {
			writeErr(w, http.StatusBadRequest, lerr)
			return
		}
		writeJSON(w, map[string]any{"node": node, "load": load})
		return
	}
	ks := q.Get("k")
	if ks == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("want node=i or k=count"))
		return
	}
	k, err := strconv.Atoi(ks)
	if err != nil || k <= 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad k: %q", ks))
		return
	}
	if k > h.n {
		k = h.n
	}
	var loads []float64
	var lerr error
	h.s.Do(func() {
		if h.p.Loads != nil {
			loads, lerr = h.p.Loads()
			return
		}
		loads = make([]float64, h.n)
		for i := 0; i < h.n && lerr == nil; i++ {
			loads[i], lerr = h.p.NodeLoad(i)
		}
	})
	if lerr != nil {
		writeErr(w, http.StatusInternalServerError, lerr)
		return
	}
	entries := make([]loadEntry, len(loads))
	for i, l := range loads {
		entries[i] = loadEntry{Node: i, Load: l}
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].Load != entries[b].Load {
			return entries[a].Load < entries[b].Load
		}
		return entries[a].Node < entries[b].Node
	})
	writeJSON(w, map[string]any{"nodes": entries[:k]})
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	st := h.s.Stats()
	if h.p.Psi0 != nil {
		h.s.Do(func() { st.Psi0 = h.p.Psi0() })
	}
	// The snapshot is taken before the reset, so the response reports
	// the window it closes.
	if r.URL.Query().Get("reset") == "window" {
		h.s.Metrics().ResetWindow()
	}
	writeJSON(w, st)
}

// metrics renders every registered series (serve counters plus any
// engine series the owner registered) in Prometheus text format.
func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.s.Metrics().Registry().WritePrometheus(w)
}

// healthz reports liveness: the handler being wired to a server is the
// health condition — submissions may still be rejected after Stop, but
// the process is up and serving.
func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}
