package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestMetricsEndpoint drives a small server over HTTP and requires
// GET /metrics to serve strict-parseable Prometheus text carrying the
// core serve series, and GET /healthz to answer ok.
func TestMetricsEndpoint(t *testing.T) {
	const n = 16
	sys := testSystem(t, n)
	srv, err := New[*core.UniformState](uniformEngine(t, sys, make([]int64, n)), Config{
		N: n, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	ts := httptest.NewServer(NewHandler(srv, Prober{}))
	defer ts.Close()

	for i := 0; i < 8; i++ {
		resp, out := postJSON(t, ts.URL+"/tasks", map[string]any{"node": i, "count": 2})
		if resp.StatusCode != 200 {
			t.Fatalf("POST /tasks: %d %v", resp.StatusCode, out)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics content type %q", ct)
	}
	fams, err := obs.ParseExposition(string(body))
	if err != nil {
		t.Fatalf("/metrics output failed strict parse: %v\n%s", err, body)
	}
	if err := obs.RequireSeries(fams,
		"lbd_submissions_total", "lbd_rejected_total", "lbd_batches_total",
		"lbd_rounds_total", "lbd_moves_total", "lbd_flushes_total",
		"lbd_batch_size", "lbd_admit_wait_microseconds",
		"lbd_queue_wait_seconds_total", "lbd_apply_seconds_total",
		"lbd_step_seconds_total", "lbd_phase_seconds_total",
		"lbd_admit_max_seconds", "lbd_admit_max_window_seconds",
		"lbd_batch_max", "lbd_batch_max_window", "lbd_window_age_seconds",
	); err != nil {
		t.Fatal(err)
	}
	var series int
	for _, f := range fams {
		series += len(f.Samples)
	}
	if series < 20 {
		t.Fatalf("GET /metrics exposed only %d series, want >= 20", series)
	}
	subs := fams["lbd_submissions_total"].Samples[0].Value
	if subs < 8 {
		t.Fatalf("lbd_submissions_total = %g, want >= 8", subs)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != 200 || health["status"] != "ok" {
		t.Fatalf("GET /healthz: %d %v", hresp.StatusCode, health)
	}
}

// TestWindowHighWaterMarks pins the satellite fix: the all-time
// admit/batch maxima stay monotone while the windowed pair resets, so
// /stats deltas stay meaningful on long-running daemons.
func TestWindowHighWaterMarks(t *testing.T) {
	m := NewMetrics()
	m.recordBatch(100, time.Millisecond)
	m.recordAdmit(50 * time.Millisecond)

	s := m.Snapshot()
	if s.BatchMax != 100 || s.BatchMaxWindow != 100 {
		t.Fatalf("before reset: max=%d window=%d", s.BatchMax, s.BatchMaxWindow)
	}
	if s.AdmitMaxUs != 50000 || s.AdmitMaxWindowUs != 50000 {
		t.Fatalf("before reset: admitMax=%g window=%g", s.AdmitMaxUs, s.AdmitMaxWindowUs)
	}

	m.ResetWindow()
	m.recordBatch(10, time.Millisecond)
	m.recordAdmit(2 * time.Millisecond)

	s = m.Snapshot()
	if s.BatchMax != 100 {
		t.Fatalf("all-time batch max regressed after window reset: %d", s.BatchMax)
	}
	if s.BatchMaxWindow != 10 {
		t.Fatalf("windowed batch max = %d, want 10", s.BatchMaxWindow)
	}
	if s.AdmitMaxUs != 50000 {
		t.Fatalf("all-time admit max regressed: %g", s.AdmitMaxUs)
	}
	if s.AdmitMaxWindowUs != 2000 {
		t.Fatalf("windowed admit max = %g, want 2000", s.AdmitMaxWindowUs)
	}
	if s.WindowSec < 0 {
		t.Fatalf("window age negative: %g", s.WindowSec)
	}
}

// TestStatsResetWindowQuery covers the HTTP trigger: GET
// /stats?reset=window reports the closing window, then starts a new
// one.
func TestStatsResetWindowQuery(t *testing.T) {
	const n = 8
	sys := testSystem(t, n)
	srv, err := New[*core.UniformState](uniformEngine(t, sys, make([]int64, n)), Config{
		N: n, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	ts := httptest.NewServer(NewHandler(srv, Prober{}))
	defer ts.Close()

	if resp, out := postJSON(t, ts.URL+"/tasks", map[string]any{"node": 1, "count": 4}); resp.StatusCode != 200 {
		t.Fatalf("POST /tasks: %d %v", resp.StatusCode, out)
	}

	get := func(url string) Stats {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := get(ts.URL + "/stats?reset=window")
	if st.BatchMaxWindow == 0 {
		t.Fatalf("closing window lost its batch max: %+v", st)
	}
	st = get(ts.URL + "/stats")
	if st.BatchMaxWindow != 0 {
		t.Fatalf("window did not reset: BatchMaxWindow=%d", st.BatchMaxWindow)
	}
	if st.BatchMax == 0 {
		t.Fatal("all-time batch max lost by window reset")
	}
}

// TestServeSpans runs a server with span recording on and checks the
// Chrome-trace dump carries apply/step spans and the phase sub-spans
// when the engine reports phases. The seq engine has no PhaseTimer, so
// this covers the apply/step level.
func TestServeSpans(t *testing.T) {
	const n = 8
	sys := testSystem(t, n)
	rec := obs.NewSpanRecorder(0)
	srv, err := New[*core.UniformState](uniformEngine(t, sys, make([]int64, n)), Config{
		N: n, Seed: 9, Spans: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := srv.Submit(Op{Node: 1, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Stop(); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("no spans recorded")
	}
	var sb strings.Builder
	if err := rec.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"name":"apply"`, `"name":"step"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s:\n%s", want, out)
		}
	}
}
