package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestHTTPEndpoints(t *testing.T) {
	const n = 16
	sys := testSystem(t, n)
	counts := make([]int64, n)
	counts[3] = 8
	st, err := core.NewUniformState(sys, counts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.SeqUniformEngine(st, core.Algorithm1{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New[*core.UniformState](eng, Config{
		N: n, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(srv, Prober{
		NodeLoad: func(i int) (float64, error) {
			if i < 0 || i >= n {
				return 0, errOutOfRange(i)
			}
			return st.Load(i), nil
		},
		Psi0: st.Psi0,
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, out := postJSON(t, ts.URL+"/tasks", map[string]any{"node": 2, "count": 3})
	if resp.StatusCode != 200 {
		t.Fatalf("POST /tasks: %d %v", resp.StatusCode, out)
	}
	if out["round"] == nil || out["round"].(float64) < 1 {
		t.Fatalf("no admission round in %v", out)
	}

	resp, out = postJSON(t, ts.URL+"/complete", map[string]any{"node": 3, "count": 1})
	if resp.StatusCode != 200 {
		t.Fatalf("POST /complete: %d %v", resp.StatusCode, out)
	}

	// Weighted submission on a uniform daemon is a client error.
	resp, _ = postJSON(t, ts.URL+"/tasks", map[string]any{"node": 2, "weight": 0.5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("weighted op on uniform daemon: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/tasks", map[string]any{"node": 99})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range node: %d", resp.StatusCode)
	}

	lresp, err := http.Get(ts.URL + "/load?node=2")
	if err != nil {
		t.Fatal(err)
	}
	var load map[string]any
	if err := json.NewDecoder(lresp.Body).Decode(&load); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if lresp.StatusCode != 200 || load["load"] == nil {
		t.Fatalf("GET /load: %d %v", lresp.StatusCode, load)
	}

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Submissions < 2 || stats.Rounds < 1 {
		t.Fatalf("GET /stats: %+v", stats)
	}

	if _, err := srv.Stop(); err != nil {
		t.Fatal(err)
	}
	// After stop, submissions are refused with 503.
	resp, _ = postJSON(t, ts.URL+"/tasks", map[string]any{"node": 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-stop submit: %d", resp.StatusCode)
	}
}

// TestHTTPLoadHint pins the GET /load?k= placement hint: ascending
// load order, ties broken by node id, k clamped to n, and bad or
// missing parameters rejected with 400.
func TestHTTPLoadHint(t *testing.T) {
	const n = 8
	// Uniform speeds so load equals task count and the expected ranking
	// can be read straight off the counts vector.
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, machine.Uniform(n))
	if err != nil {
		t.Fatal(err)
	}
	counts := []int64{5, 0, 3, 0, 1, 0, 0, 0}
	st, err := core.NewUniformState(sys, counts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.SeqUniformEngine(st, core.Algorithm1{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New[*core.UniformState](eng, Config{
		N: n, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	ts := httptest.NewServer(NewHandler(srv, Prober{
		NodeLoad: func(i int) (float64, error) {
			if i < 0 || i >= n {
				return 0, errOutOfRange(i)
			}
			return st.Load(i), nil
		},
	}))
	defer ts.Close()

	hint := func(q string) (int, []loadEntry) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/load?" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Nodes []loadEntry `json:"nodes"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out.Nodes
	}

	// Five nodes are tied at zero load; the hint must list them by node
	// id, so k=3 picks the three lowest-numbered idle nodes.
	code, nodes := hint("k=3")
	if code != 200 {
		t.Fatalf("GET /load?k=3: %d", code)
	}
	want := []int{1, 3, 5}
	if len(nodes) != len(want) {
		t.Fatalf("k=3 returned %d nodes: %v", len(nodes), nodes)
	}
	for i, e := range nodes {
		if e.Node != want[i] || e.Load != 0 {
			t.Fatalf("hint[%d] = %+v, want node %d load 0", i, e, want[i])
		}
	}

	// k beyond n is clamped: the full ranking comes back, ascending.
	code, nodes = hint("k=100")
	if code != 200 || len(nodes) != n {
		t.Fatalf("GET /load?k=100: %d, %d nodes", code, len(nodes))
	}
	for i := 1; i < len(nodes); i++ {
		a, b := nodes[i-1], nodes[i]
		if a.Load > b.Load || (a.Load == b.Load && a.Node >= b.Node) {
			t.Fatalf("ranking out of order at %d: %+v then %+v", i, a, b)
		}
	}
	if last := nodes[n-1]; last.Node != 0 || last.Load != 5 {
		t.Fatalf("most-loaded entry %+v, want node 0 load 5", last)
	}

	for _, q := range []string{"", "k=0", "k=-2", "k=zebra", "node=cow"} {
		resp, err := http.Get(ts.URL + "/load?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /load?%s: %d, want 400", q, resp.StatusCode)
		}
	}

	// The single-node probe still answers alongside the ranking form.
	resp, err := http.Get(ts.URL + "/load?node=2")
	if err != nil {
		t.Fatal(err)
	}
	var one map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || one["load"].(float64) != 3 {
		t.Fatalf("GET /load?node=2: %d %v", resp.StatusCode, one)
	}
}

// TestHTTPRejectsOversizedBody pins the request-body cap: a POST body
// over maxBodyBytes gets 413 with a JSON error instead of being
// buffered in full by the decoder, and the handler keeps serving
// normal-sized requests afterwards.
func TestHTTPRejectsOversizedBody(t *testing.T) {
	const n = 8
	sys := testSystem(t, n)
	srv, err := New[*core.UniformState](uniformEngine(t, sys, make([]int64, n)), Config{
		N: n, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	ts := httptest.NewServer(NewHandler(srv, Prober{}))
	defer ts.Close()

	big := append([]byte(`{"node":1,"pad":"`), bytes.Repeat([]byte("x"), maxBodyBytes)...)
	big = append(big, `"}`...)
	for _, path := range []string{"/tasks", "/complete"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(big))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("POST %s: decoding error body: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with oversized body: %d %v", path, resp.StatusCode, out)
		}
		msg, _ := out["error"].(string)
		if !strings.Contains(msg, "exceeds") {
			t.Fatalf("POST %s: error %q does not name the body cap", path, msg)
		}
	}

	resp, out := postJSON(t, ts.URL+"/tasks", map[string]any{"node": 1})
	if resp.StatusCode != 200 {
		t.Fatalf("normal request after oversized one: %d %v", resp.StatusCode, out)
	}
}

type errOutOfRange int

func (e errOutOfRange) Error() string { return "node out of range" }
