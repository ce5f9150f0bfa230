package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	c.n += int64(k)
	return k, err
}

// fuzzServer starts a server on eng and returns its handler and a stop
// function that returns the finished journal.
func fuzzServer[S core.State](t *testing.T, eng core.Engine[S], cfg Config) (http.Handler, func() (*Journal, error)) {
	srv, err := New[S](eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewHandler(srv, Prober{}), func() (*Journal, error) {
		_, err := srv.Stop()
		return srv.Journal(), err
	}
}

// FuzzServeBodies POSTs arbitrary bodies, after pad bytes of leading
// JSON whitespace, to the /tasks or /complete handler (decodeBody and
// the taskReq decoder behind it) of a fresh live seq server of either
// task model. Whatever the bytes: no panic; a rejected body gets a 4xx
// with a JSON error; an accepted one is admitted as exactly one op, in
// the round the response names, with its node in range and a weight in
// (0, 1]; and the handler never reads past the 64 KiB body cap, which
// whitespace alone beyond the cap must trip with a 413.
func FuzzServeBodies(f *testing.F) {
	for _, seed := range []struct {
		weighted, complete bool
		pad                uint32
		body               string
	}{
		{false, false, 0, `{"node":3,"count":2}`},
		{false, true, 0, `{"node":0}`},
		{true, false, 0, `{"node":5,"weight":0.25}`},
		{true, true, 3, `{"node":7,"count":4}`},
		{false, false, 0, `{"node":2,"weight":0.5}`},
		{true, false, 0, `{"node":1,"weight":1.5}`},
		{true, false, 0, `{"node":-1,"weight":0.5}`},
		{false, false, 0, `{"node":1,"count":-3}`},
		{false, true, 0, `{"node":1e30}`},
		{false, false, 0, `{"node":0,"count":9223372036854775807}`},
		{true, true, 0, `{"node":6,"count":9223372036854775807}`},
		{true, true, 0, `[1,2`},
		{false, false, maxBodyBytes, `{"node":1}`},
		{true, false, maxBodyBytes - 12, `{"node":1,"weight":0.5}`},
	} {
		f.Add(seed.weighted, seed.complete, seed.pad, []byte(seed.body))
	}
	const n = 8
	sys := testSystem(f, n)
	perNode := testWeights(f, sys, 2)
	f.Fuzz(func(t *testing.T, weighted, complete bool, pad uint32, body []byte) {
		pad %= 2 * maxBodyBytes
		var h http.Handler
		var stop func() (*Journal, error)
		if weighted {
			h, stop = fuzzServer(t, weightedEngine(t, sys, perNode), Config{N: n, Weighted: true, Seed: 1})
		} else {
			h, stop = fuzzServer(t, uniformEngine(t, sys, make([]int64, n)), Config{N: n, Seed: 1})
		}
		path := "/tasks"
		if complete {
			path = "/complete"
		}
		in := &countingReader{r: io.MultiReader(strings.NewReader(strings.Repeat(" ", int(pad))), bytes.NewReader(body))}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, in))
		j, err := stop()
		if err != nil {
			t.Fatalf("server failed: %v", err)
		}
		if in.n > maxBodyBytes+1 {
			t.Fatalf("handler read %d body bytes past the %d-byte cap", in.n, maxBodyBytes)
		}
		if pad > maxBodyBytes && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%d bytes of padding: status %d, want 413", pad, rec.Code)
		}
		if rec.Code != http.StatusOK {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("rejected body: status %d, want 4xx", rec.Code)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" ||
				rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("rejected body: %d %q is not a JSON error", rec.Code, rec.Body.Bytes())
			}
			if len(j.Entries) != 0 {
				t.Fatalf("rejected body admitted %+v", j.Entries)
			}
			return
		}
		var resp admitResp
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("accepted body: response %q: %v", rec.Body.Bytes(), err)
		}
		if len(j.Entries) != 1 || j.Entries[0].Round != int(resp.Round) {
			t.Fatalf("accepted body admitted in round %d, journal %+v", resp.Round, j.Entries)
		}
		e := j.Entries[0]
		var ops []CountEvent
		for _, evs := range [][]CountEvent{e.Arrivals, e.Departures, e.WeightDepartures} {
			ops = append(ops, evs...)
		}
		for _, wa := range e.WeightArrivals {
			for _, w := range wa.Weights {
				if !(w > 0 && w <= 1) {
					t.Fatalf("admitted weight %v outside (0,1]", w)
				}
				ops = append(ops, CountEvent{Node: wa.Node, Count: 1})
			}
		}
		if len(ops) != 1 || ops[0].Node < 0 || ops[0].Node >= n || ops[0].Count < 1 {
			t.Fatalf("accepted body admitted %+v, want one op on a node in [0,%d)", e, n)
		}
	})
}
