package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// parse builds a flags value through the real FlagSet so tests get the
// same defaults the binary does.
func parse(t *testing.T, argv ...string) *flags {
	t.Helper()
	fl, err := parseFlags(argv)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

func TestFlagsMetaRoundTrip(t *testing.T) {
	fl := parse(t,
		"-graph", "torus", "-n", "100", "-tasks", "5000", "-seed", "9",
		"-speeds", "twoclass", "-smax", "2", "-model", "weighted",
		"-protocol", "paper", "-placement", "random")
	got, err := flagsFromMeta(fl.meta())
	if err != nil {
		t.Fatal(err)
	}
	if got.graph != fl.graph || got.n != fl.n || got.tasks != fl.tasks ||
		got.seed != fl.seed || got.speeds != fl.speeds || got.smax != fl.smax ||
		got.model != fl.model || got.protocol != fl.protocol || got.placement != fl.placement {
		t.Fatalf("meta round trip: got %+v, want %+v", got, fl)
	}
	if _, err := flagsFromMeta(map[string]string{"graph": "ring"}); err == nil {
		t.Fatal("incomplete meta accepted")
	}
}

func TestSelfdriveDirectThenReplayAcrossEngines(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "run.jsonl")
	fl := parse(t,
		"-selfdrive", "-rate", "4000", "-duration", "250ms",
		"-graph", "ring", "-n", "64", "-tasks", "640", "-seed", "3",
		"-engine", "seq", "-batch", "64", "-maxwait", "1ms",
		"-journal", jpath, "-verify")
	if err := runSelfdrive(context.Background(), fl); err != nil {
		t.Fatalf("selfdrive: %v", err)
	}
	if _, err := os.Stat(jpath); err != nil {
		t.Fatalf("journal not written: %v", err)
	}
	// The journal must replay bit-exact on a differently-executed engine
	// too (trajectories are engine-independent by construction).
	for _, engine := range []string{"seq", "shard"} {
		rfl := parse(t, "-replay", jpath, "-engine", engine, "-shards", "3")
		if err := runReplay(rfl); err != nil {
			t.Fatalf("replay on %s: %v", engine, err)
		}
	}
}

// TestSelfdriveRotatedJournalReplay runs selfdrive with a byte bound
// small enough to force journal rotation, verifies the chain in-process
// (-verify reads the segments back from disk), and replays the rotated
// chain through the replay mode end to end.
func TestSelfdriveRotatedJournalReplay(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "run.jsonl")
	fl := parse(t,
		"-selfdrive", "-rate", "4000", "-duration", "250ms",
		"-graph", "ring", "-n", "64", "-tasks", "640", "-seed", "3",
		"-engine", "seq", "-batch", "64", "-maxwait", "1ms",
		"-journal", jpath, "-journal-max-bytes", "512", "-verify")
	if err := runSelfdrive(context.Background(), fl); err != nil {
		t.Fatalf("selfdrive with rotation: %v", err)
	}
	if _, err := os.Stat(jpath + ".1"); err != nil {
		t.Fatalf("journal never rotated: %v", err)
	}
	rfl := parse(t, "-replay", jpath)
	if err := runReplay(rfl); err != nil {
		t.Fatalf("replay of rotated journal: %v", err)
	}
}

func TestSelfdriveWeightedHTTP(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "run.jsonl")
	fl := parse(t,
		"-selfdrive", "-via", "http", "-clients", "4",
		"-rate", "1000", "-duration", "250ms",
		"-graph", "ring", "-n", "32", "-tasks", "320", "-seed", "5",
		"-model", "weighted", "-engine", "seq",
		"-batch", "32", "-maxwait", "1ms",
		"-journal", jpath, "-verify")
	if err := runSelfdrive(context.Background(), fl); err != nil {
		t.Fatalf("selfdrive http: %v", err)
	}
	rfl := parse(t, "-replay", jpath)
	if err := runReplay(rfl); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

func TestDaemonStartupShutdown(t *testing.T) {
	fl := parse(t, "-listen", "127.0.0.1:0", "-graph", "ring", "-n", "16", "-tasks", "64")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- runDaemon(ctx, fl) }()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestHTTPServerDropsStalledHeader pins the read deadlines of
// newHTTPServer: a client that sends half a request line and stalls is
// disconnected within the header timeout, while a complete request on
// the same server is still answered.
func TestHTTPServerDropsStalledHeader(t *testing.T) {
	const headerTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}), headerTimeout)
	go hs.Serve(ln)
	defer hs.Close()

	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("complete request: status %d", resp.StatusCode)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /sta"); err != nil {
		t.Fatal(err)
	}
	// Fail rather than hang if the server never drops the connection.
	if err := conn.SetReadDeadline(time.Now().Add(10 * headerTimeout)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	elapsed := time.Since(start)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("stalled client still connected after %v (header timeout %v)", elapsed, headerTimeout)
	}
	if elapsed < headerTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout", elapsed, headerTimeout)
	}
}

// loadRanking serves a torus instance of the given model on engine,
// admits five single-op batches (one per round, so every engine runs
// the same trajectory), then asks GET /load?k=3. It returns the
// response body and how many frames the request moved at a cluster's
// coordinator (0 on the other engines).
func loadRanking(t *testing.T, model, engine string) (body string, frames float64) {
	t.Helper()
	fl := parse(t,
		"-graph", "torus", "-n", "64", "-tasks", "2000", "-seed", "4",
		"-speeds", "twoclass", "-smax", "2", "-placement", "random",
		"-model", model, "-engine", engine, "-shards", "2",
		"-nojournal", "-maxwait", "1ms")
	inst, err := buildInstance(fl)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	defer inst.srv.Stop()
	for k := 0; k < 5; k++ {
		op := serve.Op{Kind: serve.OpArrive, Node: 7 * k, Count: 40}
		if model == "weighted" {
			op = serve.Op{Kind: serve.OpArriveWeighted, Node: 7 * k, Weight: 0.75}
		}
		tk, err := inst.srv.Submit(op)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	inst.srv.Do(func() {}) // the last admitted round has finished
	ts := httptest.NewServer(inst.handler)
	defer ts.Close()
	before := clusterFrames(t, inst.srv.Registry())
	resp, err := http.Get(ts.URL + "/load?k=3")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/%s: status %d: %s", model, engine, resp.StatusCode, raw)
	}
	return string(raw), clusterFrames(t, inst.srv.Registry()) - before
}

// clusterFrames sums the coordinator's transport frames, both
// directions, from the daemon's registry.
func clusterFrames(t *testing.T, reg *obs.Registry) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	if f := fams["lbd_cluster_transport_frames"]; f != nil {
		for _, s := range f.Samples {
			total += s.Value
		}
	}
	return total
}

// TestClusterLoadRankingIsOneGather: on a cluster-served daemon,
// GET /load?k=3 returns the sequential engine's ranking and reads the
// loads with one state gather — a request and a reply per worker, 2P
// frames — instead of one gather per node.
func TestClusterLoadRankingIsOneGather(t *testing.T) {
	const shards = 2
	for _, model := range []string{"uniform", "weighted"} {
		t.Run(model, func(t *testing.T) {
			want, _ := loadRanking(t, model, "seq")
			got, frames := loadRanking(t, model, "cluster")
			if got != want {
				t.Errorf("cluster ranking %s, want seq's %s", got, want)
			}
			if frames == 0 || frames > 2*shards {
				t.Errorf("GET /load?k=3 moved %g frames at the coordinator, want 1..%d", frames, 2*shards)
			}
		})
	}
}

// TestReplayJournalOfRemovedEngine: the journal meta's engine key is
// provenance only, so a journal recorded under an engine name this
// build no longer has still replays bit-exact on the remaining engines.
func TestReplayJournalOfRemovedEngine(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "run.jsonl")
	fl := parse(t,
		"-selfdrive", "-rate", "4000", "-duration", "200ms",
		"-graph", "ring", "-n", "48", "-tasks", "480", "-seed", "6",
		"-engine", "seq", "-batch", "64", "-maxwait", "1ms",
		"-journal", jpath)
	if err := runSelfdrive(context.Background(), fl); err != nil {
		t.Fatalf("selfdrive: %v", err)
	}
	f, err := os.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	j, err := serve.ReadJournal(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	// An -engine value of earlier builds, since deleted.
	const removedEngine = "forkjoin"
	j.Meta["engine"] = removedEngine
	old := filepath.Join(dir, "old.jsonl")
	out, err := os.Create(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Write(out); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"seq", "shard", "cluster"} {
		if err := runReplay(parse(t, "-replay", old, "-engine", engine, "-shards", "2")); err != nil {
			t.Fatalf("replay on %s: %v", engine, err)
		}
	}
	if err := runReplay(parse(t, "-replay", old, "-engine", removedEngine)); err == nil ||
		!strings.Contains(err.Error(), "unknown uniform engine") {
		t.Fatalf("replay on the removed engine: %v, want the unknown-engine error", err)
	}
}
