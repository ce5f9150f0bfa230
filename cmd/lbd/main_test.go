package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
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

// TestReplayParentJournals replays two journals that lbd -selfdrive
// recorded before the instance builders moved into internal/instance,
// on every engine, and requires each replay to match the journal's
// footer bit for bit. The flags that recorded each journal must also
// produce its header again: the same nine instance keys plus the
// engine, the same seed and trace period.
func TestReplayParentJournals(t *testing.T) {
	for _, tc := range []struct {
		file string
		argv []string
	}{
		{"testdata/parent-uniform.jsonl", []string{
			"-graph", "torus", "-n", "16", "-tasks", "200", "-seed", "7",
			"-speeds", "integers", "-smax", "3", "-placement", "random"}},
		{"testdata/parent-weighted.jsonl", []string{
			"-graph", "regular", "-n", "16", "-tasks", "160", "-seed", "5",
			"-model", "weighted", "-speeds", "twoclass", "-smax", "2",
			"-placement", "corner", "-trace", "3"}},
	} {
		t.Run(filepath.Base(tc.file), func(t *testing.T) {
			j, err := serve.ReadJournalSegments(tc.file)
			if err != nil {
				t.Fatal(err)
			}
			cfg := parse(t, tc.argv...).serveConfig()
			if !reflect.DeepEqual(cfg.Meta, j.Meta) || cfg.Seed != j.Seed ||
				cfg.TraceEvery != j.TraceEvery || cfg.Weighted != j.Weighted {
				t.Fatalf("header: flags give meta %v seed %d trace %d weighted %v, journal has %v %d %d %v",
					cfg.Meta, cfg.Seed, cfg.TraceEvery, cfg.Weighted, j.Meta, j.Seed, j.TraceEvery, j.Weighted)
			}
			for _, engine := range []string{"seq", "shard", "cluster"} {
				if err := runReplay(parse(t, "-replay", tc.file, "-engine", engine, "-shards", "2")); err != nil {
					t.Fatalf("replay on %s: %v", engine, err)
				}
			}
		})
	}
}

func TestSelfdriveDirectThenReplayAcrossEngines(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "run.jsonl")
	fl := parse(t,
		"-selfdrive", "-rate", "4000", "-duration", "250ms",
		"-graph", "ring", "-n", "64", "-tasks", "640", "-seed", "3",
		"-engine", "seq",
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
		"-engine", "seq",
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
		"-journal", jpath, "-verify")
	if err := runSelfdrive(context.Background(), fl); err != nil {
		t.Fatalf("selfdrive http: %v", err)
	}
	rfl := parse(t, "-replay", jpath)
	if err := runReplay(rfl); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

// TestSelfdriveVerifyNeedsJournal: -verify without -journal is refused
// before the daemon is built or any load runs (the hour-long -duration
// would otherwise hold the test).
func TestSelfdriveVerifyNeedsJournal(t *testing.T) {
	fl := parse(t, "-selfdrive", "-verify", "-duration", "1h", "-graph", "ring", "-n", "16", "-tasks", "64")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := runSelfdrive(ctx, fl); err == nil || !strings.Contains(err.Error(), "set -journal") {
		t.Fatalf("selfdrive -verify without -journal: %v, want the refusal", err)
	}
	if ctx.Err() != nil {
		t.Fatal("the refusal came only after the load ran")
	}
}

// TestJournalMaxBytesNeedsJournal: a segment bound without -journal has
// nothing to rotate, so the flags are refused before anything runs.
func TestJournalMaxBytesNeedsJournal(t *testing.T) {
	argv := []string{"-selfdrive", "-journal-max-bytes", "100", "-rate", "2000", "-duration", "200ms", "-n", "16", "-tasks", "64"}
	if _, err := parseFlags(argv); err == nil || !strings.Contains(err.Error(), "set -journal") {
		t.Fatalf("-journal-max-bytes without -journal: %v, want the refusal", err)
	}
	if _, err := parseFlags(append(argv, "-journal", filepath.Join(t.TempDir(), "j.jsonl"))); err != nil {
		t.Fatalf("-journal-max-bytes with -journal: %v", err)
	}
}

// TestNoJournalWithoutFlag: a daemon started without -journal serves
// with no sink, and a selfdrive run without it leaves no file behind.
func TestNoJournalWithoutFlag(t *testing.T) {
	fl := parse(t, "-graph", "ring", "-n", "16", "-tasks", "64")
	inst, err := buildDaemon(fl)
	if err != nil {
		t.Fatal(err)
	}
	inst.srv.Stop()
	inst.close()
	if inst.sink != nil {
		t.Fatal("daemon without -journal built a journal sink")
	}
	dir := t.TempDir()
	t.Chdir(dir)
	fl = parse(t, "-selfdrive", "-rate", "4000", "-duration", "100ms", "-graph", "ring", "-n", "16", "-tasks", "64")
	if err := runSelfdrive(context.Background(), fl); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("selfdrive without -journal left %v (%v)", ents, err)
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
		"-model", model, "-engine", engine, "-shards", "2")
	inst, err := buildDaemon(fl)
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
		"-engine", "seq",
		"-journal", jpath)
	if err := runSelfdrive(context.Background(), fl); err != nil {
		t.Fatalf("selfdrive: %v", err)
	}
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// An -engine value of earlier builds, since deleted.
	const removedEngine = "forkjoin"
	old := filepath.Join(dir, "old.jsonl")
	data = bytes.Replace(data, []byte(`"engine":"seq"`), []byte(`"engine":"`+removedEngine+`"`), 1)
	if err := os.WriteFile(old, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := serve.ReadJournalSegments(old)
	if err != nil {
		t.Fatal(err)
	}
	if j.Meta["engine"] != removedEngine {
		t.Fatalf("rewritten journal meta %v, want engine %q", j.Meta, removedEngine)
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

// TestStatsPsi0MatchesSeqReplay: the Ψ₀ that GET /stats reports equals,
// bit for bit, the Ψ₀ of a sequential replay of the daemon's journal to
// the same round, on the seq and shard engines and for both task
// models. The weighted arrivals and completions move the engine's
// running total away from a node-order re-sum of the node weights.
func TestStatsPsi0MatchesSeqReplay(t *testing.T) {
	for _, model := range []string{"uniform", "weighted"} {
		for _, engine := range []string{"seq", "shard"} {
			t.Run(model+"/"+engine, func(t *testing.T) {
				jpath := filepath.Join(t.TempDir(), "run.jsonl")
				fl := parse(t,
					"-graph", "torus", "-n", "64", "-tasks", "2000", "-seed", "4",
					"-speeds", "twoclass", "-smax", "2", "-placement", "random",
					"-model", model, "-engine", engine, "-shards", "3",
					"-journal", jpath)
				inst, err := buildDaemon(fl)
				if err != nil {
					t.Fatal(err)
				}
				defer inst.close()
				for k := 0; k < 40; k++ {
					op := serve.Op{Kind: serve.OpArrive, Node: 7 * k % 64, Count: 3}
					switch {
					case model == "weighted" && k%5 == 4:
						op = serve.Op{Kind: serve.OpCompleteWeighted, Node: 11 * k % 64, Count: 2}
					case model == "weighted":
						op = serve.Op{Kind: serve.OpArriveWeighted, Node: 7 * k % 64, Weight: 0.1 + 0.0217*float64(k)}
					case k%5 == 4:
						op = serve.Op{Kind: serve.OpComplete, Node: 11 * k % 64, Count: 2}
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
				resp, err := http.Get(ts.URL + "/stats")
				if err != nil {
					t.Fatal(err)
				}
				var st serve.Stats
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				res, err := inst.srv.Stop()
				if err != nil {
					t.Fatal(err)
				}
				if st.Rounds != uint64(res.Rounds) || res.Rounds == 0 {
					t.Fatalf("/stats read round %d, the run stopped at round %d", st.Rounds, res.Rounds)
				}
				if err := inst.sink.Close(&res); err != nil {
					t.Fatal(err)
				}
				j, err := serve.ReadJournalSegments(jpath)
				if err != nil {
					t.Fatal(err)
				}
				_, want, err := replayJournal(j, "seq", harness.EngineOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(st.Psi0) != math.Float64bits(want) {
					t.Fatalf("/stats Ψ₀ %v, seq replay to round %d %v", st.Psi0, res.Rounds, want)
				}
			})
		}
	}
}
