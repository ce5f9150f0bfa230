package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
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
