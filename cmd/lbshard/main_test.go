// Process-level acceptance tests: the test binary re-executes itself as
// the real lbshard (TestMain trampoline), so these exercise actual OS
// processes talking over real sockets — coordinator plus P workers,
// unix and TCP, including a worker SIGKILLed mid-run and the resumed
// run reproducing the uninterrupted result byte for byte.
package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	if os.Getenv("LBSHARD_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lbshard runs this test binary as the lbshard command.
func lbshard(t *testing.T, args ...string) ([]byte, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "LBSHARD_AS_MAIN=1")
	return cmd.CombinedOutput()
}

// mustRun runs lbshard and fails the test on a non-zero exit.
func mustRun(t *testing.T, args ...string) []byte {
	t.Helper()
	out, err := lbshard(t, args...)
	if err != nil {
		t.Fatalf("lbshard %v: %v\n%s", args, err, out)
	}
	return out
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestProcessParityUniform: P ∈ {2, 4} worker processes over a unix
// socket must produce the in-process shard engine's exact result
// (-verify checks bit-identity in the coordinator), and the P=2 and P=4
// result files must be byte-identical to each other.
func TestProcessParityUniform(t *testing.T) {
	dir := t.TempDir()
	var results [][]byte
	for _, p := range []int{2, 4} {
		res := filepath.Join(dir, "uniform-"+strconv.Itoa(p)+".json")
		out := mustRun(t,
			"-graph", "torus", "-n", "16", "-tasks", "800", "-seed", "9",
			"-rounds", "40", "-trace", "7", "-shards", strconv.Itoa(p),
			"-socket", filepath.Join(dir, "u"+strconv.Itoa(p)+".sock"),
			"-spawn", "-verify", "-result", res)
		if !bytes.Contains(out, []byte("verify: OK")) {
			t.Fatalf("P=%d: no verify line in output:\n%s", p, out)
		}
		results = append(results, readFile(t, res))
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatal("P=2 and P=4 result files differ")
	}
}

// TestProcessParityWeighted is the weighted-model version, with
// heterogeneous speeds so the speed-scaled protocol paths run.
func TestProcessParityWeighted(t *testing.T) {
	dir := t.TempDir()
	var results [][]byte
	for _, p := range []int{2, 4} {
		res := filepath.Join(dir, "weighted-"+strconv.Itoa(p)+".json")
		out := mustRun(t,
			"-graph", "torus", "-n", "16", "-tasks", "800", "-seed", "9",
			"-model", "weighted", "-speeds", "twoclass",
			"-rounds", "40", "-trace", "7", "-shards", strconv.Itoa(p),
			"-socket", filepath.Join(dir, "w"+strconv.Itoa(p)+".sock"),
			"-spawn", "-verify", "-result", res)
		if !bytes.Contains(out, []byte("verify: OK")) {
			t.Fatalf("P=%d: no verify line in output:\n%s", p, out)
		}
		results = append(results, readFile(t, res))
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatal("P=2 and P=4 result files differ")
	}
}

// TestProcessTCP runs the cluster over TCP loopback — the coordinator
// resolves the :0 ephemeral port and advertises it to spawned workers.
func TestProcessTCP(t *testing.T) {
	out := mustRun(t,
		"-graph", "ring", "-n", "16", "-tasks", "400", "-seed", "3",
		"-rounds", "30", "-shards", "2",
		"-socket", "tcp:127.0.0.1:0", "-spawn", "-verify")
	if !bytes.Contains(out, []byte("verify: OK")) {
		t.Fatalf("no verify line in output:\n%s", out)
	}
}

// TestProcessParityClasses: the graph classes and speed profile beyond
// Table 1's four classes run on the cluster too, bit-identical to the
// in-process shard engine. regular has no graph descriptor, so its
// workers receive explicit CSR rows.
func TestProcessParityClasses(t *testing.T) {
	dir := t.TempDir()
	for _, graph := range []string{"mesh", "path", "regular"} {
		for _, model := range []string{"uniform", "weighted"} {
			out := mustRun(t,
				"-graph", graph, "-n", "16", "-tasks", "800", "-seed", "9",
				"-model", model, "-speeds", "integers", "-smax", "3",
				"-rounds", "40", "-trace", "7", "-shards", "2",
				"-socket", filepath.Join(dir, graph+"-"+model+".sock"), "-spawn", "-verify")
			if !bytes.Contains(out, []byte("verify: OK")) {
				t.Fatalf("%s/%s: no verify line in output:\n%s", graph, model, out)
			}
		}
	}
}

// TestBadInstanceFailsBeforeListening: an instance the flags cannot
// build fails before the coordinator listens, spawns or waits for a
// worker, so the socket is never created and no worker starts.
func TestBadInstanceFailsBeforeListening(t *testing.T) {
	dir := t.TempDir()
	for _, bad := range [][]string{
		{"-graph", "nope"},
		{"-speeds", "nope"},
		{"-placement", "nope"},
		{"-model", "weighted", "-protocol", "baseline"},
	} {
		for _, spawn := range []bool{true, false} {
			sock := filepath.Join(dir, "bad.sock")
			args := append([]string{"-socket", sock, "-shards", "2"}, bad...)
			if spawn {
				args = append(args, "-spawn")
			}
			start := time.Now()
			out, err := lbshard(t, args...)
			if err == nil {
				t.Fatalf("%v: accepted:\n%s", bad, out)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("%v spawn=%v: failed after %v, not at once", bad, spawn, d)
			}
			if _, serr := os.Stat(sock); !os.IsNotExist(serr) {
				t.Errorf("%v spawn=%v: socket created (%v)", bad, spawn, serr)
			}
			if bytes.Contains(out, []byte("EOF")) || bytes.Contains(out, []byte("cluster:")) {
				t.Errorf("%v spawn=%v: workers ran:\n%s", bad, spawn, out)
			}
		}
	}
}

// killAndResume runs the full kill-tolerance scenario for one instance:
// a reference run, then a run whose first worker SIGKILLs itself after
// round 25 (the coordinator must fail, leaving the round-20 checkpoint),
// then a -resume run that must reproduce the reference byte for byte.
func killAndResume(t *testing.T, instFlags ...string) {
	dir := t.TempDir()
	base := append([]string{
		"-n", "16", "-tasks", "800", "-seed", "9",
		"-rounds", "60", "-trace", "7", "-shards", "2",
		"-socket", filepath.Join(dir, "lb.sock"), "-spawn",
	}, instFlags...)
	ref := filepath.Join(dir, "ref.json")
	mustRun(t, append(base, "-result", ref)...)

	ck := filepath.Join(dir, "run.ckpt")
	out, err := lbshard(t, append(base, "-checkpoint", ck, "-checkpoint-every", "10", "-killafter", "25")...)
	if err == nil {
		t.Fatalf("coordinator survived a SIGKILLed worker:\n%s", out)
	}
	if _, serr := os.Stat(ck); serr != nil {
		t.Fatalf("no checkpoint left behind: %v", serr)
	}

	res := filepath.Join(dir, "resumed.json")
	out = mustRun(t, append(base, "-checkpoint", ck, "-resume", "-verify", "-result", res)...)
	if !bytes.Contains(out, []byte("verify: OK")) {
		t.Fatalf("no verify line in resumed output:\n%s", out)
	}
	if !bytes.Equal(readFile(t, ref), readFile(t, res)) {
		t.Fatal("resumed result differs from the uninterrupted run")
	}
}

func TestKillAndResumeUniform(t *testing.T) {
	killAndResume(t, "-graph", "torus", "-model", "uniform")
}

func TestKillAndResumeWeighted(t *testing.T) {
	killAndResume(t, "-graph", "torus", "-model", "weighted")
}

// TestKillAndResumeRegular resumes a graph without a descriptor, whose
// checkpoint carries the explicit CSR.
func TestKillAndResumeRegular(t *testing.T) {
	killAndResume(t, "-graph", "regular", "-model", "weighted", "-speeds", "integers", "-smax", "3")
}
