// Package testutil holds small helpers shared by the smoke and golden
// tests of the command and example mains.
package testutil

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// CaptureStdout runs fn with os.Stdout redirected to a pipe and returns
// everything it printed. A non-nil error from fn fails the test with
// the captured output attached. Not safe for parallel tests: os.Stdout
// is process-global.
func CaptureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	outC := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		outC <- buf.String()
	}()
	errRun := fn()
	w.Close()
	os.Stdout = old
	out := <-outC
	if errRun != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", errRun, out)
	}
	return out
}

// Golden fails t unless got equals the file at path byte for byte. A
// golden file holds a program's stdout; record a new one by writing
// that output to path (the test names the command line).
func Golden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n-- got --\n%s-- want --\n%s", path, got, want)
	}
}
