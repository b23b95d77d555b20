package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seedModule writes a throwaway module containing one lockepoch
// violation (a span-shaped struct whose mutex is taken outside its Read
// and Write methods) and chdirs into it for the duration of the test.
func seedModule(t *testing.T) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module scratch\n\ngo 1.22\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	src := `package scratch

import "sync"

type guard struct {
	mu    sync.RWMutex
	epoch uint64
}

func (g *guard) peek() uint64 {
	g.mu.RLock()
	return g.epoch
}
`
	if err := os.WriteFile(filepath.Join(dir, "eng.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}

// capture runs fn with os.Stdout redirected to a buffer.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b bytes.Buffer
		_, _ = b.ReadFrom(r)
		done <- b.String()
	}()
	fn()
	os.Stdout = old
	_ = w.Close()
	return <-done
}

func TestGHAnnotationFormat(t *testing.T) {
	seedModule(t)
	var code int
	out := capture(t, func() { code = run([]string{"-gh", "./..."}) })
	if code != 1 {
		t.Fatalf("exit = %d, want 1\noutput: %s", code, out)
	}
	if !strings.Contains(out, "::error file=eng.go,line=") {
		t.Errorf("missing GitHub annotation prefix in output:\n%s", out)
	}
	if !strings.Contains(out, "title=optlint/lockepoch::") {
		t.Errorf("annotation does not name the analyzer:\n%s", out)
	}
}

func TestGHEscape(t *testing.T) {
	got := ghEscape("a%b\r\nc")
	if got != "a%25b%0D%0Ac" {
		t.Errorf("ghEscape = %q", got)
	}
}
