package epoch

import (
	"testing"
	"time"
)

// TestWriteBumpsOnEveryExit: the epoch advances and the hook runs once
// per write span — also when the closure panics — and the lock is free
// again afterwards.
func TestWriteBumpsOnEveryExit(t *testing.T) {
	calls := 0
	l := New(func() { calls++ })
	seen := func() (e uint64) {
		l.Read(func(epoch uint64) { e = epoch })
		return e
	}
	if seen() != 0 {
		t.Fatalf("fresh lock at epoch %d, want 0", seen())
	}
	l.Write(func() {})
	func() {
		defer func() { _ = recover() }()
		l.Write(func() { panic("mid-mutation") })
	}()
	if got := seen(); got != 2 || calls != 2 {
		t.Fatalf("after two write spans (one panicking): epoch %d, invalidations %d, want 2 and 2", got, calls)
	}
}

// TestReadReleasesOnPanic: a read span whose closure panics leaves the
// epoch where it was, runs no invalidation, and releases the shared
// lock, so the next write span completes.
func TestReadReleasesOnPanic(t *testing.T) {
	calls := 0
	l := New(func() { calls++ })
	func() {
		defer func() { _ = recover() }()
		l.Read(func(uint64) { panic("mid-read") })
	}()
	var e uint64
	l.Read(func(epoch uint64) { e = epoch })
	if e != 0 || calls != 0 {
		t.Fatalf("after a panicking read span: epoch %d, invalidations %d, want 0 and 0", e, calls)
	}
	done := make(chan struct{})
	go func() {
		l.Write(func() {})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("write span still blocked 5s after a panicking read span: the shared lock was not released")
	}
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// TestMustWrite: MustWrite passes only while a Write closure runs — not
// outside any span, not inside a Read span, and not after a Write whose
// closure panicked — and a nil Lock guards nothing.
func TestMustWrite(t *testing.T) {
	l := New(func() {})
	if !panics(l.MustWrite) {
		t.Error("MustWrite outside any span did not panic")
	}
	l.Read(func(uint64) {
		if !panics(l.MustWrite) {
			t.Error("MustWrite inside a read span did not panic")
		}
	})
	l.Write(func() {
		if panics(l.MustWrite) {
			t.Error("MustWrite inside a write span panicked")
		}
	})
	panics(func() { l.Write(func() { panic("mid-mutation") }) })
	if !panics(l.MustWrite) {
		t.Error("MustWrite after a panicking write span did not panic: the flag stayed set")
	}
	if panics((*Lock)(nil).MustWrite) {
		t.Error("MustWrite on a nil Lock panicked")
	}
}
