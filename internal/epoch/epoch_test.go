package epoch

import "testing"

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
