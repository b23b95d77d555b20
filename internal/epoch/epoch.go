// Package epoch owns the serving layer's one lock. The engine is
// immutable between catalog epochs; Lock makes the two ways of touching
// it — a read span and a write span — the only ways, and makes the
// write span's epoch bump and invalidation something a mutation cannot
// skip: the mutex and the counter are unexported, so no caller can hold
// one without going through Read or Write (DESIGN.md §10). MustWrite
// lets the guarded state check at run time that it is mutated only
// inside a write span.
package epoch

import (
	"sync"
	"sync/atomic"
)

// Lock is an RWMutex, the epoch it guards, and the invalidation every
// mutation owes.
type Lock struct {
	mu         sync.RWMutex
	epoch      uint64
	invalidate func()
	writing    atomic.Bool // a Write closure is running
}

// New returns a Lock at epoch 0 whose write spans end by calling
// invalidate (under the exclusive lock, after the epoch bump).
func New(invalidate func()) *Lock { return &Lock{invalidate: invalidate} }

// Read runs fn under the shared lock and hands it the current epoch,
// which cannot move until fn returns. fn must not enter another span:
// a nested Read deadlocks behind a queued writer, a nested Write always.
func (l *Lock) Read(fn func(epoch uint64)) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	fn(l.epoch)
}

// Write runs fn under the exclusive lock. On every exit — fn returned
// normally, recorded an error, or panicked — the epoch advances and
// invalidate runs before the lock is released, so nothing derived from
// the pre-mutation state survives a mutation, whole or partial.
func (l *Lock) Write(fn func()) {
	l.mu.Lock()
	l.writing.Store(true)
	defer func() {
		l.epoch++
		l.invalidate()
		l.writing.Store(false)
		l.mu.Unlock()
	}()
	fn()
}

// MustWrite panics unless a write span is running: the guarded state's
// mutators call it first. A nil *Lock guards nothing.
func (l *Lock) MustWrite() {
	if l != nil && !l.writing.Load() {
		panic("epoch: mutation outside a write span")
	}
}
