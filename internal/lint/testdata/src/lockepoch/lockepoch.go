// Package lockepoch exercises the lockepoch analyzer on the span shape:
// a span type (sync.RWMutex + integer epoch field, Read and Write
// methods) owns the lock; catalog/model mutations must sit inside a
// Write closure or a function reached only from one, spans must not
// nest, and nothing but Read and Write may name the mutex.
package lockepoch

import "sync"

type table struct{ rows []int }

func (t *table) Insert(r int) { t.rows = append(t.rows, r) }

// ObserveFeedback mirrors the adaptive statistics feedback path: it
// changes what future optimizations estimate — a mutation like any DDL.
func (t *table) ObserveFeedback(sel float64) bool { return sel > 0 }

// FoldInsert mirrors advancing collected statistics over appended rows:
// like ObserveFeedback it changes what the next optimization estimates.
func (t *table) FoldInsert(first int) {}

type planCache struct{ m map[string]int }

func (p *planCache) Clear() { p.m = map[string]int{} }

type catalog struct{ tables map[string]*table }

func (c *catalog) AddTable(name string, t *table) { c.tables[name] = t }
func (c *catalog) Drop(name string)               { delete(c.tables, name) }
func (c *catalog) Lookup(name string) *table      { return c.tables[name] }

// guard is the shape the analyzer keys on: an RWMutex plus an integer
// epoch field in one struct, entered through Read and Write.
type guard struct {
	mu         sync.RWMutex
	epoch      uint64
	invalidate func()
}

func (g *guard) Read(fn func(epoch uint64)) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	fn(g.epoch)
}

func (g *guard) Write(fn func()) {
	g.mu.Lock()
	defer func() {
		g.epoch++
		g.invalidate()
		g.mu.Unlock()
	}()
	fn()
}

// peek reads the epoch by taking the lock itself: a third function
// touching the mutex is a third place the discipline can break.
func (g *guard) peek() uint64 {
	g.mu.RLock()         // want "span mutex named outside Read/Write"
	defer g.mu.RUnlock() // want "span mutex named outside Read/Write"
	return g.epoch
}

type engine struct {
	span  *guard
	cat   *catalog
	cache *planCache
}

// createTable is the disciplined mutation path: one write span.
func (e *engine) createTable(name string, t *table) {
	e.span.Write(func() { e.cat.AddTable(name, t) })
}

// lookup is a clean read path.
func (e *engine) lookup(name string) (t *table) {
	e.span.Read(func(uint64) { t = e.cat.Lookup(name) })
	return t
}

// insertRows keeps its loop in helpers reached only from its write
// closure, one of them two calls deep: both are clean.
func (e *engine) insertRows(name string, rows []int) {
	e.span.Write(func() { e.applyInsert(name, rows) })
}

func (e *engine) applyInsert(name string, rows []int) {
	for _, r := range rows {
		e.insertOne(e.cat.Lookup(name), r)
	}
}

func (e *engine) insertOne(t *table, r int) {
	defer t.FoldInsert(len(t.rows))
	t.Insert(r)
}

// rebuild is handed to the write span by name, not as a literal.
func (e *engine) rebuild() { e.cat.Drop("scratch") }

func (e *engine) rebuildAll() { e.span.Write(e.rebuild) }

// lookupThenAbsorb enters two spans one after the other: clean.
func (e *engine) lookupThenAbsorb(name string, sel float64) {
	var t *table
	e.span.Read(func(uint64) { t = e.cat.Lookup(name) })
	if t != nil {
		e.span.Write(func() { t.ObserveFeedback(sel) })
	}
}

// insertUnlocked mutates a catalog table outside any span.
func (e *engine) insertUnlocked(name string, r int) {
	e.cat.Lookup(name).Insert(r) // want "catalog/model mutation Insert\(\) outside a write span"
	e.span.Write(func() {})
}

// insertInRead mutates under the shared lock only.
func (e *engine) insertInRead(name string, r int) {
	e.span.Read(func(uint64) {
		e.cat.Lookup(name).Insert(r) // want "catalog/model mutation Insert\(\) outside a write span"
	})
}

// foldAfterSpan inserts inside the write span but advances the
// statistics after it ended, where a reader may already be planning.
func (e *engine) foldAfterSpan(name string, r int) {
	t := e.cat.Lookup(name)
	first := len(t.rows)
	e.span.Write(func() { t.Insert(r) })
	t.FoldInsert(first) // want "catalog/model mutation FoldInsert\(\) outside a write span"
}

// dropShared is reached from a write closure and from outside one, so
// its mutation is not covered.
func (e *engine) dropShared(name string) {
	e.cat.Drop(name) // want "catalog/model mutation Drop\(\) outside a write span"
}

func (e *engine) dropBoth(name string) {
	e.span.Write(func() { e.dropShared(name) })
	e.dropShared(name)
}

// AbsorbFeedback is referenced only from a write closure here, but it
// is exported: any importer can call it with no span at all.
func (e *engine) AbsorbFeedback(name string, sel float64) {
	e.cat.Lookup(name).ObserveFeedback(sel) // want "catalog/model mutation ObserveFeedback\(\) outside a write span"
}

func (e *engine) absorb(name string, sel float64) {
	e.span.Write(func() { e.AbsorbFeedback(name, sel) })
}

// lookupThenUpgrade attempts the classic read-to-write upgrade, which
// self-deadlocks under sync.RWMutex.
func (e *engine) lookupThenUpgrade(name string) {
	e.span.Read(func(uint64) {
		if e.cat.Lookup(name) == nil {
			e.span.Write(func() { e.cat.AddTable(name, &table{}) }) // want "write span entered inside a read span \(self-deadlock\)"
		}
	})
}

// renameWithCheck re-enters the lock it already holds exclusively.
func (e *engine) renameWithCheck(oldName, newName string) {
	e.span.Write(func() {
		e.span.Read(func(uint64) {}) // want "read span entered inside a write span \(self-deadlock\)"
		e.cat.AddTable(newName, e.cat.Lookup(oldName))
		e.cat.Drop(oldName)
	})
}

// serveThenAbsorb calls a span-entering method from inside a read
// closure: the nesting is one call away, reported where the inner span
// is entered.
func (e *engine) serveThenAbsorb(name string) {
	e.span.Read(func(uint64) {
		if e.cat.Lookup(name) != nil {
			e.absorbNested(name)
		}
	})
}

func (e *engine) absorbNested(name string) {
	e.span.Write(func() { e.cat.Lookup(name).ObserveFeedback(1) }) // want "write span entered in absorbNested, which runs inside a span \(referenced at line \d+\): self-deadlock"
}

// db wraps an engine behind a field: spans are recognized through the
// selector chain, not just bare receivers.
type db struct{ eng *engine }

func (d *db) rename(oldName, newName string, t *table) {
	d.eng.span.Write(func() {
		d.eng.cat.Drop(oldName)
		d.eng.cat.AddTable(newName, t)
	})
}
