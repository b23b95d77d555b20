// Package plancache implements the serving layer's normalized-query plan
// cache. Entries are keyed on the canonical statement text, the catalog
// epoch it was planned under, the selectivity classes of its bind
// parameters, and a fingerprint of the optimizer configuration. The
// selectivity-class component reuses the idea behind the parametric view
// coster's sample grid (paper Fig 5): two parameter values falling in the
// same class land on the same point of the cost grid, so the plan chosen
// for one is the plan the optimizer would choose for the other. A value
// in a different class misses the cache and re-optimizes honestly.
//
// The cache is a plain mutex-guarded LRU: lookups are cheap relative to
// optimization, and a single lock keeps eviction and the hit/miss
// counters exact.
package plancache

import (
	"container/list"
	"sync"

	"filterjoin/internal/plan"
)

// DefaultSize is the entry cap used when the caller does not choose one.
const DefaultSize = 256

// Key identifies one cached plan. All components are strings or scalars
// so the struct is comparable and usable as a map key directly.
type Key struct {
	// Text is the canonical (normalized) statement text with `$n`
	// placeholders standing in for parameterized literals.
	Text string
	// Epoch is the catalog epoch the plan was built under; any catalog
	// mutation bumps the engine epoch, orphaning prior entries.
	Epoch uint64
	// Classes encodes the selectivity class of each bind parameter
	// (e.g. "2,0,-1"). Class -1 means the parameter's selectivity could
	// not be classified (one class for all values); -2 means the value
	// cannot affect plan shape.
	Classes string
	// Config fingerprints the optimizer knobs that change plan choice
	// (disabled methods, order properties, batch size).
	Config string
}

// Entry is one cached plan with the metadata EXPLAIN reports.
type Entry struct {
	Plan *plan.Node
	Cost float64
	// Hits counts how many times this entry has been served.
	Hits int64
}

// Stats are the cache's cumulative counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Bypasses  int64
	Evictions int64
	Clears    int64
}

// HitRate returns Hits / (Hits + Misses), or 0 when no lookups happened.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a fixed-capacity LRU plan cache safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[Key]*list.Element
	lru     *list.List // front = most recently used
	stats   Stats
}

type lruItem struct {
	key   Key
	entry *Entry
}

// New creates a cache holding at most size entries (DefaultSize if
// size <= 0).
func New(size int) *Cache {
	if size <= 0 {
		size = DefaultSize
	}
	return &Cache{cap: size, entries: make(map[Key]*list.Element), lru: list.New()}
}

// Get looks up a plan, counting a hit or a miss and refreshing recency.
func (c *Cache) Get(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.lru.MoveToFront(el)
	it := el.Value.(*lruItem)
	it.entry.Hits++
	return it.entry, true
}

// Put inserts (or replaces) the plan for k, evicting the least recently
// used entry when over capacity.
func (c *Cache) Put(k Key, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*lruItem).entry = e
		c.lru.MoveToFront(el)
		return
	}
	c.entries[k] = c.lru.PushFront(&lruItem{key: k, entry: e})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruItem).key)
		c.stats.Evictions++
	}
}

// Bypass records a statement that skipped the cache (programmatic plans,
// unbound prepare-time EXPLAIN, cache disabled).
func (c *Cache) Bypass() {
	c.mu.Lock()
	c.stats.Bypasses++
	c.mu.Unlock()
}

// Clear drops every entry (catalog epoch change). Counters other than
// Clears are preserved: they describe lifetime traffic, not contents.
func (c *Cache) Clear() {
	c.mu.Lock()
	c.entries = make(map[Key]*list.Element)
	c.lru.Init()
	c.stats.Clears++
	c.mu.Unlock()
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the cumulative counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Classify buckets a selectivity into the index of the first grid point
// at or above it — the equivalence class of the parametric coster's
// sample grid. Selectivities above the last point share the final class.
func Classify(sel float64, grid []float64) int {
	for i, g := range grid {
		if sel <= g {
			return i
		}
	}
	return len(grid) - 1
}
