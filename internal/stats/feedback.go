package stats

import (
	"sort"
	"sync"

	"filterjoin/internal/expr"
)

// PredKey returns the canonical fingerprint of a relation-local
// predicate, used to key observed selectivities fed back from
// instrumented executions. Two structurally identical predicates render
// identically (bound parameters render as the literal they were planned
// with), so a feedback entry recorded from one run is found by the next
// plan of the same predicate. Nil predicates key to "".
func PredKey(e expr.Expr) string {
	if e == nil {
		return ""
	}
	return e.String()
}

// PredObservation is one measured selectivity for one predicate shape,
// harvested from the analyze shim after an instrumented run.
type PredObservation struct {
	// Key is PredKey of the relation-local predicate the observation is
	// about.
	Key string
	// Sel is the observed selectivity: actual output rows of the filtered
	// access divided by the relation's raw cardinality.
	Sel float64
	// Col/Op/X describe a histogram-refinable observation: when the
	// predicate is a single column-vs-literal comparison, Col is the
	// column position, Op the comparison, and X the literal, so Apply can
	// refine that column's histogram (improving estimates for
	// neighboring predicates too). Col < 0 means not refinable.
	Col int
	Op  expr.CmpOp
	X   float64
}

// Feedback accumulates runtime cardinality observations for one stored
// relation. It lives on the relation's catalog entry, guarded by its own
// mutex (observations arrive under the engine's write lock, applications
// happen under the read lock). Apply is strictly copy-on-write: base
// statistics and their histograms — which Clone shares by pointer — are
// never mutated; refined stats are fresh objects.
type Feedback struct {
	mu      sync.Mutex
	version uint64
	preds   map[string]PredObservation
}

// NewFeedback returns an empty feedback store.
func NewFeedback() *Feedback { return &Feedback{} }

// Observe folds one observation into the store and reports whether the
// store changed (a changed store means plans built from the old
// statistics are stale). Re-observing an unchanged selectivity (within
// 10% relative) is not a change, so a converged query stream stops
// invalidating plans.
func (f *Feedback) Observe(o PredObservation) bool {
	if o.Key == "" {
		return false
	}
	o.Sel = clamp01(o.Sel)
	f.mu.Lock()
	defer f.mu.Unlock()
	if cur, ok := f.preds[o.Key]; ok && relDiff(o.Sel, cur.Sel) < 0.1 {
		return false
	}
	if f.preds == nil {
		f.preds = map[string]PredObservation{}
	}
	f.preds[o.Key] = o
	f.version++
	return true
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m <= 0 {
		return 0
	}
	return d / m
}

// Version counts store changes; Apply results are cacheable per version.
func (f *Feedback) Version() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.version
}

// Empty reports whether no observation is recorded.
func (f *Feedback) Empty() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.preds) == 0
}

// Reset drops every observation (the relation's data changed; stale
// observations must not correct fresh statistics).
func (f *Feedback) Reset() {
	f.mu.Lock()
	f.preds = nil
	f.version++
	f.mu.Unlock()
}

// Apply returns base corrected by the recorded observations: a fresh
// RelStats whose SelFix carries the observed selectivities and whose
// refinable columns carry freshly built histograms. base (and anything
// sharing its histograms via Clone) is never mutated. With no
// observations, base itself is returned.
func (f *Feedback) Apply(base *RelStats) *RelStats {
	if base == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.preds) == 0 {
		return base
	}
	out := base.Clone()
	fix := make(map[string]float64, len(base.SelFix)+len(f.preds))
	for k, v := range base.SelFix {
		fix[k] = v
	}
	keys := make([]string, 0, len(f.preds))
	for k, o := range f.preds {
		fix[k] = o.Sel
		keys = append(keys, k)
	}
	out.SelFix = fix
	// Histogram refinements on one column do not commute, so they are
	// applied in key order: the result is a function of the store's
	// contents, not of map iteration order.
	sort.Strings(keys)
	for _, k := range keys {
		o := f.preds[k]
		if o.Col < 0 || o.Col >= len(out.Cols) {
			continue
		}
		if h := out.Cols[o.Col].Hist; h != nil {
			if nh := h.RefineCmp(o.Op, o.X, o.Sel); nh != nil {
				out.Cols[o.Col].Hist = nh
			}
		}
	}
	return out
}
