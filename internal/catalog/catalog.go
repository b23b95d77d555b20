// Package catalog names and describes relations. Its central abstraction
// is the paper's *virtual relation*: anything that can appear in a FROM
// list but is not a locally stored base table — a view (table
// expression), a remote relation homed at another site, or a relation
// produced by a user-defined function. The optimizer treats all of them
// uniformly as Filter Join candidates.
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"filterjoin/internal/epoch"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/stats"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// Kind classifies a catalog entry.
type Kind uint8

// The relation kinds.
const (
	KindBase   Kind = iota // locally stored table
	KindView               // defined by a query block
	KindRemote             // stored table homed at a remote site
	KindFunc               // produced by a user-defined function
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindBase:
		return "base"
	case KindView:
		return "view"
	case KindRemote:
		return "remote"
	case KindFunc:
		return "func"
	default:
		return "?"
	}
}

// FuncBody is the implementation of a user-defined relation: invoked with
// one binding of the argument columns, it returns the matching rows
// (complete rows of the relation's schema, argument columns included).
// A body must not call back into the DB serving it: it runs inside the
// caller's read span, and a nested read deadlocks behind a queued writer.
type FuncBody func(args value.Row) ([]value.Row, error)

// Entry describes one named relation.
type Entry struct {
	Name string
	Kind Kind

	// Base and Remote relations.
	Table *storage.Table
	Site  int // 0 = local; >0 identifies the remote site (Remote only)

	// View relations.
	ViewDef *query.Block

	// Func relations.
	Fn        FuncBody
	FnSchema  *schema.Schema // full output schema, argument columns included
	ArgCols   []int          // schema positions that are input arguments
	FnStats   *stats.RelStats
	FnPerCall float64 // average rows returned per invocation (estimate)

	// mu guards the lazily computed caches below. An optimizer and its
	// forks share one catalog, so concurrent sessions planning on forks
	// may race to fill them; both computations are deterministic, so
	// first-write-wins.
	mu         sync.Mutex
	tableStats *stats.RelStats
	viewSchema *schema.Schema

	// foldBudget is how many more inserted rows FoldInsert may fold into
	// tableStats before the next full Collect; collects counts those.
	foldBudget int
	collects   int

	// fb accumulates runtime cardinality feedback for stored relations
	// (DESIGN.md §12); fbStats caches the feedback-corrected statistics
	// per feedback version. Both are derived state: FoldInsert resets
	// them alongside the collected statistics.
	fb        *stats.Feedback
	fbStats   *stats.RelStats
	fbVersion uint64

	guard *epoch.Lock // the registering catalog's; nil guards nothing
}

// Virtual reports whether the relation is a paper-sense virtual relation.
func (e *Entry) Virtual() bool { return e.Kind != KindBase }

// Schema returns the relation's schema.
func (e *Entry) Schema(c *Catalog) (*schema.Schema, error) {
	switch e.Kind {
	case KindBase, KindRemote:
		return e.Table.Schema(), nil
	case KindView:
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.viewSchema == nil {
			s, err := e.ViewDef.OutputSchema(c, e.Name)
			if err != nil {
				return nil, err
			}
			e.viewSchema = s
		}
		return e.viewSchema, nil
	case KindFunc:
		return e.FnSchema, nil
	}
	return nil, fmt.Errorf("catalog: unknown kind for %q", e.Name)
}

// Stats returns collected statistics for stored (base/remote) relations,
// collecting them lazily. Views and functions have no stored stats here;
// the optimizer derives them (views) or uses FnStats (functions).
func (e *Entry) Stats() *stats.RelStats {
	switch e.Kind {
	case KindBase, KindRemote:
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.tableStats == nil {
			e.tableStats = stats.Collect(e.Table)
			e.foldBudget = e.Table.NumRows() / stats.DefaultHistogramBuckets
			e.collects++
		}
		// Runtime feedback corrects the collected statistics copy-on-write:
		// the collected base (whose histograms RelStats.Clone shares by
		// pointer) is never touched, and the corrected version is cached
		// until the next observation.
		if e.fb != nil && !e.fb.Empty() {
			if v := e.fb.Version(); e.fbStats == nil || e.fbVersion != v {
				e.fbStats = e.fb.Apply(e.tableStats)
				e.fbVersion = v
			}
			return e.fbStats
		}
		return e.tableStats
	case KindFunc:
		return e.FnStats
	}
	return nil
}

func (e *Entry) dropStats() {
	e.tableStats = nil
	e.fbStats = nil
	if e.fb != nil {
		e.fb.Reset()
	}
}

// FoldInsert tells the entry that rows [first:NumRows()) were appended
// to its table. Collected statistics are advanced over exactly those
// rows (stats.ApplyInsert) rather than dropped, so the next reader does
// not pay a full Collect for a one-row INSERT. They are dropped when
// none were collected yet, when the fold does not model the change, or
// once more than one histogram bucket's worth of rows has been folded
// in since the last Collect: the fold keeps every count true but lets
// equi-height balance drift, and one bucket is the resolution the
// histogram has anyway. Feedback — observations made against the old
// data must not correct statistics of the new — is reset either way.
func (e *Entry) FoldInsert(first int) {
	e.guard.MustWrite()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.foldInsert(first)
}

func (e *Entry) foldInsert(first int) {
	old := e.tableStats
	e.dropStats()
	if old == nil {
		return
	}
	if e.foldBudget -= e.Table.NumRows() - first; e.foldBudget < 0 {
		return
	}
	e.tableStats = stats.ApplyInsert(old, e.Table, first)
}

// FoldAppended is FoldInsert for rows appended behind the entry's back
// (a bulk load through the storage API): it folds from the row count
// the collected statistics describe. An entry whose table did not grow,
// or whose statistics were never collected, is left exactly as it is.
func (e *Entry) FoldAppended() {
	e.guard.MustWrite()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tableStats == nil {
		return
	}
	if first := int(e.tableStats.Rows); e.Table.NumRows() > first {
		e.foldInsert(first)
	}
}

// Collects returns how many times the entry ran a full stats.Collect.
func (e *Entry) Collects() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.collects
}

// Feedback returns the relation's runtime-feedback store, creating it on
// first use. Entries are shared between an optimizer and its forks, so
// the store — like the stats caches — is per-relation, not per-catalog.
func (e *Entry) Feedback() *stats.Feedback {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fb == nil {
		e.fb = stats.NewFeedback()
	}
	return e.fb
}

// ObserveFeedback folds one measured selectivity into the relation's
// feedback store and reports whether the store changed. A true return
// means statistics-derived artifacts (cached plans, memoized view
// leaves) are stale, so a guarded entry observes only inside a write
// span, whose exit bumps the epoch, and panics outside one.
func (e *Entry) ObserveFeedback(o stats.PredObservation) bool {
	e.guard.MustWrite()
	return e.Feedback().Observe(o)
}

// Catalog is a name → relation map. Planning only reads it (relations
// an optimization needs beyond it arrive by value, see TableEntry), so
// it is written only inside the engine's write spans: a guarded catalog
// and its entries panic when mutated outside one.
type Catalog struct {
	entries map[string]*Entry
	guard   *epoch.Lock
}

// New creates an empty, unguarded catalog.
func New() *Catalog {
	return &Catalog{entries: map[string]*Entry{}}
}

// Guard makes every later mutation of the catalog, and of the entries
// it registers, call l.MustWrite first.
func (c *Catalog) Guard(l *epoch.Lock) { c.guard = l }

// Clone returns an unguarded catalog holding the same entries: a
// private namespace to add transient relations to.
func (c *Catalog) Clone() *Catalog {
	out := New()
	for name, e := range c.entries {
		out.entries[name] = e
	}
	return out
}

func (c *Catalog) add(e *Entry) *Entry {
	c.guard.MustWrite()
	e.guard = c.guard
	c.entries[e.Name] = e
	return e
}

// TableEntry describes t as a local base table without registering it
// anywhere: the relation an optimization is handed by value (a Filter
// Join's filter set, opt.OptimizeBlockGiven). A non-nil st stands in for
// collected statistics — the parametric coster plants a synthetic |F|
// on an empty table; nil collects from t's rows on first use.
func TableEntry(t *storage.Table, st *stats.RelStats) *Entry {
	return &Entry{Name: t.Name(), Kind: KindBase, Table: t, tableStats: st}
}

// AddTable registers a local base table.
func (c *Catalog) AddTable(t *storage.Table) *Entry {
	return c.add(TableEntry(t, nil))
}

// AddRemoteTable registers a table homed at the given site (>0).
func (c *Catalog) AddRemoteTable(t *storage.Table, site int) *Entry {
	return c.add(&Entry{Name: t.Name(), Kind: KindRemote, Table: t, Site: site})
}

// AddView registers a view defined by a query block.
func (c *Catalog) AddView(name string, def *query.Block) *Entry {
	return c.add(&Entry{Name: name, Kind: KindView, ViewDef: def})
}

// AddRemoteView registers a view whose body executes at a remote site:
// the virtual-relation case the paper highlights for heterogeneous
// databases. Site must be > 0.
func (c *Catalog) AddRemoteView(name string, def *query.Block, site int) *Entry {
	return c.add(&Entry{Name: name, Kind: KindView, ViewDef: def, Site: site})
}

// AddFunc registers a user-defined relation. argCols are the schema
// positions that act as input arguments; stats describe the relation's
// assumed value distribution for costing; perCall is the average number
// of rows one invocation returns.
func (c *Catalog) AddFunc(name string, sch *schema.Schema, argCols []int, fn FuncBody, st *stats.RelStats, perCall float64) *Entry {
	return c.add(&Entry{
		Name:      name,
		Kind:      KindFunc,
		Fn:        fn,
		FnSchema:  sch,
		ArgCols:   append([]int(nil), argCols...),
		FnStats:   st,
		FnPerCall: perCall,
	})
}

// Get looks a relation up by name.
func (c *Catalog) Get(name string) (*Entry, error) {
	e, ok := c.entries[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown relation %q", name)
	}
	return e, nil
}

// Has reports whether name is registered.
func (c *Catalog) Has(name string) bool {
	_, ok := c.entries[name]
	return ok
}

// Names lists registered relation names, sorted.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.entries))
	for n := range c.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RelationSchema implements query.SchemaResolver.
func (c *Catalog) RelationSchema(name string) (*schema.Schema, error) {
	e, err := c.Get(name)
	if err != nil {
		return nil, err
	}
	return e.Schema(c)
}
