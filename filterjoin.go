// Package filterjoin is a from-scratch reproduction of "Cost-Based
// Optimization for Magic: Algebra and Implementation" (SIGMOD 1996; TR
// #1273 "Filter Joins: Cost-Based Optimization for Magic Sets"): a small
// relational engine whose System R style optimizer treats magic-sets
// rewriting as a join method — the Filter Join — with a full Table 1
// cost formula, instead of as a heuristic query rewrite.
//
// The engine supports local tables, views (table expressions), remote
// relations and remote views in a simulated multi-site configuration,
// and user-defined (function-backed) relations: all the "virtual
// relation" flavors of the paper, all uniformly eligible for Filter
// Joins.
//
// Quick start:
//
//	db := filterjoin.Open(filterjoin.Config{})
//	_ = db.ExecScript(`
//	    CREATE TABLE Emp (eid int, did int, sal float, age int);
//	    CREATE VIEW DepAvgSal AS
//	      (SELECT E.did, AVG(E.sal) AS avgsal FROM Emp E GROUP BY E.did);
//	`)
//	res, _ := db.Query(`SELECT E.did FROM Emp E, DepAvgSal V
//	                    WHERE E.did = V.did AND E.sal > V.avgsal`)
//	fmt.Println(res.Rows, res.Cost)
//
// Serving layer: a DB is an Engine — the shared, epoch-versioned core
// owning the catalog, the optimizer, and a normalized-query plan cache —
// plus the default Session it embeds. Create more sessions with
// NewSession for concurrent serving, and use Prepare for statements
// executed repeatedly with different bind arguments.
package filterjoin

import (
	"context"
	"fmt"
	"io"

	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/dist"
	"filterjoin/internal/exec"
	"filterjoin/internal/opt"
	"filterjoin/internal/plan"
	"filterjoin/internal/plancache"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/sql"
	"filterjoin/internal/stats"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// Config configures a DB.
type Config struct {
	// Model supplies the cost weights; zero value means DefaultModel.
	Model *cost.Model
	// DisableFilterJoin turns the paper's join method off entirely
	// (the baseline optimizer).
	DisableFilterJoin bool
	// Deprecated: no effect. Every query runs on one thread; the field
	// remains only because the frozen bench/ sources set it.
	DegreeOfParallelism int
	// DisablePlanCache turns the serving layer's normalized-query plan
	// cache off: every SELECT re-optimizes from scratch and EXPLAIN
	// reports cache=bypass.
	DisablePlanCache bool
	// AdaptiveFeedback enables post-run statistics feedback (DESIGN.md
	// §12): after every instrumented SELECT, per-operator actual
	// cardinalities that miss their estimates by a factor of 2 are folded
	// back into the scanned relations' statistics (observed predicate
	// selectivities plus histogram refinement, copy-on-write), and the
	// catalog epoch is bumped so cached plans built from the stale
	// statistics re-optimize. Off by default: the engine then behaves
	// exactly as a static System R optimizer.
	AdaptiveFeedback bool
}

// DB is an in-memory database instance: an Engine (catalog, optimizer,
// plan cache) plus the default Session it embeds — Exec, Query, Prepare,
// Explain and the rest of the statement API are that session's methods
// — and the programmatic and bulk-loading entry points below.
//
// Queries from any number of goroutines run concurrently, SQL and
// programmatic (QueryBlock, PlanBlock, Plan, RunPlan) alike;
// catalog-mutating calls (DDL, INSERT, bulk loads, registrations)
// serialize under the engine's epoch lock and invalidate every cached
// plan.
type DB struct {
	*Session
}

// Open creates an empty database.
func Open(cfg Config) *DB { return &DB{newEngine(cfg).NewSession()} }

// NewSession returns a new lightweight session on the DB's engine.
func (db *DB) NewSession() *Session { return db.eng.NewSession() }

// Catalog exposes the relation catalog. It is read-only to callers:
// mutate it through the DB's methods, whose write spans bump the epoch.
// Its mutators panic outside a write span.
func (db *DB) Catalog() *catalog.Catalog { return db.eng.cat }

// Optimizer exposes the prototype optimizer (metrics, method toggles,
// overrides, tracer). Every query plans on a private fork of it; the
// fork's search counters are merged back into its Metrics.
func (db *DB) Optimizer() *opt.Optimizer { return db.eng.proto }

// FilterJoin exposes the registered Filter Join method; nil when the
// method is disabled.
func (db *DB) FilterJoin() *core.Method { return db.eng.fj }

// Model returns the cost model in effect.
func (db *DB) Model() cost.Model { return db.eng.model }

// CacheStats returns the plan cache's cumulative counters (hits, misses,
// bypasses, evictions, clears).
func (db *DB) CacheStats() plancache.Stats { return db.eng.CacheStats() }

// Result is the outcome of running one query.
type Result struct {
	Columns []string
	Rows    []value.Row
	Cost    cost.Counter // measured execution cost counters
	Plan    *plan.Node   // the plan that produced the rows

	// CacheState reports how the serving layer obtained the plan:
	// "hit" (served from the plan cache), "miss" (optimized and cached),
	// "bypass" (cache disabled, programmatic plan, or otherwise not
	// cacheable), or "" for statements the cache does not apply to
	// (DDL, the UNION envelope).
	CacheState string

	// DegradedFrom reports graceful degradation: when the primary plan
	// aborted mid-query with a dist.SiteError (transport retries
	// exhausted) and a fault-free fallback had been retained, the query
	// was re-run on the fallback. Plan then points at the fallback that
	// produced the rows and DegradedFrom at the abandoned primary; nil
	// on a normal run.
	DegradedFrom *plan.Node
	// SiteErr is the typed failure that triggered the degradation
	// (nil on a normal run). The measured Cost includes the aborted
	// primary's work plus one Fallbacks unit.
	SiteErr *dist.SiteError

	ops []*exec.OpStats // per-operator runtime profile, first-Open order
}

// Stats returns the per-operator runtime statistics recorded while the
// result was produced (Open/NextBatch/Close counts, rows, wall time, and the
// per-operator cost.Counter delta), in first-Open order. Each entry's
// Tag is the *plan.Node it executed, which may belong to a sub-plan the
// Filter Join planned at run time rather than to Result.Plan.
func (r *Result) Stats() []*exec.OpStats { return r.ops }

// TotalCost weighs the measured counters under the DB's cost model.
func (db *DB) TotalCost(r *Result) float64 { return db.eng.model.Total(r.Cost) }

// ExecParsed runs an already-parsed SQL statement (tools that parse a
// script once and dispatch statements themselves use this).
func (db *DB) ExecParsed(st sql.Statement) (*Result, error) {
	return db.eng.execStmt(context.Background(), st, nil)
}

// InvalidateCaches drops memoized plans and costers and folds rows
// appended through the storage API directly into the collected
// statistics of the tables that grew; call after such a bulk load.
func (db *DB) InvalidateCaches() { db.eng.InvalidateCaches() }

// QueryBlock optimizes and executes a programmatically built block
// (bypassing the plan cache; there is no statement text to key on).
func (db *DB) QueryBlock(b *query.Block) (*Result, error) {
	_, _, res, err := db.eng.serve(context.Background(), request{block: b, run: true})
	return res, err
}

// PlanBlock optimizes a block without executing it.
func (db *DB) PlanBlock(b *query.Block) (*plan.Node, error) {
	p, _, _, err := db.eng.serve(context.Background(), request{block: b})
	return p, err
}

// Plan parses and optimizes a SELECT without executing it (the plan
// cache is not consulted).
func (db *DB) Plan(text string) (*plan.Node, error) {
	sel, err := parseSelect(text)
	if err != nil {
		return nil, err
	}
	p, _, _, err := db.eng.serve(context.Background(), request{sel: sel})
	return p, err
}

// RunPlan executes an already-optimized plan and collects its rows and
// measured cost counters.
func (db *DB) RunPlan(p *plan.Node) (*Result, error) {
	return db.RunPlanContext(context.Background(), p)
}

// RunPlanContext is RunPlan under a caller context (see ExecContext).
func (db *DB) RunPlanContext(stdctx context.Context, p *plan.Node) (*Result, error) {
	_, _, res, err := db.eng.serve(stdctx, request{plan: p, run: true})
	return res, err
}

// LoadCSV bulk-loads CSV data into a stored table (an optional header
// row matching the column names is skipped). Returns rows loaded; a
// partial load (n rows, then a parse error) keeps its n rows.
func (db *DB) LoadCSV(table string, r io.Reader) (n int, err error) {
	e := db.eng
	e.span.Write(func() {
		var ent *catalog.Entry
		if ent, err = e.cat.Get(table); err != nil {
			return
		}
		if ent.Table == nil {
			err = fmt.Errorf("filterjoin: cannot load into non-stored relation %q", table)
			return
		}
		first := ent.Table.NumRows()
		if n, err = ent.Table.LoadCSV(r); n > 0 {
			ent.FoldInsert(first)
		}
	})
	return n, err
}

// RegisterTable adds a pre-built storage table (bulk loading path).
func (db *DB) RegisterTable(t *storage.Table) {
	db.eng.span.Write(func() { db.eng.cat.AddTable(t) })
}

// RegisterRemoteTable adds a table homed at a (simulated) remote site.
func (db *DB) RegisterRemoteTable(t *storage.Table, site int) {
	db.eng.span.Write(func() { db.eng.cat.AddRemoteTable(t, site) })
}

// RegisterRemoteView defines a view whose body executes at a remote site.
// The definition text must be a SELECT statement.
func (db *DB) RegisterRemoteView(name, selectText string, site int) error {
	sel, err := parseSelect(selectText)
	if err != nil {
		return err
	}
	e := db.eng
	e.span.Write(func() {
		var b *query.Block
		if b, err = sql.BindSelect(e.cat, sel); err == nil {
			e.cat.AddRemoteView(name, b, site)
		}
	})
	return err
}

// RegisterFunc adds a user-defined (function-backed) relation. argCols
// are the schema positions acting as arguments; st describes the assumed
// virtual extension for costing; perCall is the average rows returned
// per invocation (0 lets the optimizer derive it from st).
func (db *DB) RegisterFunc(name string, sch *schema.Schema, argCols []int, fn catalog.FuncBody, st *stats.RelStats, perCall float64) {
	db.eng.span.Write(func() { db.eng.cat.AddFunc(name, sch, argCols, fn, st, perCall) })
}
