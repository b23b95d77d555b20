package filterjoin

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/dist"
	"filterjoin/internal/epoch"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
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

// Engine is the serving layer's shared core: the catalog, the cost model,
// the prototype optimizer, the Filter Join method, and the normalized-
// query plan cache. An Engine is immutable between catalog epochs and
// has exactly two ways in (DESIGN.md §10): every query — served SQL,
// EXPLAIN, the programmatic plan/block entry points — is one read span
// (serve), any number of which run concurrently; every mutation — DDL,
// INSERT, bulk load, registration, statistics feedback — is a write
// span, which on every exit bumps the epoch and drops every derived
// artifact (invalidate).
//
// Nothing here optimizes on the prototype optimizer: planFor plans on a
// private fork (OptimizeBlock mutates search state) and folds the
// fork's counters back, so Optimizer().Metrics still accounts all
// planning work. Execution-time deferred planning (the Filter Join's
// restricted-view optimization) accounts to the plan's captured
// optimizer instead: a cache hit provably does not move the prototype's
// PlansConsidered, which is how tests distinguish a hit from a silent
// re-optimization.
type Engine struct {
	// span guards every field below. Its epoch counts catalog mutations
	// and is a component of every plan cache key, so entries from before
	// a mutation can never be served after it.
	span  *epoch.Lock
	cat   *catalog.Catalog
	proto *opt.Optimizer
	fj    *core.Method
	model cost.Model

	// chaos, when non-nil, replaces the free instant network with the
	// seeded fault-injecting transport under the retry policy (DESIGN.md
	// §8). Only tests set it.
	chaos *dist.ChaosConfig
	retry dist.RetryPolicy

	cache    *plancache.Cache
	cacheOff bool

	// adaptFeedback turns statistics feedback (DESIGN.md §12) on. Off by
	// default, in which case no feedback path runs: behavior, counters,
	// and goldens are bit-identical to the static engine.
	adaptFeedback bool

	// scratch is the executor scratch every execution draws from and
	// gives back to (exec.Store); invalidate bounds it.
	scratch *exec.Store
}

// scratchShare is the fraction of what its stored rows take that the
// engine's executor scratch may keep: what the store pins stays a small
// part of what the engine holds anyway.
const scratchShare = 16

func newEngine(cfg Config) *Engine {
	model := cost.DefaultModel()
	if cfg.Model != nil {
		model = *cfg.Model
	}
	cat := catalog.New()
	o := opt.New(cat, model)
	o.BatchSize = exec.DefaultBatchSize
	e := &Engine{
		cat:           cat,
		proto:         o,
		model:         model,
		cache:         plancache.New(0),
		cacheOff:      cfg.DisablePlanCache,
		adaptFeedback: cfg.AdaptiveFeedback,
		scratch:       exec.NewStore(),
	}
	e.span = epoch.New(e.invalidate)
	cat.Guard(e.span)
	if !cfg.DisableFilterJoin {
		e.fj = core.NewMethod(core.Options{})
		o.Register(e.fj)
	}
	return e
}

// NewSession returns a lightweight handle for running statements against
// the engine. Sessions are cheap; create one per goroutine or share one
// freely — all synchronization lives in the engine.
func (e *Engine) NewSession() *Session { return &Session{eng: e} }

// CacheStats returns the plan cache's cumulative hit/miss/bypass/evict
// counters.
func (e *Engine) CacheStats() plancache.Stats { return e.cache.Stats() }

// Epoch returns the current catalog epoch (bumped by every write span).
func (e *Engine) Epoch() (cur uint64) {
	e.span.Read(func(epoch uint64) { cur = epoch })
	return cur
}

// invalidate drops every artifact derived from catalog contents: cached
// plans, memoized view leaves, and the Filter Join's parametric costers.
// It also bounds the executor scratch store by what the stored rows
// take: 1/16 of Σ rows × (24 B of row header + columns × 32 B). It is
// the write span's exit hook and runs nowhere else.
func (e *Engine) invalidate() {
	e.cache.Clear()
	e.proto.InvalidateCaches()
	if e.fj != nil {
		e.fj.ResetCosterCache()
	}
	var stored int64
	for _, name := range e.cat.Names() {
		if ent, err := e.cat.Get(name); err == nil && ent.Table != nil {
			stored += int64(ent.Table.NumRows()) * int64(24+32*ent.Table.Schema().Len())
		}
	}
	e.scratch.SetBudget(stored / scratchShare)
}

// InvalidateCaches drops cached plans and costers and brings collected
// statistics up to date with rows appended through the storage API
// directly (call it after such a bulk load). Statistics of a table that
// did not grow are left untouched.
func (e *Engine) InvalidateCaches() {
	e.span.Write(func() {
		for _, name := range e.cat.Names() {
			if ent, err := e.cat.Get(name); err == nil {
				ent.FoldAppended()
			}
		}
	})
}

// execStmt dispatches one parsed statement: SELECT-family statements
// are read spans, everything else is one write span.
func (e *Engine) execStmt(stdctx context.Context, st sql.Statement, args []value.Value) (*Result, error) {
	switch s := st.(type) {
	case *sql.SelectStmt:
		return e.serveSelect(stdctx, s, args)
	case *sql.UnionStmt:
		if len(args) > 0 {
			return nil, fmt.Errorf("filterjoin: bind arguments are not supported for UNION statements")
		}
		return e.serveUnion(stdctx, s)
	case *sql.ExplainStmt:
		return e.serveExplainStmt(stdctx, s, args)
	default:
		if len(args) > 0 {
			return nil, fmt.Errorf("filterjoin: bind arguments are only valid for SELECT statements")
		}
		var err error
		e.span.Write(func() { err = e.applyDDL(st) })
		return nil, err
	}
}

// applyDDL mutates the catalog for one DDL or INSERT statement. It runs
// only inside execStmt's write span, so a statement rejected here still
// costs an epoch bump and a cache clear — harmless, and the price of
// never having to decide whether a failed statement mutated anything.
func (e *Engine) applyDDL(st sql.Statement) error {
	switch s := st.(type) {
	case *sql.CreateTable:
		cols := make([]schema.Column, len(s.Cols))
		for i, c := range s.Cols {
			cols[i] = schema.Column{Table: s.Name, Name: c.Name, Type: c.Type}
		}
		if e.cat.Has(s.Name) {
			return fmt.Errorf("filterjoin: relation %q already exists", s.Name)
		}
		e.cat.AddTable(storage.NewTable(s.Name, schema.New(cols...)))
		return nil

	case *sql.CreateIndex:
		ent, err := e.cat.Get(s.Table)
		if err != nil {
			return err
		}
		if ent.Table == nil {
			return fmt.Errorf("filterjoin: cannot index non-stored relation %q", s.Table)
		}
		idx := make([]int, len(s.Cols))
		for i, cn := range s.Cols {
			j, err := ent.Table.Schema().IndexOf("", cn)
			if err != nil {
				return err
			}
			idx[i] = j
		}
		_, err = ent.Table.CreateIndex(s.Name, idx)
		return err

	case *sql.CreateView:
		if e.cat.Has(s.Name) {
			return fmt.Errorf("filterjoin: relation %q already exists", s.Name)
		}
		b, err := sql.BindSelect(e.cat, s.Select)
		if err != nil {
			return err
		}
		e.cat.AddView(s.Name, b)
		return nil

	case *sql.Insert:
		ent, err := e.cat.Get(s.Table)
		if err != nil {
			return err
		}
		if ent.Table == nil {
			return fmt.Errorf("filterjoin: cannot insert into non-stored relation %q", s.Table)
		}
		// Rows inserted before a failure stay visible, so the statistics
		// take in what the table kept on the error path too.
		defer ent.FoldInsert(ent.Table.NumRows())
		for _, r := range s.Rows {
			if err := ent.Table.Insert(value.Row(r)); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("filterjoin: unsupported statement %T", st)
}

// prepareArgs resolves a SELECT's bind mode. With explicit placeholders
// the caller must supply exactly the declared arguments; without them,
// literals in WHERE comparisons are auto-extracted so textually
// different queries normalize onto one cache entry. The two modes never
// mix: a statement with `?`/`$n` is never auto-normalized.
func prepareArgs(sel *sql.SelectStmt, userArgs []value.Value) (norm *sql.SelectStmt, allArgs []value.Value, err error) {
	if sql.HasParams(sel) {
		n, err := sql.NumParams(sel)
		if err != nil {
			return nil, nil, err
		}
		if len(userArgs) != n {
			return nil, nil, fmt.Errorf("filterjoin: statement expects %d bind arguments, got %d", n, len(userArgs))
		}
		return sel, userArgs, nil
	}
	if len(userArgs) > 0 {
		return nil, nil, fmt.Errorf("filterjoin: statement has no parameter placeholders but %d bind arguments were given", len(userArgs))
	}
	norm, allArgs, _ = sql.Normalize(sel)
	return norm, allArgs, nil
}

// request is one trip through the read span. Exactly one of sel, block
// and plan says where it starts: a statement still to bind, a block
// still to plan, or a finished plan to run.
type request struct {
	sel   *sql.SelectStmt
	block *query.Block
	plan  *plan.Node
	text  string        // sel's plan-cache text; "" = not cacheable
	args  []value.Value // bind arguments of sel
	run   bool          // execute the plan, not just return it
}

// serve is the read span, and the only one that queries take: bind
// against the catalog, get the plan from planFor, execute. The whole
// trip runs under the shared lock so no mutation interleaves with a
// scan. state is the plan's cache state ("" for a caller-supplied plan);
// res is nil unless r.run.
func (e *Engine) serve(stdctx context.Context, r request) (p *plan.Node, state string, res *Result, err error) {
	e.span.Read(func(epoch uint64) {
		if p = r.plan; p == nil {
			b := r.block
			var layout *query.Layout
			if r.sel != nil {
				if b, layout, err = sql.BindSelectLayout(e.cat, r.sel, r.args); err != nil {
					return
				}
			}
			if p, state, err = e.planFor(epoch, b, layout, r.text, len(r.args)); err != nil {
				return
			}
		}
		if r.run {
			if res, err = e.runPlan(stdctx, p, r.args); err == nil {
				res.CacheState = state
			}
		}
	})
	return p, state, res, err
}

// planFor is the one place a plan comes from. A statement with cache
// text is keyed by (text, epoch, its arguments' selectivity classes,
// optimizer config): a hit returns the cached plan, a miss optimizes and
// caches. Without text — a programmatic block, unbound parameters (no
// selectivity class to key on), or the cache turned off — it counts a
// bypass and optimizes. Optimization runs on a private fork of the
// prototype whose search counters are folded back, so concurrent
// sessions never contend on optimizer state. layout is b's, if the
// caller has it (nil: classVector resolves it).
func (e *Engine) planFor(epoch uint64, b *query.Block, layout *query.Layout, text string, nArgs int) (*plan.Node, string, error) {
	state := "bypass"
	var key plancache.Key
	if text != "" && !e.cacheOff {
		key = plancache.Key{
			Text:    text,
			Epoch:   epoch,
			Classes: e.classVector(b, layout, nArgs),
			Config:  e.configFingerprint(),
		}
		if ent, ok := e.cache.Get(key); ok {
			return ent.Plan, "hit", nil
		}
		state = "miss"
	} else {
		e.cache.Bypass()
	}
	f := e.proto.Fork()
	p, err := f.OptimizeBlock(b)
	e.proto.MergeMetrics(f.Metrics)
	if err != nil {
		return nil, "", err
	}
	if p.Find("FetchMatches") != nil {
		p.Fallback = f.Fallback(b)
	}
	if state == "miss" {
		e.cache.Put(key, &plancache.Entry{Plan: p, Cost: p.Total(e.model)})
	}
	return p, state, nil
}

// serveSelect is the cached SELECT path: normalize, one read span, then
// — with no lock held, because absorbing takes the write span — the
// statistics feedback pass over the measured cardinalities.
func (e *Engine) serveSelect(stdctx context.Context, sel *sql.SelectStmt, userArgs []value.Value) (*Result, error) {
	norm, args, err := prepareArgs(sel, userArgs)
	if err != nil {
		return nil, err
	}
	_, _, res, err := e.serve(stdctx, request{sel: norm, text: sql.FormatSelect(norm), args: args, run: true})
	if err == nil {
		e.absorbFeedback(res, args)
	}
	return res, err
}

// classVector computes the selectivity class of each bind parameter: the
// index of the parametric coster's sample-grid point (paper Fig 5) the
// parameter's predicate selectivity falls into. Two values in the same
// class would drive the coster to the same grid point, so the cached
// plan is the plan either would get; a value in a different class misses
// the cache and re-optimizes. Class -1 means the predicate could not be
// classified against stored statistics (multi-relation predicates, view
// columns) — one class for all values, honest within the grid's own
// resolution. Class -2 means the parameter appears in no predicate and
// cannot move plan choice at all. layout is b's; nil resolves it here.
func (e *Engine) classVector(b *query.Block, layout *query.Layout, nParams int) string {
	if nParams == 0 {
		return ""
	}
	classes := make([]int, nParams)
	for i := range classes {
		classes[i] = -2
	}
	var err error
	if layout == nil {
		layout, err = b.Layout(e.cat)
	}
	if err == nil {
		for _, p := range b.Preds {
			set := map[int]bool{}
			expr.CollectParams(p, set)
			if len(set) == 0 {
				continue
			}
			cls := e.classifyPred(p, b, layout)
			for idx := range set {
				if idx >= 0 && idx < nParams {
					classes[idx] = cls
				}
			}
		}
	}
	key := make([]byte, 0, 3*nParams)
	for i, c := range classes {
		if i > 0 {
			key = append(key, ',')
		}
		key = strconv.AppendInt(key, int64(c), 10)
	}
	return string(key)
}

// classifyPred buckets one predicate's selectivity into the sample grid.
// Only single-relation predicates over relations with stored statistics
// are classifiable; everything else shares class -1.
func (e *Engine) classifyPred(p expr.Expr, b *query.Block, layout *query.Layout) int {
	rels := query.PredRels(p, layout)
	if rels.Count() != 1 {
		return -1
	}
	ri := rels.Members()[0]
	if ri >= len(b.Rels) {
		return -1
	}
	ent, err := e.cat.Get(b.Rels[ri].Name)
	if err != nil {
		return -1
	}
	st := ent.Stats()
	if st == nil {
		return -1
	}
	local := expr.Shift(p, -layout.Offsets[ri])
	return plancache.Classify(stats.Selectivity(local, st), core.DefaultSamplePoints)
}

// configFingerprint captures every optimizer knob that changes plan
// choice, so flipping a method toggle (experiments do this through
// Optimizer()) keys different cache entries instead of serving plans
// from another configuration.
func (e *Engine) configFingerprint() string {
	o := e.proto
	var off []string
	for k, v := range o.Disabled {
		if v {
			off = append(off, k)
		}
	}
	sort.Strings(off)
	return fmt.Sprintf("off=%s noorder=%t batch=%d max=%d fj=%t",
		strings.Join(off, ","), o.DisableOrderProps, o.Batch(), o.MaxRelations, e.fj != nil)
}

// serveUnion runs each UNION arm through the cached SELECT path (each
// arm can hit the plan cache independently) and combines the results,
// deduplicating for plain UNION. The envelope result carries no cache
// state of its own.
func (e *Engine) serveUnion(stdctx context.Context, u *sql.UnionStmt) (*Result, error) {
	var (
		out  *Result
		seen exec.RowTable // full-row keys, as exec.Distinct keeps them
		key  []byte
	)
	for i, sel := range u.Selects {
		res, err := e.serveSelect(stdctx, sel, nil)
		if err != nil {
			return nil, fmt.Errorf("filterjoin: UNION arm %d: %w", i+1, err)
		}
		if out == nil {
			out = &Result{Columns: res.Columns, Plan: res.Plan}
		} else if len(res.Columns) != len(out.Columns) {
			return nil, fmt.Errorf("filterjoin: UNION arms have %d vs %d columns",
				len(out.Columns), len(res.Columns))
		}
		out.Cost.Add(res.Cost)
		out.ops = append(out.ops, res.ops...)
		for _, r := range res.Rows {
			if !u.All {
				key = r.AppendFullKey(key[:0])
				if _, added := seen.Insert(key); !added {
					continue
				}
			}
			out.Rows = append(out.Rows, r)
		}
	}
	return out, nil
}

// explainSelect renders EXPLAIN (and EXPLAIN ANALYZE) output for a
// SELECT through the same read span as execution: the lookup both
// consults and populates the cache, the output ends with a
// `cache=hit|miss|bypass` banner, and ANALYZE runs feed the statistics
// feedback pass exactly like served SELECTs. A statement with unbound
// parameters (prepare-time EXPLAIN with no arguments) gets a generic
// plan and bypasses the cache.
func (e *Engine) explainSelect(stdctx context.Context, sel *sql.SelectStmt, userArgs []value.Value, analyze bool, opts plan.AnalyzeOptions, stmtCost bool) (string, *plan.Node, error) {
	r := request{sel: sel, run: analyze}
	unbound := false
	if sql.HasParams(sel) && len(userArgs) == 0 {
		n, err := sql.NumParams(sel)
		if err != nil {
			return "", nil, err
		}
		if unbound = n > 0; unbound && analyze {
			return "", nil, fmt.Errorf("filterjoin: EXPLAIN ANALYZE requires all %d bind arguments", n)
		}
	}
	if !unbound {
		var err error
		if r.sel, r.args, err = prepareArgs(sel, userArgs); err != nil {
			return "", nil, err
		}
		r.text = sql.FormatSelect(r.sel)
	}
	p, state, res, err := e.serve(stdctx, r)
	if err != nil {
		return "", nil, err
	}
	var out string
	if analyze {
		out = plan.FormatAnalyze(res.Plan, e.model, res.ops, res.Cost, opts)
		out += degradedLine(res)
		out += fmt.Sprintf("rows: %d\n", len(res.Rows))
		e.absorbFeedback(res, r.args)
	} else {
		out = plan.Format(p, e.model)
		if stmtCost {
			out += fmt.Sprintf("estimated cost: %.2f  (%s)\n", p.Total(e.model), p.Est.String())
		}
	}
	return out + fmt.Sprintf("cache=%s\n", state), p, nil
}

// serveExplainStmt handles the SQL-level EXPLAIN statement, wrapping the
// rendered text into a one-column result set.
func (e *Engine) serveExplainStmt(stdctx context.Context, s *sql.ExplainStmt, args []value.Value) (*Result, error) {
	text, p, err := e.explainSelect(stdctx, s.Select, args, s.Analyze, plan.AnalyzeOptions{}, !s.Analyze)
	if err != nil {
		return nil, err
	}
	out := &Result{Columns: []string{"plan"}, Plan: p}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		out.Rows = append(out.Rows, value.Row{value.NewString(line)})
	}
	return out, nil
}

// newExecContext builds the per-execution context: a fresh counter, the
// caller's cancellation context, the bind arguments, and — when chaos is
// configured — a fresh fault-injecting transport, so every execution
// replays the fault schedule from its start and a query's faults depend
// only on the seed and the query itself.
func (e *Engine) newExecContext(stdctx context.Context, args []value.Value) *exec.Context {
	ctx := exec.NewContext()
	ctx.Caller = stdctx
	ctx.BatchSize = e.proto.Batch()
	ctx.Params = args
	ctx.Scratch = e.scratch
	if e.chaos != nil {
		ctx.Net = dist.NewChaosTransport(*e.chaos, e.retry)
	}
	return ctx
}

// runPlan executes a plan, collecting rows and measured counters, with
// graceful degradation to the retained fault-free fallback on a
// mid-query site error. It runs inside serve's read span.
func (e *Engine) runPlan(stdctx context.Context, p *plan.Node, args []value.Value) (*Result, error) {
	ctx := e.newExecContext(stdctx, args)
	executed := p
	var (
		degradedFrom *plan.Node
		siteErr      *dist.SiteError
	)
	rows, err := exec.Drain(ctx, executed.Make())
	if errors.As(err, &siteErr) && p.Fallback != nil {
		// Graceful degradation: a remote strategy exhausted its retry
		// budget mid-query. Restart on the retained fault-free
		// fallback in the SAME execution context, so the aborted
		// primary's work stays on the bill and the observability
		// layer shows the full price of the fault.
		ctx.Counter.Fallbacks++
		degradedFrom, executed = p, p.Fallback
		rows, err = exec.Drain(ctx, executed.Make())
	}
	if err != nil {
		return nil, err
	}
	cols := make([]string, executed.OutSchema.Len())
	for i := range cols {
		cols[i] = executed.OutSchema.Col(i).QualifiedName()
	}
	return &Result{Columns: cols, Rows: rows, Cost: *ctx.Counter, Plan: executed,
		DegradedFrom: degradedFrom, SiteErr: siteErr, ops: ctx.OperatorStats()}, nil
}

// degradedLine renders the degradation banner appended to EXPLAIN
// ANALYZE output; empty on a normal run.
func degradedLine(res *Result) string {
	if res.DegradedFrom == nil {
		return ""
	}
	return fmt.Sprintf("degraded=plan: primary aborted (%v); rows produced by fault-free fallback above\n", res.SiteErr)
}

// toValues converts user-facing bind arguments to engine values.
func toValues(args []any) ([]value.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]value.Value, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case value.Value:
			out[i] = v
		case int:
			out[i] = value.NewInt(int64(v))
		case int64:
			out[i] = value.NewInt(v)
		case float64:
			out[i] = value.NewFloat(v)
		case string:
			out[i] = value.NewString(v)
		case bool:
			out[i] = value.NewBool(v)
		case nil:
			out[i] = value.Null
		default:
			return nil, fmt.Errorf("filterjoin: unsupported bind argument %d of type %T", i+1, a)
		}
	}
	return out, nil
}
