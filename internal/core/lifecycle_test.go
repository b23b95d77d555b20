package core_test

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/dist"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/sql"
	"filterjoin/internal/sqlref"
	"filterjoin/internal/stats"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// countdown is a caller context whose Err reports context.Canceled from
// its n-th call on (never when n <= 0). calls counts every poll. Each
// poll, and the run's return, snapshots the Nexts of every instrumented
// operator of ctx; stall is the largest growth of one operator between
// two snapshots, the morsels a cancel could go unseen for.
type countdown struct {
	context.Context
	n, calls int
	ctx      *exec.Context
	seen     []int64 // Nexts per operator at the last snapshot
	stall    stall
}

// stall is an operator's growth in Nexts between two snapshots, and the
// poll that ended it (one past the last poll: the run's return).
type stall struct {
	label string
	nexts int64
	poll  int
}

func (c *countdown) Err() error {
	c.calls++
	c.snapshot(c.calls)
	if c.n > 0 && c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

func (c *countdown) snapshot(poll int) {
	for i, s := range c.ctx.OperatorStats() {
		if i == len(c.seen) {
			c.seen = append(c.seen, 0)
		}
		if d := s.Nexts - c.seen[i]; d > c.stall.nexts {
			c.stall = stall{s.Label, d, poll}
		}
		c.seen[i] = s.Nexts
	}
}

// faultNet is the free network with one fault: its k-th Send fails with
// a *dist.SiteError (never when k <= 0). Every other Send polls
// cancellation and charges exactly as exec.Context.Send's nil-transport
// path, so a run's polls and bill are those of the free network; the
// sweep's Liveness leg checks this.
type faultNet struct {
	k, sends int
	err      *dist.SiteError
}

func (n *faultNet) Send(ctx *exec.Context, site int, bytes int64) error {
	n.sends++
	if n.sends == n.k {
		n.err = &dist.SiteError{Site: site, Attempts: 1, Cause: dist.ErrSiteDown}
		return n.err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ctx.Counter.NetMsgs++
	ctx.Counter.NetBytes += bytes
	return nil
}

// lifecycleRun is the outcome of one execution under injected faults.
type lifecycleRun struct {
	op           exec.Operator // the tree that ran, for running it again
	store        *exec.Store   // the scratch store it ran on, if any
	rows         []value.Row
	err          error
	injected     error // the *dist.SiteError faultNet returned, if any
	polls, sends int
	stall        stall
	bill         cost.Counter
	ops          []*exec.OpStats
}

// runLifecycle drains a fresh tree of p at the given morsel size on the
// scratch store (nil: none), cancelling at the cancelAt-th ctx.Err poll
// and failing the failSend-th transport send (0 = neither).
func runLifecycle(p *plan.Node, morsel, cancelAt, failSend int, store *exec.Store) lifecycleRun {
	return drainLifecycle(p.Make(), morsel, cancelAt, &faultNet{k: failSend}, nil, store)
}

// drainLifecycle is runLifecycle over a given operator tree, transport
// and bind-parameter values. A nil net leaves ctx.Net nil:
// exec.Context.Send's own free network.
func drainLifecycle(op exec.Operator, morsel, cancelAt int, net *faultNet, params []value.Value, store *exec.Store) lifecycleRun {
	ctx := exec.NewContext()
	caller := &countdown{Context: context.Background(), n: cancelAt, ctx: ctx}
	ctx.BatchSize, ctx.Caller, ctx.Params, ctx.Scratch = morsel, caller, params, store
	if net != nil {
		ctx.Net = net
	}
	rows, err := exec.Drain(ctx, op)
	caller.snapshot(caller.calls + 1)
	r := lifecycleRun{op: op, store: store, rows: rows, err: err, polls: caller.calls, stall: caller.stall, bill: *ctx.Counter, ops: ctx.OperatorStats()}
	if net != nil {
		r.sends = net.sends
		if net.err != nil {
			r.injected = net.err
		}
	}
	return r
}

// isOnly reports whether err is want, possibly wrapped or joined, with
// no other error beside it.
func isOnly(err, want error) bool {
	if err == want {
		return true
	}
	switch u := err.(type) {
	case interface{ Unwrap() []error }:
		errs := u.Unwrap()
		for _, e := range errs {
			if !isOnly(e, want) {
				return false
			}
		}
		return len(errs) > 0
	case interface{ Unwrap() error }:
		return isOnly(u.Unwrap(), want)
	}
	return false
}

// billedWithin reports whether got charges no component above limit.
func billedWithin(got, limit cost.Counter) bool {
	g, l := reflect.ValueOf(got), reflect.ValueOf(limit)
	for i := 0; i < g.NumField(); i++ {
		if g.Field(i).Int() > l.Field(i).Int() {
			return false
		}
	}
	return true
}

// checkLifecycle asserts the sweep's properties of one aborted or clean
// run: it returned exactly want, every instrumented operator was closed
// as often as it was opened, and the run billed no component above the
// clean run. An aborted run's tree, drained again with no fault, must
// then return the clean rows in order, again billing within the clean
// run (a Materialize keeps what it built).
func checkLifecycle(t *testing.T, what string, r lifecycleRun, want error, clean lifecycleRun) {
	t.Helper()
	if want == nil && r.err != nil || want != nil && !isOnly(r.err, want) {
		t.Fatalf("%s: returned %v, want exactly %v", what, r.err, want)
	}
	for _, s := range r.ops {
		if s.Opens != s.Closes {
			t.Fatalf("%s: %s opened %d times, closed %d", what, s.Label, s.Opens, s.Closes)
		}
	}
	if !billedWithin(r.bill, clean.bill) {
		t.Fatalf("%s: billed %s, more than the clean run's %s", what, r.bill.String(), clean.bill.String())
	}
	if want == nil {
		return
	}
	again := drainLifecycle(r.op, exec.DefaultBatchSize, 0, nil, nil, r.store)
	if again.err != nil || !sameRows(again.rows, clean.rows) {
		t.Fatalf("%s, drained again: %d rows (err %v), want the clean run's %d in order", what, len(again.rows), again.err, len(clean.rows))
	}
	if !billedWithin(again.bill, clean.bill) {
		t.Fatalf("%s, drained again: billed %s, more than the clean run's %s", what, again.bill.String(), clean.bill.String())
	}
}

// sameRows reports whether a and b hold the same rows in the same order.
func sameRows(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// opProfile is what two executions of fresh trees of one plan must agree
// on per instrumented operator, in first-Open order.
type opProfile struct {
	label               string
	opens, closes, rows int64
}

func profileOf(ops []*exec.OpStats) []opProfile {
	out := make([]opProfile, len(ops))
	for i, s := range ops {
		out[i] = opProfile{s.Label, s.Opens, s.Closes, s.Rows}
	}
	return out
}

// TestLifecycleSweep checks the Volcano lifecycle, the bill and plan
// reuse by running them. Every distinct plan of the corpus runs at
// several morsel sizes, once clean and then once per ctx.Err poll of the
// clean run, cancelled at that poll, and once per transport send,
// failing that send. The legs:
//
//   - Lifecycle: each aborted run returns exactly the injected error,
//     leaves every instrumented operator with Opens == Closes, and bills
//     no cost component above the clean run.
//   - Liveness: in a clean run no instrumented operator's Nexts grows by
//     more than one between two consecutive polls (or the last poll and
//     the return), so a cancel is seen within one morsel per operator;
//     and the clean run with no transport (exec.Context.Send's own path)
//     returns the same rows, bill and poll count as under faultNet, which
//     every failed-send run relies on.
//   - Bill: an extra's clean run reproduces its fuzz_counters.golden
//     line (rows in order and every counter) at every morsel size.
//   - Reuse: an aborted run's tree drained again returns the clean rows
//     and bills within the clean run; two clean runs of fresh Make trees
//     have the same operator profile; two goroutines each Make and drain
//     the plan at once and both return the clean rows. Every run of a
//     plan but the one below draws its scratch from one store
//     (exec.Store), which the package's tests poison
//     (exec.PoisonScratch): the clean run must equal, in rows, bill,
//     polls and operator profile, a run with no store. The subtest
//     "reuse" runs each plan three more times on a warm store, after a
//     cancelled and after a faulted run, each equal to a run with no
//     store and each tree closed twice (checkStoreReuse).
//   - Rebind: see checkRebind.
//
// The corpus must execute every plan-node kind opt and core construct
// (plannedKinds), plan a leaf of every catalog.Kind, and run a Filter
// Join of every core.InnerAccess and every core.FilterRepr
// (checkVariants).
func TestLifecycleSweep(t *testing.T) {
	morsels := []int{1, 7, exec.DefaultBatchSize}
	if testing.Short() {
		morsels = morsels[2:]
	}
	golden := loadFuzzGolden(t)
	extras := lifecycleExtras(t)
	corpus := append(rowCorpus(t, 25), distCorpus(t, 8)...)
	for _, x := range extras {
		corpus = append(corpus, x.fuzzPlan)
	}
	plans := distinctPlans(corpus)
	if *update {
		for _, fp := range plans {
			if strings.HasPrefix(fp.key, "extra/") {
				clean := runLifecycle(fp.plan, 1, 0, 0, nil)
				golden[fp.key] = fingerprint(clean.rows, clean.bill)
			}
		}
		saveFuzzGolden(t, golden)
		return
	}

	// Plans sweep in parallel subtests; each reports what it executed.
	var mu sync.Mutex
	seen := map[string]bool{}
	var cancels, faults int
	t.Run("plans", func(t *testing.T) {
		for _, fp := range plans {
			t.Run(fp.key, func(t *testing.T) {
				t.Parallel()
				s := sweepPlan(t, fp, morsels, golden)
				mu.Lock()
				defer mu.Unlock()
				for _, l := range s.labels {
					seen[l] = true
				}
				cancels += s.cancels
				faults += s.faults
			})
		}
	})
	t.Run("reuse", func(t *testing.T) {
		for _, fp := range plans {
			t.Run(fp.key, func(t *testing.T) {
				t.Parallel()
				store := sweepStore()
				for _, m := range morsels {
					bare := drainLifecycle(fp.plan.Make(), m, 0, &faultNet{}, nil, nil)
					checkStoreReuse(t, fp, fmt.Sprintf("%s morsel=%d", fp.key, m), m, bare, store)
				}
			})
		}
	})
	if t.Failed() || len(seen) == 0 { // failed, or only the reuse leg ran
		return
	}
	for _, kind := range plannedKinds(t) {
		if !seen[kind] {
			t.Errorf("no corpus plan executes a %s node; widen lifecycleExtras", kind)
		}
	}
	checkVariants(t, plans)
	checkRebind(t, golden, extras)
	t.Logf("%d distinct plans x %d morsel sizes: %d cancelled runs, %d failed-send runs", len(plans), len(morsels), cancels, faults)
}

// sweepTally is what sweeping one plan executed.
type sweepTally struct {
	labels          []string // instrumented operators of the clean run
	cancels, faults int
}

// sweepPlan runs TestLifecycleSweep's Lifecycle, Bill and Reuse legs
// over one plan.
func sweepPlan(t *testing.T, fp fuzzPlan, morsels []int, golden map[string]string) sweepTally {
	var s sweepTally
	var clean lifecycleRun
	store := sweepStore()
	for _, m := range morsels {
		clean = runLifecycle(fp.plan, m, 0, 0, store)
		what := fmt.Sprintf("%s morsel=%d", fp.key, m)
		checkLifecycle(t, what+" clean", clean, nil, clean)
		if fp.block != nil {
			if err := sqlref.Check(fp.cat, fp.block, clean.rows); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		if st := clean.stall; st.nexts > 1 {
			at := fmt.Sprintf("poll %d/%d", st.poll, clean.polls)
			if st.poll > clean.polls {
				at = "the return"
			}
			t.Fatalf("%s: %s pulled %d morsels before %s; a cancel goes unseen that long", what, st.label, st.nexts, at)
		}
		free := drainLifecycle(fp.plan.Make(), m, 0, nil, nil, nil)
		if free.err != nil || !sameRows(free.rows, clean.rows) || free.bill != clean.bill || free.polls != clean.polls ||
			!reflect.DeepEqual(profileOf(free.ops), profileOf(clean.ops)) {
			t.Fatalf("%s: with no transport and no store: %d rows (err %v), billed %s in %d polls; under faultNet on the store %d rows, %s in %d polls",
				what, len(free.rows), free.err, free.bill.String(), free.polls, len(clean.rows), clean.bill.String(), clean.polls)
		}
		if got := fingerprint(clean.rows, clean.bill); strings.HasPrefix(fp.key, "extra/") && got != golden[fp.key] {
			t.Fatalf("%s: clean run differs from %s (record a new extra with -update):\ngot:  %s\nwant: %s", what, fuzzGoldenPath, got, golden[fp.key])
		}
		again := runLifecycle(fp.plan, m, 0, 0, store)
		if p, q := profileOf(clean.ops), profileOf(again.ops); !reflect.DeepEqual(p, q) {
			t.Fatalf("%s: two fresh trees ran differently:\nfirst:  %v\nsecond: %v", what, p, q)
		}
		for _, op := range clean.ops {
			s.labels = append(s.labels, op.Label)
		}
		for n := 1; n <= clean.polls; n++ {
			r := runLifecycle(fp.plan, m, n, 0, store)
			checkLifecycle(t, fmt.Sprintf("%s cancelled at poll %d/%d", what, n, clean.polls), r, context.Canceled, clean)
		}
		for k := 1; k <= clean.sends; k++ {
			r := runLifecycle(fp.plan, m, 0, k, store)
			checkLifecycle(t, fmt.Sprintf("%s send %d/%d failed", what, k, clean.sends), r, r.injected, clean)
		}
		s.cancels += clean.polls
		s.faults += clean.sends
	}
	var wg sync.WaitGroup
	runs := make([]lifecycleRun, 2)
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i] = runLifecycle(fp.plan, exec.DefaultBatchSize, 0, 0, store)
		}()
	}
	wg.Wait()
	for _, r := range runs {
		if r.err != nil || !sameRows(r.rows, clean.rows) {
			t.Fatalf("%s: concurrent run returned %d rows (err %v), want the clean run's %d", fp.key, len(r.rows), r.err, len(clean.rows))
		}
	}
	return s
}

// sweepStore returns a scratch store for one plan's sweep, with room
// for everything its runs give back.
func sweepStore() *exec.Store {
	s := exec.NewStore()
	s.SetBudget(1 << 30)
	return s
}

// checkStoreReuse is the Reuse leg's warm store: right after a run on
// store cancelled half-way, and right after one whose first send failed,
// fresh trees of the plan drained on store must return what bare — the
// run with no store — returned: its rows, bill and operator profile,
// three times over. Each tree is then closed a second time, which must
// give nothing back again (under exec.PoisonScratch the store panics on
// a buffer given back twice, and poisons every buffer it keeps, so a row
// read after its buffer went back changes the answer).
func checkStoreReuse(t *testing.T, fp fuzzPlan, what string, morsel int, bare lifecycleRun, store *exec.Store) {
	t.Helper()
	for i := 0; i < 3; i++ {
		switch {
		case i == 0 && bare.polls > 0:
			runLifecycle(fp.plan, morsel, (bare.polls+1)/2, 0, store)
		case i == 1 && bare.sends > 0:
			runLifecycle(fp.plan, morsel, 0, 1, store)
		}
		r := runLifecycle(fp.plan, morsel, 0, 0, store)
		if r.err != nil || !sameRows(r.rows, bare.rows) || r.bill != bare.bill ||
			!reflect.DeepEqual(profileOf(r.ops), profileOf(bare.ops)) {
			t.Fatalf("%s: run %d on a warm store: %d rows (err %v), billed %s, profile %v; with no store %d rows, %s, %v",
				what, i+1, len(r.rows), r.err, r.bill.String(), profileOf(r.ops), len(bare.rows), bare.bill.String(), profileOf(bare.ops))
		}
		ctx := exec.NewContext()
		ctx.Scratch = store
		r.op.Close(ctx)
	}
}

// distinctPlans drops every plan whose catalog and rendered tree an
// earlier one shares: configurations often agree on a plan.
func distinctPlans(corpus []fuzzPlan) []fuzzPlan {
	type sweptPlan struct {
		cat  *catalog.Catalog
		tree string
	}
	swept := map[sweptPlan]bool{}
	var out []fuzzPlan
	for _, fp := range corpus {
		sp := sweptPlan{fp.cat, plan.Format(fp.plan, cost.DefaultModel())}
		if !swept[sp] {
			swept[sp] = true
			out = append(out, fp)
		}
	}
	return out
}

// checkRebind plans every extra that has bind parameters again the way
// the engine plans its text — sql.Normalize, then sql.BindSelectArgs
// with the extracted values (an extra written with explicit placeholders
// skips Normalize) — and requires of the parameterized plan:
//
//	(a) it renders exactly as the literal plan and has its output
//	    columns: a bound parameter estimates and types as its literal;
//	(b) run with its own values it reproduces the literal plan's golden
//	    line;
//	(c) run with the extra's second binding it returns, as a multiset,
//	    the rows of a literal plan for that binding.
//
// Some extra's rows must change under its second binding, or (c)
// could not see a parameter that was never bound.
func checkRebind(t *testing.T, golden map[string]string, extras []sweepExtra) {
	t.Helper()
	changed := 0
	for _, x := range extras {
		if len(x.args) == 0 {
			continue
		}
		b, err := sql.BindSelectArgs(x.cat, x.stmt, x.args)
		if err != nil {
			t.Fatalf("%s: bind: %v", x.key, err)
		}
		p := planned(t, x.key, x.cat, b, x.optimize).plan
		if got, want := plan.Format(p, cost.DefaultModel()), plan.Format(x.plan, cost.DefaultModel()); got != want {
			t.Fatalf("%s: parameterized plan differs from the literal plan:\n%s\nwant:\n%s", x.key, got, want)
		}
		if got, want := p.OutSchema.Columns(), x.plan.OutSchema.Columns(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: parameterized plan outputs %v, the literal plan %v", x.key, got, want)
		}
		r := drainLifecycle(p.Make(), exec.DefaultBatchSize, 0, nil, x.args, nil)
		if got := fingerprint(r.rows, r.bill); r.err != nil || got != golden[x.key] {
			t.Fatalf("%s: bound to its own values (err %v):\ngot:  %s\nwant: %s", x.key, r.err, got, golden[x.key])
		}
		second := drainLifecycle(p.Make(), exec.DefaultBatchSize, 0, nil, x.second, nil)
		lit := runLifecycle(planned(t, x.key, x.cat, literalBlock(t, x.cat, x.stmt, x.second), x.optimize).plan, exec.DefaultBatchSize, 0, 0, nil)
		if second.err != nil || lit.err != nil {
			t.Fatalf("%s: second binding: %v / literal: %v", x.key, second.err, lit.err)
		}
		got := sqlref.Canon(second.rows)
		if !slices.Equal(got, sqlref.Canon(lit.rows)) {
			t.Fatalf("%s: bound to %v returned %d rows, the literal plan %d", x.key, x.second, len(second.rows), len(lit.rows))
		}
		if !slices.Equal(got, sqlref.Canon(r.rows)) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatalf("no extra's rows change under its second binding; the rebind leg cannot see a stale parameter")
	}
}

// literalBlock binds stmt to args and replaces every parameter by the
// literal it is bound to: the block the statement's literal text binds to.
func literalBlock(t *testing.T, cat *catalog.Catalog, stmt *sql.SelectStmt, args []value.Value) *query.Block {
	t.Helper()
	b, err := sql.BindSelectArgs(cat, stmt, args)
	if err != nil {
		t.Fatalf("bind %v: %v", args, err)
	}
	for i, p := range b.Preds {
		b.Preds[i] = expr.BindParams(p, args)
	}
	for i := range b.Proj {
		b.Proj[i].Expr = expr.BindParams(b.Proj[i].Expr, args)
	}
	b.Aggs = expr.BindAggs(b.Aggs, args)
	b.Having = expr.BindParams(b.Having, args)
	return b
}

// kindRe matches where opt and core name a plan-node kind: a Kind:
// literal, a string assigned to a kind variable, or the kind argument
// of funcProbeNode.
var kindRe = regexp.MustCompile(`(?:\bKind:|\bkind\s*:?=|funcProbeNode\()\s*"(\w+)"`)

// plannedKinds returns every plan-node kind the non-test sources of opt
// and core construct.
func plannedKinds(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, dir := range []string{".", filepath.Join("..", "opt")} {
		fs, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fs...)
	}
	set := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range kindRe.FindAllStringSubmatch(string(src), -1) {
			set[m[1]] = true
		}
	}
	kinds := make([]string, 0, len(set))
	for k := range set {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	if len(kinds) < 10 {
		t.Fatalf("found only %d plan-node kinds (%v); kindRe no longer matches the sources", len(kinds), kinds)
	}
	return kinds
}

// checkVariants requires the corpus to plan a leaf of every
// catalog.Kind and to run a Filter Join of every core.InnerAccess and
// every core.FilterRepr. The three lists are read from their
// declarations, so a new variant fails here until some plan runs it.
func checkVariants(t *testing.T, plans []fuzzPlan) {
	t.Helper()
	seen := map[string]map[int]bool{"Kind": {}, "InnerAccess": {}, "FilterRepr": {}}
	for _, fp := range plans {
		if fp.block == nil {
			continue // hand-built
		}
		for _, r := range fp.block.Rels {
			e, err := fp.cat.Get(r.Name)
			if err != nil {
				t.Fatal(err)
			}
			seen["Kind"][int(e.Kind)] = true
		}
		fp.plan.Walk(func(n *plan.Node) {
			if ch, ok := n.Extra.(*core.Choice); ok {
				seen["InnerAccess"][int(ch.Access)] = true
				seen["FilterRepr"][int(ch.Repr)] = true
			}
		})
	}
	for _, enum := range []struct{ file, typ, what string }{
		{filepath.Join("..", "catalog", "catalog.go"), "Kind", "plans a leaf of kind %s"},
		{"components.go", "InnerAccess", "runs a Filter Join via %s"},
		{"components.go", "FilterRepr", "runs a Filter Join with filter set %s"},
	} {
		for v, name := range enumConsts(t, enum.file, enum.typ) {
			if !seen[enum.typ][v] {
				t.Errorf("no corpus plan "+enum.what+"; widen lifecycleExtras", name)
			}
		}
	}
}

// enumConsts returns the constants of type typ declared in file, in
// order. They must form one iota block, so a constant's value is its
// position.
func enumConsts(t *testing.T, file, typ string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		if id, ok := gd.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); !ok || id.Name != typ {
			continue
		}
		for i, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			iota := len(vs.Values) == 1 && types.ExprString(vs.Values[0]) == "iota"
			if i == 0 && !iota || i > 0 && (vs.Type != nil || vs.Values != nil) {
				t.Fatalf("%s: %s is not one iota sequence at %s", file, typ, vs.Names[0])
			}
			for _, n := range vs.Names {
				names = append(names, n.Name)
			}
		}
		break
	}
	if len(names) < 2 {
		t.Fatalf("%s: found %d constants of type %s", file, len(names), typ)
	}
	return names
}

// sweepExtra is one of the sweep's plans beyond the fuzz corpora, with
// what checkRebind needs to plan it again from its text.
type sweepExtra struct {
	fuzzPlan
	stmt   *sql.SelectStmt // the text with bind placeholders
	args   []value.Value   // the binding the literal plan was planned for
	second []value.Value   // another binding, one value per placeholder
}

// ints is a binding of integer values.
func ints(vs ...int64) []value.Value {
	out := make([]value.Value, len(vs))
	for i, v := range vs {
		out[i] = value.NewInt(v)
	}
	return out
}

// lifecycleExtras are the sweep's plans beyond the two fuzz corpora,
// chosen so the corpus executes every plan-node kind and every operator
// that holds an expression receives a bind parameter: Fig 1 (Filter
// Join over a view, index nested loops), a block with every output
// clause, an index lookup, hash and streamed group-by with a parameter
// in the aggregate argument, parameters in select items and as a
// disjunct, a residual A.v + B.v > c under every join method (forced
// nested loops, hash, merge, index nested loops, fetch matches from a
// remote table, a Bloom Filter Join and a function probe), a function
// relation under its three strategies, a Filter Join restricting a
// stored inner by scan and by index probes, NULL join keys under every
// key-based join method, and a hand-built nested-loops join whose
// inner is not materialized.
func lifecycleExtras(t *testing.T) []sweepExtra {
	t.Helper()
	var out []sweepExtra
	// add plans text as an extra. text holds literals, which checkRebind
	// parameterizes as the engine does (sql.Normalize), or explicit
	// placeholders bound to args; second is another value for each
	// parameter.
	add := func(name string, cat *catalog.Catalog, model cost.Model, fj *core.Options, disabled []string, text string, args, second []value.Value) {
		t.Helper()
		st, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sel, ok := st.(*sql.SelectStmt)
		if !ok {
			t.Fatalf("%s: not a SELECT", name)
		}
		x := sweepExtra{stmt: sel, args: args, second: second}
		var b *query.Block
		if len(args) > 0 {
			b = literalBlock(t, cat, sel, args)
		} else {
			if b, err = sql.BindSelect(cat, sel); err != nil {
				t.Fatalf("%s: bind: %v", name, err)
			}
			x.stmt, x.args, _ = sql.Normalize(sel)
		}
		if len(x.args) != len(second) {
			t.Fatalf("%s: %d parameters, second binding has %d values", name, len(x.args), len(second))
		}
		x.fuzzPlan = planned(t, "extra/"+name, cat, b, planner(cat, model, fj, disabled...))
		x.query = text
		out = append(out, x)
	}
	model := cost.DefaultModel()
	netHeavy := model
	netHeavy.NetByte *= 5000
	plain := &core.Options{}

	// Few big departments make the filter set selective enough for the
	// Filter Join at a size the per-poll sweep can afford.
	fig1 := fig1DB(t, 1000, 100, 0.3, 0.02)
	add("fig1", fig1, model, plain, nil, `
		SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V
		WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal
		  AND E.age < 30 AND D.budget > 100000`, nil, ints(41, 40000))

	cat := sweepCatalog(t)
	add("clauses", cat, model, nil, nil, `
		SELECT A.k, COUNT(*) AS n, SUM(B.v) AS s FROM A, B
		WHERE A.k = B.k AND 1 = 1
		GROUP BY A.k HAVING n > 1 ORDER BY s DESC LIMIT 5`, nil, nil)
	add("distinct-sort", cat, model, nil, nil, `
		SELECT DISTINCT L.v FROM L WHERE L.k = 3 ORDER BY L.v`, nil, ints(4))
	add("limit", cat, model, nil, nil, `SELECT A.k, A.v FROM A LIMIT 4`, nil, nil)
	add("stream-groupby", cat, model, nil, []string{"hash", "indexnl"}, `
		SELECT A.k, COUNT(*) AS n, SUM(B.v + ?) AS s FROM A, B WHERE A.k = B.k GROUP BY A.k`, ints(3), ints(5))
	add("hash-groupby", cat, model, nil, nil, `
		SELECT A.k, SUM(A.v + ?) AS s FROM A GROUP BY A.k`, ints(3), ints(5))
	add("select-items", cat, model, nil, nil, `
		SELECT A.k, A.v + ? AS w, ? AS c FROM A WHERE A.v < 50 ORDER BY w`, ints(7, 1), ints(9, 2))
	add("predicate", cat, model, nil, nil, `
		SELECT A.k FROM A WHERE A.v < 20 OR ?`, []value.Value{value.NewBool(false)}, []value.Value{value.NewBool(true)})

	// The residual A.v + B.v > c under every join method that evaluates
	// one: each compiled residual must be rebound at every Open.
	residual := func(outer, inner string) string {
		return fmt.Sprintf(`SELECT %[1]s.k, %[2]s.v FROM %[1]s, %[2]s
			WHERE %[1]s.k = %[2]s.k AND %[1]s.v < 40 AND %[1]s.v + %[2]s.v > 100`, outer, inner)
	}
	add("nlj", cat, model, nil, []string{"hash", "merge", "indexnl"}, residual("A", "B"), nil, ints(60, 60))
	add("hash", cat, model, nil, []string{"merge", "nlj", "indexnl"}, residual("A", "B"), nil, ints(60, 60))
	add("merge", cat, model, nil, []string{"hash", "nlj", "indexnl"}, residual("A", "B"), nil, ints(60, 60))
	add("indexnl", cat, model, nil, []string{"hash", "merge", "nlj"}, residual("A", "L"), nil, ints(60, 60))
	add("fetch-preferred", cat, netHeavy, nil, []string{"hash", "merge", "nlj", "indexnl"}, residual("B", "R"), nil, ints(60, 60))
	add("bloom", cat, netHeavy, &core.Options{Bloom: true}, []string{"hash", "merge", "nlj", "indexnl", "fetchmatches"}, residual("B", "R"), nil, ints(60, 60))
	add("funcprobe", cat, model, nil, []string{"funcprobememo"}, `
		SELECT B.k, F.twice FROM B, F WHERE B.k = F.k AND B.v + F.twice > 50`, nil, ints(30))
	add("funcprobememo", cat, model, nil, []string{"funcprobe"}, `
		SELECT B.k, F.twice FROM B, F WHERE B.k = F.k`, nil, nil)
	add("consecutive", cat, model, plain, []string{"funcprobe", "funcprobememo"}, `
		SELECT B.k, F.twice FROM B, F WHERE B.k = F.k`, nil, nil)
	// A Filter Join restricting a stored inner by a scan and, with CPU
	// dearer, by index probes.
	cpuHeavy := model
	cpuHeavy.CPUTuple *= 10
	stored := &core.Options{IncludeStored: true}
	fjOnly := []string{"hash", "merge", "nlj", "indexnl"}
	add("stored-scan", cat, model, stored, fjOnly, `
		SELECT B.k, A.v FROM B, A WHERE B.k = A.k AND B.v < 10`, nil, ints(30))
	add("stored-index-probe", cat, cpuHeavy, stored, fjOnly, `
		SELECT A.k, L.v FROM A, L WHERE A.k = L.k AND A.v < 2`, nil, ints(5))

	// NULL join keys under every key-based join method, a filter set, a
	// function probe and grouping: NULL matches nothing and groups as one.
	nulls := nullSweepCatalog(t)
	join := func(outer, inner, col string) string {
		return fmt.Sprintf(`SELECT %[1]s.k, %[2]s.%[3]s FROM %[1]s, %[2]s WHERE %[1]s.k = %[2]s.k`, outer, inner, col)
	}
	add("null-hash", nulls, model, nil, []string{"merge", "nlj", "indexnl"}, join("NA", "NB", "v"), nil, nil)
	add("null-merge", nulls, model, nil, []string{"hash", "nlj", "indexnl"}, join("NA", "NB", "v"), nil, nil)
	add("null-indexnl", nulls, model, nil, []string{"hash", "merge", "nlj"}, join("NB", "NA", "v"), nil, nil)
	add("null-fetch", nulls, netHeavy, nil, []string{"hash", "merge", "nlj", "indexnl"}, join("NB", "NR", "v"), nil, nil)
	add("null-semijoin", nulls, model, plain, []string{"hash", "merge", "nlj", "indexnl", "fetchmatches"}, join("NB", "NR", "v"), nil, nil)
	add("null-stored-scan", nulls, model, stored, fjOnly, join("NB", "NA", "v"), nil, nil)
	add("null-funcprobe", nulls, model, nil, []string{"funcprobememo"}, join("NB", "F", "twice"), nil, nil)
	add("null-consecutive", nulls, model, plain, []string{"funcprobe", "funcprobememo"}, join("NB", "F", "twice"), nil, nil)
	add("null-groupby", nulls, model, nil, nil, `SELECT NA.k, COUNT(*) AS n FROM NA GROUP BY NA.k`, nil, nil)

	// Hand-built plans over instrumented Values leaves, which never poll.
	// The optimizer materializes every nested-loops inner, and the
	// uninstrumented Materialize hides the inner's own lifecycle;
	// nlj-rescan re-opens an instrumented inner per outer row. The
	// planner streams a group-by only over a merge join, which polls,
	// and a Filter Join's restricted scan is not instrumented; the other
	// three put a streamed group-by (groups of three rows) and both
	// filter sets (two rejected rows in a row) directly over a leaf, so a
	// missing poll in their own pull loops shows in the leaf's Nexts.
	leaf := func(keys ...int64) exec.Operator {
		rows := make([]value.Row, len(keys))
		for i, k := range keys {
			rows[i] = value.Row{value.NewInt(k)}
		}
		return exec.NewInstrumented(exec.NewValues(schema.New(schema.Column{Name: "k", Type: value.KindInt}), rows), "Values", nil)
	}
	upTo := func(n int64) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(i)
		}
		return keys
	}
	hand := func(name, query, kind, detail string, mk func() exec.Operator) {
		out = append(out, sweepExtra{fuzzPlan: fuzzPlan{key: "extra/" + name, query: query, plan: plan.NewNode(nil, &plan.Node{Kind: kind, Detail: detail, Make: mk})}})
	}
	hand("nlj-rescan", "4 x 5 rows, inner re-opened", "NestedLoopJoin", "cross, inner re-opened", func() exec.Operator {
		return exec.NewNestedLoopJoin(leaf(upTo(4)...), leaf(upTo(5)...), nil)
	})
	hand("stream-groupby-leaf", "COUNT(*) per k over 4 runs of 3 equal keys", "StreamGroupBy", "k; COUNT(*)", func() exec.Operator {
		return exec.NewStreamGroupBy(leaf(0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3), []int{0}, []expr.AggSpec{{Kind: expr.AggCount, Name: "n"}})
	})
	every3 := exec.NewKeySet(1)
	for k := int64(0); k < 12; k += 3 {
		every3.Add(value.Row{value.NewInt(k)}, []int{0})
	}
	hand("keyset-filter-leaf", "keys 0..11 restricted to multiples of 3", "KeySetFilter", "exact filter on {#0}", func() exec.Operator {
		return exec.NewKeySetFilter(leaf(upTo(12)...), every3, []int{0})
	})
	hand("bloom-filter-leaf", "keys 0..11 restricted to multiples of 3", "BloomFilterScan", "bloom filter on {#0}", func() exec.Operator {
		return exec.NewBloomFilterScan(leaf(upTo(12)...), every3.ToBloom(64), []int{0})
	})
	return out
}

// sweepCatalog is a small deterministic universe: local tables A and
// L (indexed on k, L large enough for an index lookup to pay) and B,
// remote R at site 1 (indexed on k), and the function relation
// F(k) = (k, 2k).
func sweepCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	mk := func(name string, rows int, mod int64) *storage.Table {
		tb := storage.NewTable(name, schema.New(
			schema.Column{Table: name, Name: "k", Type: value.KindInt},
			schema.Column{Table: name, Name: "v", Type: value.KindInt},
		))
		for i := 0; i < rows; i++ {
			tb.MustInsert(value.NewInt(int64(i)%mod), value.NewInt(int64(i*37)%100))
		}
		return tb
	}
	a, b, l, r := mk("A", 60, 12), mk("B", 40, 16), mk("L", 2000, 100), mk("R", 200, 50)
	for _, tb := range []*storage.Table{a, l, r} {
		if _, err := tb.CreateIndex(tb.Name()+"_k", []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	cat.AddTable(a)
	cat.AddTable(b)
	cat.AddTable(l)
	cat.AddRemoteTable(r, 1)
	cat.AddFunc("F", schema.New(
		schema.Column{Table: "F", Name: "k", Type: value.KindInt},
		schema.Column{Table: "F", Name: "twice", Type: value.KindInt},
	), []int{0}, func(args value.Row) ([]value.Row, error) {
		return []value.Row{{args[0], value.NewInt(args[0].Int() * 2)}}, nil
	}, &stats.RelStats{Rows: 100, Cols: []stats.ColStats{{Distinct: 100}, {Distinct: 100}}}, 1)
	return cat
}

// nullSweepCatalog holds tables whose join keys are sometimes NULL:
// local NA (indexed on k) and NB, remote NR at site 1 (indexed on k),
// and sweepCatalog's function relation F.
func nullSweepCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	mk := func(name string, rows int, mod, nullEvery int64) *storage.Table {
		tb := storage.NewTable(name, schema.New(
			schema.Column{Table: name, Name: "k", Type: value.KindInt},
			schema.Column{Table: name, Name: "v", Type: value.KindInt},
		))
		for i := int64(0); i < int64(rows); i++ {
			k := value.NewInt(i % mod)
			if i%nullEvery == 0 {
				k = value.Null
			}
			tb.MustInsert(k, value.NewInt(i*37%100))
		}
		return tb
	}
	a, b, r := mk("NA", 40, 8, 5), mk("NB", 30, 10, 4), mk("NR", 100, 25, 6)
	for _, tb := range []*storage.Table{a, r} {
		if _, err := tb.CreateIndex(tb.Name()+"_k", []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	cat.AddTable(a)
	cat.AddTable(b)
	cat.AddRemoteTable(r, 1)
	f, err := sweepCatalog(t).Get("F")
	if err != nil {
		t.Fatal(err)
	}
	cat.AddFunc(f.Name, f.FnSchema, f.ArgCols, f.Fn, f.FnStats, f.FnPerCall)
	return cat
}
