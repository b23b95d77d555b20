package core_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/dist"
	"filterjoin/internal/exec"
	"filterjoin/internal/opt"
	"filterjoin/internal/plan"
	"filterjoin/internal/schema"
	"filterjoin/internal/sql"
	"filterjoin/internal/stats"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// countdown is a caller context whose Err reports context.Canceled from
// its n-th call on (never when n <= 0). calls counts every poll.
type countdown struct {
	context.Context
	n, calls int
}

func (c *countdown) Err() error {
	c.calls++
	if c.n > 0 && c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// faultNet is the free network with one fault: its k-th Send fails with
// a *dist.SiteError (never when k <= 0). Every other Send polls
// cancellation and charges exactly as dist.Send's nil-transport path,
// so a run's polls and bill are those of the free network.
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
	err          error
	injected     error // the *dist.SiteError faultNet returned, if any
	polls, sends int
	bill         cost.Counter
	ops          []*exec.OpStats
}

// runLifecycle drains p at the given morsel size, cancelling at the
// cancelAt-th ctx.Err poll and failing the failSend-th transport send
// (0 = neither).
func runLifecycle(p *plan.Node, morsel, cancelAt, failSend int) lifecycleRun {
	caller := &countdown{Context: context.Background(), n: cancelAt}
	net := &faultNet{k: failSend}
	ctx := exec.NewContext()
	ctx.BatchSize, ctx.Caller, ctx.Net = morsel, caller, net
	_, err := exec.Drain(ctx, p.Make())
	r := lifecycleRun{err: err, polls: caller.calls, sends: net.sends, bill: *ctx.Counter, ops: ctx.OperatorStats()}
	if net.err != nil {
		r.injected = net.err
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

// checkLifecycle asserts the sweep's three properties of one run: it
// returned exactly want, every instrumented operator was closed as
// often as it was opened, and the run billed no component above clean.
func checkLifecycle(t *testing.T, what string, r lifecycleRun, want error, clean cost.Counter) {
	t.Helper()
	if want == nil && r.err != nil || want != nil && !isOnly(r.err, want) {
		t.Fatalf("%s: returned %v, want exactly %v", what, r.err, want)
	}
	for _, s := range r.ops {
		if s.Opens != s.Closes {
			t.Fatalf("%s: %s opened %d times, closed %d", what, s.Label, s.Opens, s.Closes)
		}
	}
	if !billedWithin(r.bill, clean) {
		t.Fatalf("%s: billed %s, more than the clean run's %s", what, r.bill.String(), clean.String())
	}
}

// TestLifecycleSweep checks the Volcano lifecycle by running it. Every
// plan of the corpus runs at several morsel sizes, once clean and then
// once per ctx.Err poll of the clean run, cancelled at that poll, and
// once per transport send, failing that send. Each aborted run must
// return exactly the injected error, leave every instrumented operator
// with Opens == Closes, and bill no cost component above the clean run.
// The corpus must execute every plan-node kind opt and core construct.
func TestLifecycleSweep(t *testing.T) {
	morsels := []int{1, 7, exec.DefaultBatchSize}
	if testing.Short() {
		morsels = morsels[2:]
	}
	corpus := append(rowCorpus(t, 25), distCorpus(t, 8)...)
	corpus = append(corpus, lifecycleExtras(t)...)

	seen := map[string]bool{}
	swept := map[sweptPlan]bool{}
	var cancels, faults int
	for _, fp := range corpus {
		// Configurations often agree on a plan; run each distinct one once.
		sp := sweptPlan{fp.cat, plan.Format(fp.plan, cost.DefaultModel())}
		if swept[sp] {
			continue
		}
		swept[sp] = true
		for _, m := range morsels {
			clean := runLifecycle(fp.plan, m, 0, 0)
			what := fmt.Sprintf("%s morsel=%d", fp.key, m)
			checkLifecycle(t, what+" clean", clean, nil, clean.bill)
			for _, s := range clean.ops {
				seen[s.Label] = true
			}
			for n := 1; n <= clean.polls; n++ {
				r := runLifecycle(fp.plan, m, n, 0)
				checkLifecycle(t, fmt.Sprintf("%s cancelled at poll %d/%d", what, n, clean.polls), r, context.Canceled, clean.bill)
			}
			for k := 1; k <= clean.sends; k++ {
				r := runLifecycle(fp.plan, m, 0, k)
				checkLifecycle(t, fmt.Sprintf("%s send %d/%d failed", what, k, clean.sends), r, r.injected, clean.bill)
			}
			cancels += clean.polls
			faults += clean.sends
		}
	}
	for _, kind := range plannedKinds(t) {
		if !seen[kind] {
			t.Errorf("no corpus plan executes a %s node; widen lifecycleExtras", kind)
		}
	}
	t.Logf("%d distinct plans x %d morsel sizes: %d cancelled runs, %d failed-send runs", len(swept), len(morsels), cancels, faults)
}

// sweptPlan identifies a plan by its catalog and rendered tree.
type sweptPlan struct {
	cat  *catalog.Catalog
	tree string
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

// lifecycleExtras are the sweep's plans beyond the two fuzz corpora,
// chosen so the corpus executes every plan-node kind: Fig 1 (Filter
// Join over a view, index nested loops), a block with every output
// clause, a streamed group-by over a merge join's order, a forced
// nested-loops join, a function relation under its three strategies,
// a remote block that fetches matches, and a hand-built nested-loops
// join whose inner is not materialized.
func lifecycleExtras(t *testing.T) []fuzzPlan {
	t.Helper()
	var out []fuzzPlan
	add := func(name string, cat *catalog.Catalog, model cost.Model, fj *core.Method, disabled []string, text string) {
		t.Helper()
		st, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sel, ok := st.(*sql.SelectStmt)
		if !ok {
			t.Fatalf("%s: not a SELECT", name)
		}
		b, err := sql.BindSelect(cat, sel)
		if err != nil {
			t.Fatalf("%s: bind: %v", name, err)
		}
		o := opt.New(cat, model)
		for _, d := range disabled {
			o.Disabled[d] = true
		}
		if fj != nil {
			o.Register(fj)
		}
		p, err := o.OptimizeBlock(b)
		if err != nil {
			t.Fatalf("%s: optimize: %v", name, err)
		}
		out = append(out, fuzzPlan{"extra/" + name, text, cat, p})
	}
	model := cost.DefaultModel()
	netHeavy := model
	netHeavy.NetByte *= 5000

	// Few big departments make the filter set selective enough for the
	// Filter Join at a size the per-poll sweep can afford.
	fig1 := fig1DB(t, 1000, 100, 0.3, 0.02)
	add("fig1", fig1, model, core.NewMethod(core.Options{}), nil, `
		SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V
		WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal
		  AND E.age < 30 AND D.budget > 100000`)

	cat := sweepCatalog(t)
	add("clauses", cat, model, nil, nil, `
		SELECT A.k, COUNT(*) AS n, SUM(B.v) AS s FROM A, B
		WHERE A.k = B.k AND 1 = 1
		GROUP BY A.k HAVING n > 1 ORDER BY s DESC LIMIT 5`)
	add("distinct-sort", cat, model, nil, nil, `
		SELECT DISTINCT L.v FROM L WHERE L.k = 3 ORDER BY L.v`)
	add("limit", cat, model, nil, nil, `SELECT A.k, A.v FROM A LIMIT 4`)
	add("stream-groupby", cat, model, nil, []string{"hash", "indexnl"}, `
		SELECT A.k, COUNT(*) AS n FROM A, B WHERE A.k = B.k GROUP BY A.k`)
	add("nlj", cat, model, nil, []string{"hash", "merge", "indexnl"}, `
		SELECT A.k, B.v FROM A, B WHERE A.k = B.k AND A.v < 40`)
	add("funcprobe", cat, model, nil, []string{"funcprobememo"}, `
		SELECT B.k, F.twice FROM B, F WHERE B.k = F.k`)
	add("funcprobememo", cat, model, nil, []string{"funcprobe"}, `
		SELECT B.k, F.twice FROM B, F WHERE B.k = F.k`)
	add("consecutive", cat, model, core.NewMethod(core.Options{}), []string{"funcprobe", "funcprobememo"}, `
		SELECT B.k, F.twice FROM B, F WHERE B.k = F.k`)
	add("fetch-preferred", cat, netHeavy, nil, []string{"hash", "merge", "nlj", "indexnl"}, `
		SELECT B.k, R.v FROM B, R WHERE B.k = R.k AND B.v < 30`)

	// The optimizer materializes every nested-loops inner, and the
	// uninstrumented Materialize hides the inner's own lifecycle; this
	// hand-built join re-opens an instrumented inner per outer row.
	leaf := func(n int) exec.Operator {
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.Row{value.NewInt(int64(i))}
		}
		return exec.NewInstrumented(exec.NewValues(schema.New(schema.Column{Name: "k", Type: value.KindInt}), rows), "Values", nil)
	}
	out = append(out, fuzzPlan{key: "extra/nlj-rescan", query: "4 x 5 rows, inner re-opened", plan: plan.NewNode(nil, &plan.Node{
		Kind:   "NestedLoopJoin",
		Detail: "cross, inner re-opened",
		Make:   func() exec.Operator { return exec.NewNestedLoopJoin(leaf(4), leaf(5), nil) },
	})})
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
