package exec

import (
	"errors"
	"testing"

	"filterjoin/internal/cost"
	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

func intSchema(table string, cols ...string) *schema.Schema {
	sc := make([]schema.Column, len(cols))
	for i, c := range cols {
		sc[i] = schema.Column{Table: table, Name: c, Type: value.KindInt}
	}
	return schema.New(sc...)
}

func intRows(vals ...[]int64) []value.Row {
	out := make([]value.Row, len(vals))
	for i, vs := range vals {
		r := make(value.Row, len(vs))
		for j, v := range vs {
			r[j] = value.NewInt(v)
		}
		out[i] = r
	}
	return out
}

// sumSelf checks the attribution invariant: per-operator exclusive
// deltas must sum to the context's total counter.
func sumSelf(t *testing.T, ctx *Context) {
	t.Helper()
	var sum cost.Counter
	for _, s := range ctx.OperatorStats() {
		sum.Add(s.Self())
	}
	if sum != *ctx.Counter {
		t.Fatalf("sum of per-operator Self = %s, want total %s", sum.String(), ctx.Counter.String())
	}
}

func TestInstrumentedBasicCounts(t *testing.T) {
	in := NewInstrumented(NewValues(intSchema("t", "a"), intRows([]int64{1}, []int64{2}, []int64{3})), "Values", nil)
	ctx := NewContext()
	rows, err := Drain(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	st := in.Stats()
	if st.Opens != 1 || st.Closes != 1 {
		t.Fatalf("opens=%d closes=%d, want 1/1", st.Opens, st.Closes)
	}
	if st.Rows != 3 || st.Nexts != 4 { // 3 rows + 1 end-of-stream call
		t.Fatalf("rows=%d nexts=%d, want 3/4", st.Rows, st.Nexts)
	}
	if st.Inclusive.CPUTuples != 3 {
		t.Fatalf("inclusive cpu = %d, want 3", st.Inclusive.CPUTuples)
	}
	if got := ctx.OperatorStats(); len(got) != 1 || got[0] != st {
		t.Fatalf("context registry = %v, want the one shim", got)
	}
	sumSelf(t, ctx)
}

// A failed Open is not an Open: callers never Close an operator whose
// Open failed, so counting it would make a correct error path read as a
// leak (Opens > Closes).
func TestInstrumentedFailedOpenNotCounted(t *testing.T) {
	boom := errors.New("boom")
	in := NewInstrumented(Error(intSchema("t", "a"), boom), "Error", nil)
	ctx := NewContext()
	if _, err := Drain(ctx, in); !errors.Is(err, boom) {
		t.Fatalf("Drain = %v, want %v", err, boom)
	}
	if st := in.Stats(); st.Opens != 0 || st.Closes != 0 {
		t.Fatalf("opens=%d closes=%d after a failed Open, want 0/0", st.Opens, st.Closes)
	}
}

// The inner of a nested-loops join is re-opened once per outer row; its
// single OpStats must accumulate across restarts (Opens counts the
// restarts, Rows the grand total) rather than resetting or splitting.
func TestInstrumentedAccumulatesAcrossReOpens(t *testing.T) {
	outerRows := intRows([]int64{1}, []int64{2}, []int64{3})
	innerRows := intRows([]int64{10}, []int64{20})
	outer := NewInstrumented(NewValues(intSchema("o", "a"), outerRows), "outer", nil)
	inner := NewInstrumented(NewValues(intSchema("i", "b"), innerRows), "inner", nil)
	join := NewInstrumented(NewNestedLoopJoin(outer, inner, nil), "nlj", nil)

	ctx := NewContext()
	rows, err := Drain(ctx, join)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	ist := inner.Stats()
	if ist.Opens != 3 {
		t.Fatalf("inner opens = %d, want 3 (one per outer row)", ist.Opens)
	}
	if ist.Rows != 6 {
		t.Fatalf("inner rows = %d, want 6 cumulative across re-opens", ist.Rows)
	}
	if ost := outer.Stats(); ost.Opens != 1 || ost.Rows != 3 {
		t.Fatalf("outer opens=%d rows=%d, want 1/3", ost.Opens, ost.Rows)
	}
	if jst := join.Stats(); jst.Rows != 6 || jst.Opens != 1 {
		t.Fatalf("join opens=%d rows=%d, want 1/6", jst.Opens, jst.Rows)
	}
	// The join charges one CPU op per inner row tested plus one per
	// emitted row; none of that may leak into the children's Self.
	if got := inner.Stats().Self().CPUTuples; got != 6 {
		t.Fatalf("inner self cpu = %d, want 6 (its own Values charges)", got)
	}
	if len(ctx.OperatorStats()) != 3 {
		t.Fatalf("registry has %d entries, want 3 (no duplicates on re-open)", len(ctx.OperatorStats()))
	}
	sumSelf(t, ctx)
}

// Draining the same instrumented tree twice keeps accumulating into the
// same stats blocks without re-registering.
func TestInstrumentedSecondDrainAccumulates(t *testing.T) {
	vals := NewInstrumented(NewValues(intSchema("t", "a"), intRows([]int64{1}, []int64{2})), "Values", nil)
	sel := NewInstrumented(NewSelect(vals, expr.Cmp{Op: expr.GT, L: expr.NewCol(0, "a"), R: expr.NewLit(value.NewInt(1))}), "Select", nil)

	ctx := NewContext()
	for pass := 1; pass <= 2; pass++ {
		rows, err := Drain(ctx, sel)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatalf("pass %d: rows = %d, want 1", pass, len(rows))
		}
	}
	if st := vals.Stats(); st.Opens != 2 || st.Rows != 4 {
		t.Fatalf("values opens=%d rows=%d, want 2/4", st.Opens, st.Rows)
	}
	if st := sel.Stats(); st.Opens != 2 || st.Rows != 2 {
		t.Fatalf("select opens=%d rows=%d, want 2/2", st.Opens, st.Rows)
	}
	if len(ctx.OperatorStats()) != 2 {
		t.Fatalf("registry has %d entries, want 2", len(ctx.OperatorStats()))
	}
	sumSelf(t, ctx)
}

// A hash join drains its build side inside Open: the build child's
// charges land while two shims are on the stack, and must be credited
// to the child, not double-counted in the parent's Self.
func TestInstrumentedAttributionNests(t *testing.T) {
	build := NewInstrumented(NewValues(intSchema("b", "k"), intRows([]int64{1}, []int64{2})), "build", nil)
	probe := NewInstrumented(NewValues(intSchema("p", "k"), intRows([]int64{1}, []int64{2}, []int64{3})), "probe", nil)
	join := NewInstrumented(NewHashJoin(build, probe, []int{0}, []int{0}, nil), "hash", nil)

	ctx := NewContext()
	rows, err := Drain(ctx, join)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if got := build.Stats().Self().CPUTuples; got != 2 {
		t.Fatalf("build self cpu = %d, want 2", got)
	}
	if incl := join.Stats().Inclusive; incl != *ctx.Counter {
		t.Fatalf("root inclusive = %s, want full counter %s", incl.String(), ctx.Counter.String())
	}
	sumSelf(t, ctx)
}

func TestOpStatsMergeAndSelfWall(t *testing.T) {
	a := &OpStats{Label: "x", Opens: 1, Nexts: 3, Closes: 1, Rows: 2,
		Inclusive: cost.Counter{CPUTuples: 5}, childIncl: cost.Counter{CPUTuples: 2}}
	b := &OpStats{Label: "x", Opens: 2, Nexts: 4, Closes: 2, Rows: 3,
		Inclusive: cost.Counter{CPUTuples: 7}, childIncl: cost.Counter{CPUTuples: 3}}
	a.Merge(b)
	if a.Opens != 3 || a.Nexts != 7 || a.Closes != 3 || a.Rows != 5 {
		t.Fatalf("merged counts wrong: %+v", a)
	}
	if got := a.Self().CPUTuples; got != 7 { // (5+7) - (2+3)
		t.Fatalf("merged self cpu = %d, want 7", got)
	}
}
