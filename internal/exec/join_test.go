package exec

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"filterjoin/internal/catalog"
	"filterjoin/internal/cost"
	"filterjoin/internal/expr"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/sqlref"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// randIntTable draws n rows (k, v) with k below keyRange and v below
// 100. Each k is NULL with probability nullFrac; at 0 no extra number is
// drawn, so a seed draws the same rows with and without the parameter.
func randIntTable(t testing.TB, name string, rng *rand.Rand, n, keyRange int, nullFrac float64) *storage.Table {
	t.Helper()
	s := schema.New(schema.Column{Table: name, Name: "k", Type: value.KindInt}, schema.Column{Table: name, Name: "v", Type: value.KindInt})
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(rng.Intn(keyRange))), value.NewInt(int64(rng.Intn(100)))}
		if nullFrac > 0 && rng.Float64() < nullFrac {
			rows[i][0] = value.Null
		}
	}
	return storage.FromRows(name, s, rows)
}

// residualGT is l.v > r.v over the joined layout (l.k l.v r.k r.v).
func residualGT() expr.Expr {
	return expr.NewCmp(expr.GT, expr.NewCol(1, "l.v"), expr.NewCol(3, "r.v"))
}

// TestJoinOperatorsAgreeProperty is the central executor property: every
// join algorithm must return SQL's answer to l ⋈ r on k on random inputs,
// with and without a residual predicate and NULL keys.
func TestJoinOperatorsAgreeProperty(t *testing.T) {
	f := func(seed int64, withResidual, withNulls bool) bool {
		rng := rand.New(rand.NewSource(seed))
		nullFrac := 0.0
		if withNulls {
			nullFrac = 0.25
		}
		lt := randIntTable(t, "l", rng, 1+rng.Intn(60), 1+rng.Intn(10), nullFrac)
		rt := randIntTable(t, "r", rng, 1+rng.Intn(60), 1+rng.Intn(10), nullFrac)
		var residual expr.Expr
		if withResidual {
			residual = residualGT()
		}
		cat := catalog.New()
		cat.AddTable(lt)
		cat.AddTable(rt)
		q := &query.Block{
			Rels:  []query.RelRef{{Name: "l"}, {Name: "r"}},
			Preds: []expr.Expr{expr.Eq(expr.NewCol(0, "l.k"), expr.NewCol(2, "r.k"))},
		}
		if residual != nil {
			q.Preds = append(q.Preds, residual)
		}
		agrees := func(what string, op Operator) bool {
			got, _ := drain(t, op)
			if err := sqlref.Check(cat, q, got); err != nil {
				t.Logf("%s (seed %d): %v", what, seed, err)
				return false
			}
			return true
		}

		// Hash join (build left, emit left‖right).
		if !agrees("hash join", NewHashJoin(NewTableScan(lt, "l"), NewTableScan(rt, "r"), []int{0}, []int{0}, residual)) ||
			!agrees("merge join", NewMergeJoin(NewTableScan(lt, "l"), NewTableScan(rt, "r"), []int{0}, []int{0}, residual)) {
			return false
		}

		// Nested loops with the full predicate.
		pred := expr.NewAnd(
			expr.Eq(expr.NewCol(0, "l.k"), expr.NewCol(2, "r.k")),
			orTrue(residual),
		)
		if !agrees("nested loops", NewNestedLoopJoin(NewTableScan(lt, "l"), NewMaterialize(NewTableScan(rt, "r"), "m"), pred)) {
			return false
		}

		// Index nested loops.
		ix, err := rt.CreateIndex("rk", []int{0})
		if err != nil {
			return false
		}
		return agrees("index NL", NewIndexNLJoin(NewTableScan(lt, "l"), rt, ix, []int{0}, residual, "r", 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func orTrue(e expr.Expr) expr.Expr {
	if e == nil {
		return expr.NewLit(value.NewBool(true))
	}
	return e
}

func TestHashJoinProbeFirstLayout(t *testing.T) {
	lt := intTable(t, "l", []string{"k", "lv"}, [][]int64{{1, 100}})
	rt := intTable(t, "r", []string{"k", "rv"}, [][]int64{{1, 200}})
	// Build on l, probe with r, emit probe-first: (r.k r.rv l.k l.lv).
	hj := NewHashJoinProbeFirst(NewTableScan(lt, "l"), NewTableScan(rt, "r"), []int{0}, []int{0}, nil)
	rows, _ := drain(t, hj)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][1].Int() != 200 || rows[0][3].Int() != 100 {
		t.Errorf("probe-first layout wrong: %v", rows[0])
	}
	if hj.Schema().Col(1).Name != "rv" {
		t.Errorf("schema layout wrong: %s", hj.Schema())
	}
}

func TestMergeJoinDuplicateGroups(t *testing.T) {
	lt := intTable(t, "l", []string{"k"}, [][]int64{{1}, {1}, {2}})
	rt := intTable(t, "r", []string{"k"}, [][]int64{{1}, {1}, {1}, {3}})
	mj := NewMergeJoin(NewTableScan(lt, "l"), NewTableScan(rt, "r"), []int{0}, []int{0}, nil)
	rows, _ := drain(t, mj)
	if len(rows) != 6 { // 2 left × 3 right on key 1
		t.Errorf("duplicate-group join produced %d rows, want 6", len(rows))
	}
}

func TestNestedLoopJoinCrossProduct(t *testing.T) {
	lt := intTable(t, "l", []string{"a"}, [][]int64{{1}, {2}})
	rt := intTable(t, "r", []string{"b"}, [][]int64{{10}, {20}, {30}})
	nl := NewNestedLoopJoin(NewTableScan(lt, "l"), NewMaterialize(NewTableScan(rt, "r"), "m"), nil)
	rows, _ := drain(t, nl)
	if len(rows) != 6 {
		t.Errorf("cross product = %d rows, want 6", len(rows))
	}
}

// Reset must drop both pieces of loop state: the held outer row of a run
// stopped mid-inner, and the end-of-stream latch of a run that finished.
func TestLoopJoinResetRewinds(t *testing.T) {
	lt := intTable(t, "l", []string{"a"}, [][]int64{{1}, {2}})
	rt := intTable(t, "r", []string{"b"}, [][]int64{{10}, {20}, {30}})
	nl := NewNestedLoopJoin(NewTableScan(lt, "l"), NewMaterialize(NewTableScan(rt, "r"), "m"), nil)
	ctx := NewContext()
	if err := nl.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if !nl.loop.Rewound() {
		t.Fatal("a freshly opened loop must be rewound")
	}
	b := NewBatch(8)
	if err := nl.NextBatch(ctx, &b, 1); err != nil || b.Len() != 1 {
		t.Fatalf("first pull: %d rows, err %v", b.Len(), err)
	}
	if nl.loop.cur == nil || nl.loop.Rewound() {
		t.Fatal("mid-inner the loop holds its outer row")
	}
	nl.loop.Reset()
	if nl.loop.cur != nil || nl.loop.done || !nl.loop.Rewound() {
		t.Fatal("Reset must drop the held outer row")
	}
	nl.Close(ctx)

	if rows, _ := drain(t, nl); len(rows) != 6 {
		t.Fatalf("full run = %d rows, want 6", len(rows))
	}
	if !nl.loop.done || nl.loop.Rewound() {
		t.Fatal("a drained loop latches end of stream")
	}
	nl.loop.Reset()
	if nl.loop.cur != nil || nl.loop.done || !nl.loop.Rewound() {
		t.Fatal("Reset must clear the end-of-stream latch")
	}
}

func TestIndexNLJoinChargesProbes(t *testing.T) {
	lrows := [][]int64{{1, 0}, {2, 0}, {3, 0}}
	lt := intTable(t, "l", []string{"k", "v"}, lrows)
	rrows := make([][]int64, 100)
	for i := range rrows {
		rrows[i] = []int64{int64(i % 10), int64(i)}
	}
	rt := intTable(t, "r", []string{"k", "v"}, rrows)
	ix, _ := rt.CreateIndex("rk", []int{0})
	inl := NewIndexNLJoin(NewTableScan(lt, "l"), rt, ix, []int{0}, nil, "r", 0)
	rows, c := drain(t, inl)
	if len(rows) != 30 {
		t.Fatalf("rows = %d", len(rows))
	}
	// At least one index-probe page read per outer row.
	if c.PageReads < 3 {
		t.Errorf("PageReads = %d", c.PageReads)
	}
}

// TestRemoteIndexNLJoinAddsOnlyTheNetwork: one IndexNLJoin serves both
// the local probe and the remote one (fetch matches). Over the same
// inputs the remote join returns the same rows and charges the same
// local work; on top it sends one key message per probe with a non-NULL
// key and ships every index match back.
func TestRemoteIndexNLJoinAddsOnlyTheNetwork(t *testing.T) {
	for _, tc := range []struct {
		name     string
		seed     int64
		nullFrac float64
		residual expr.Expr
	}{
		{"plain", 1, 0, nil},
		{"nulls", 2, 0.25, nil},
		{"residual", 3, 0.25, residualGT()},
		{"residual-2", 4, 0, residualGT()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			lt := randIntTable(t, "l", rng, 40, 12, tc.nullFrac)
			rt := randIntTable(t, "r", rng, 60, 8, tc.nullFrac)
			ix, err := rt.CreateIndex("rk", []int{0})
			if err != nil {
				t.Fatal(err)
			}
			var probes, matches int64
			for _, l := range lt.Rows() {
				if l[0].IsNull() {
					continue
				}
				probes++
				for _, r := range rt.Rows() {
					if value.Compare(l[0], r[0]) == 0 {
						matches++
					}
				}
			}
			run := func(site int) ([]value.Row, *IndexNLJoin, cost.Counter) {
				j := NewIndexNLJoin(NewTableScan(lt, "l"), rt, ix, []int{0}, tc.residual, "r", site)
				rows, c := drain(t, j)
				return rows, j, c
			}
			localRows, lj, local := run(0)
			remoteRows, rj, remote := run(3)
			if got, want := sqlref.Canon(remoteRows), sqlref.Canon(localRows); !slices.Equal(got, want) {
				t.Fatalf("remote rows %v, local %v", got, want)
			}
			if local.NetMsgs != 0 || local.NetBytes != 0 {
				t.Fatalf("local probe crossed the network: %s", local.String())
			}
			keyBytes, rowBytes := int64(8), int64(rt.Schema().RowWidth())
			want := local
			want.NetMsgs = probes
			want.NetBytes = keyBytes*probes + rowBytes*matches
			if remote != want {
				t.Fatalf("remote charged %s, want local %s + %d messages, %d×%d + %d×%d bytes",
					remote.String(), local.String(), probes, probes, keyBytes, matches, rowBytes)
			}
			for _, j := range []*IndexNLJoin{lj, rj} {
				if !j.loop.Rewound() || j.ids != nil || j.pos != 0 {
					t.Fatalf("site %d: Close must clear the held outer row and its match cursor", j.Site)
				}
			}
		})
	}
}

// TestIndexNLJoinCloseAfterErrorClearsCursor: a residual that fails on
// the second match of an outer row aborts the run mid-match-list; Close
// must drop the held outer row and its matches, local or remote.
func TestIndexNLJoinCloseAfterErrorClearsCursor(t *testing.T) {
	lt := intTable(t, "l", []string{"k", "v"}, [][]int64{{1, 0}, {2, 0}})
	rt := intTable(t, "r", []string{"k", "v"}, [][]int64{{1, 10}, {1, 20}, {1, 30}, {2, 40}})
	ix, err := rt.CreateIndex("rk", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// -100 < 1/(r.v-20): integer division by zero exactly at r.v = 20.
	bad := expr.NewCmp(expr.LT, expr.Int(-100), expr.Arith{
		Op: expr.Div,
		L:  expr.Int(1),
		R:  expr.Arith{Op: expr.Sub, L: expr.NewCol(3, "r.v"), R: expr.Int(20)},
	})
	for _, site := range []int{0, 1} {
		j := NewIndexNLJoin(NewTableScan(lt, "l"), rt, ix, []int{0}, bad, "r", site)
		ctx := NewContext()
		if err := j.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := pullRow(ctx, j); err != nil || !ok {
			t.Fatalf("site %d: first match should emit: ok=%v err=%v", site, ok, err)
		}
		if _, _, err := pullRow(ctx, j); err == nil {
			t.Fatalf("site %d: second match should fail residual eval", site)
		}
		j.Close(ctx)
		if !j.loop.Rewound() || j.ids != nil || j.pos != 0 {
			t.Fatalf("site %d: Close after a mid-stream error must drop the held outer row and its matches", site)
		}
	}
}

func TestEmptyInputsJoins(t *testing.T) {
	lt := intTable(t, "l", []string{"k"}, nil)
	rt := intTable(t, "r", []string{"k"}, [][]int64{{1}})
	hj := NewHashJoin(NewTableScan(lt, "l"), NewTableScan(rt, "r"), []int{0}, []int{0}, nil)
	rows, _ := drain(t, hj)
	if len(rows) != 0 {
		t.Error("join with empty build side must be empty")
	}
	mj := NewMergeJoin(NewTableScan(rt, "r"), NewTableScan(lt, "l"), []int{0}, []int{0}, nil)
	rows, _ = drain(t, mj)
	if len(rows) != 0 {
		t.Error("join with empty right side must be empty")
	}
}

// seqEqual compares two row sequences positionally.
func seqEqual(t *testing.T, got, want []value.Row, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Fatalf("%s: row %d = %s, want %s", what, i, got[i], want[i])
		}
	}
}

func join2Tables(t *testing.T) (build, probe func() Operator) {
	t.Helper()
	lrows := make([][]int64, 200)
	for i := range lrows {
		lrows[i] = []int64{int64(i % 17), int64(i)}
	}
	rrows := make([][]int64, 300)
	for i := range rrows {
		rrows[i] = []int64{int64(i % 23), int64(-i)}
	}
	lt := intTable(t, "l", []string{"k", "lv"}, lrows)
	rt := intTable(t, "r", []string{"k", "rv"}, rrows)
	return func() Operator { return NewTableScan(lt, "") },
		func() Operator { return NewTableScan(rt, "") }
}

// The size hint must never change results — only pre-size allocations.
func TestBuildSizeHintNeutral(t *testing.T) {
	mkBuild, mkProbe := join2Tables(t)
	want, wantCost := drain(t, NewHashJoinProbeFirst(mkBuild(), mkProbe(), []int{0}, []int{0}, nil))
	hinted := NewHashJoinProbeFirst(mkBuild(), mkProbe(), []int{0}, []int{0}, nil)
	hinted.BuildSizeHint = 10_000
	got, gotCost := drain(t, hinted)
	seqEqual(t, got, want, "hinted hash join")
	if gotCost != wantCost {
		t.Errorf("hinted cost %s, want %s", gotCost.String(), wantCost.String())
	}
}
