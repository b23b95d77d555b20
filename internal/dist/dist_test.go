package dist

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"filterjoin/internal/cost"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

func table(t testing.TB, name string, rows [][]int64) *storage.Table {
	t.Helper()
	s := schema.New(
		schema.Column{Table: name, Name: "k", Type: value.KindInt},
		schema.Column{Table: name, Name: "v", Type: value.KindInt},
	)
	tb := storage.NewTable(name, s)
	for _, r := range rows {
		tb.MustInsert(value.NewInt(r[0]), value.NewInt(r[1]))
	}
	return tb
}

func TestShipCharges(t *testing.T) {
	tb := table(t, "r", [][]int64{{1, 1}, {2, 2}, {3, 3}})
	ship := exec.NewShip(exec.NewTableScan(tb, ""), 16, 1)
	ctx := exec.NewContext()
	rows, err := exec.Drain(ctx, ship)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if ctx.Counter.NetMsgs != 1 {
		t.Errorf("NetMsgs = %d, want 1 per Open", ctx.Counter.NetMsgs)
	}
	if ctx.Counter.NetBytes != 3*16 {
		t.Errorf("NetBytes = %d, want 48", ctx.Counter.NetBytes)
	}
	// A second execution charges a second message.
	if _, err := exec.Drain(ctx, ship); err != nil {
		t.Fatal(err)
	}
	if ctx.Counter.NetMsgs != 2 {
		t.Error("each Open is a shipment")
	}
}

func TestFetchMatchesJoinResults(t *testing.T) {
	outer := table(t, "o", [][]int64{{1, 0}, {2, 0}, {9, 0}})
	inner := table(t, "i", [][]int64{{1, 10}, {1, 11}, {2, 20}, {3, 30}})
	ix, err := inner.CreateIndex("ik", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	j := exec.NewIndexNLJoin(exec.NewTableScan(outer, "o"), inner, ix, []int{0}, nil, "i", 1)
	ctx := exec.NewContext()
	rows, err := exec.Drain(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(rows))
	for i, r := range rows {
		got[i] = r.String()
	}
	sort.Strings(got)
	want := []string{"(1, 0, 1, 10)", "(1, 0, 1, 11)", "(2, 0, 2, 20)"}
	if len(got) != len(want) {
		t.Fatalf("rows = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %s, want %s", i, got[i], want[i])
		}
	}
	// One message and key shipment per outer row.
	if ctx.Counter.NetMsgs != 3 {
		t.Errorf("NetMsgs = %d, want 3", ctx.Counter.NetMsgs)
	}
	if ctx.Counter.NetBytes == 0 {
		t.Error("keys and matches must cost bytes")
	}
	if j.Schema().Len() != 4 {
		t.Errorf("output schema width = %d", j.Schema().Len())
	}
}

func TestFetchMatchesResidual(t *testing.T) {
	outer := table(t, "o", [][]int64{{1, 15}})
	inner := table(t, "i", [][]int64{{1, 10}, {1, 20}})
	ix, _ := inner.CreateIndex("ik", []int{0})
	// o.v < i.v over (o.k o.v i.k i.v).
	res := expr.NewCmp(expr.LT, expr.NewCol(1, "o.v"), expr.NewCol(3, "i.v"))
	j := exec.NewIndexNLJoin(exec.NewTableScan(outer, "o"), inner, ix, []int{0}, res, "i", 1)
	ctx := exec.NewContext()
	rows, err := exec.Drain(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][3].Int() != 20 {
		t.Errorf("residual filtering wrong: %v", rows)
	}
}

func TestFetchMatchesRestartable(t *testing.T) {
	outer := table(t, "o", [][]int64{{1, 0}})
	inner := table(t, "i", [][]int64{{1, 10}})
	ix, _ := inner.CreateIndex("ik", []int{0})
	j := exec.NewIndexNLJoin(exec.NewTableScan(outer, "o"), inner, ix, []int{0}, nil, "i", 1)
	ctx := exec.NewContext()
	r1, err := exec.Drain(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := exec.Drain(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != 1 || len(r2) != 1 {
		t.Error("join must be restartable")
	}
}

// errOpenOp fails at Open without consuming anything; its schema is
// borrowed from a real operator.
type errOpenOp struct{ exec.Operator }

func (e errOpenOp) Open(*exec.Context) error { return errFail }

var errFail = fmt.Errorf("child open failed")

// Regression (ISSUE 5 satellite 1): Ship used to charge its stream-open
// NetMsg before opening the child, so a failed child open left a
// phantom message in the counter and broke cost conservation on error
// paths. The message must be charged only after the child opens.
func TestShipFailedChildOpenChargesNothing(t *testing.T) {
	tb := table(t, "r", [][]int64{{1, 1}})
	ship := exec.NewShip(errOpenOp{exec.NewTableScan(tb, "")}, 16, 1)
	ctx := exec.NewContext()
	if err := ship.Open(ctx); !errors.Is(err, errFail) {
		t.Fatalf("Open = %v, want child failure", err)
	}
	if !ctx.Counter.IsZero() {
		t.Fatalf("failed child open must charge nothing, charged %s", ctx.Counter)
	}
	// The operator is still usable once the child recovers.
	ok := exec.NewShip(exec.NewTableScan(tb, ""), 16, 1)
	rows, err := exec.Drain(ctx, ok)
	if err != nil || len(rows) != 1 {
		t.Fatalf("recovered run: rows=%d err=%v", len(rows), err)
	}
	if ctx.Counter.NetMsgs != 1 {
		t.Fatalf("NetMsgs = %d, want exactly the successful shipment", ctx.Counter.NetMsgs)
	}
}

// Ship self-closes its already-opened child when the stream-open
// message itself dies (chaos transport out of retries), because callers
// never Close an operator whose Open failed.
func TestShipSendFailureClosesChild(t *testing.T) {
	tb := table(t, "r", [][]int64{{1, 1}})
	child := exec.NewInstrumented(exec.NewTableScan(tb, ""), "TableScan", nil)
	ship := exec.NewShip(child, 16, 1)
	ctx := exec.NewContext()
	n := NewTransport(&scriptLink{script: []Outcome{
		{Err: ErrSiteDown}, {Err: ErrSiteDown},
	}}, RetryPolicy{MaxAttempts: 2, BackoffMs: 1})
	ctx.Net = n
	err := ship.Open(ctx)
	var se *SiteError
	if !errors.As(err, &se) {
		t.Fatalf("Open = %v, want *SiteError", err)
	}
	if st := child.Stats(); st.Opens != 1 || st.Closes != 1 {
		t.Fatalf("child opens=%d closes=%d after the failed send, want 1/1", st.Opens, st.Closes)
	}
	// The child was closed and the operator restarts cleanly once the
	// outage passes (script exhausted ⇒ link delivers).
	rows, err := exec.Drain(ctx, ship)
	if err != nil || len(rows) != 1 {
		t.Fatalf("after outage: rows=%d err=%v", len(rows), err)
	}
}

// Regression (ISSUE 5 satellite 2): Close used to leave cur/ids/done
// from an aborted run, so a Close→reOpen cycle after a mid-stream
// residual-eval error could replay stale match state. A residual that
// errors on one specific inner row aborts the first run mid-match-list;
// the reopened run with a fixed residual must produce exactly the full
// result, with no rows replayed from the stale cursor. (The join is the
// remote IndexNLJoin; TestRemoteIndexNLJoinAddsOnlyTheNetwork checks the
// cursor fields Close clears.)
func TestFetchMatchesReopenAfterResidualError(t *testing.T) {
	outer := table(t, "o", [][]int64{{1, 0}, {2, 0}})
	inner := table(t, "i", [][]int64{{1, 10}, {1, 20}, {1, 30}, {2, 40}})
	ix, err := inner.CreateIndex("ik", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// 1/(i.v-20) errors (integer division by zero) exactly at i.v=20,
	// after the i.v=10 match was already emitted.
	bad := expr.NewCmp(expr.LT, expr.Int(-100), expr.Arith{
		Op: expr.Div,
		L:  expr.Int(1),
		R:  expr.Arith{Op: expr.Sub, L: expr.NewCol(3, "i.v"), R: expr.Int(20)},
	})
	j := exec.NewIndexNLJoin(exec.NewTableScan(outer, "o"), inner, ix, []int{0}, bad, "i", 1)
	ctx := exec.NewContext()
	if err := j.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var rd exec.RowReader
	if _, ok, err := rd.Read(ctx, j); err != nil || !ok {
		t.Fatalf("first match should emit: ok=%v err=%v", ok, err)
	}
	if _, _, err := rd.Read(ctx, j); err == nil {
		t.Fatal("second match should fail residual eval")
	}
	j.Close(ctx)

	// Rerun without the poisoned residual on the same operator value:
	// stale cur/ids/done must not leak into the new run.
	j.Residual = nil
	rows, err := exec.Drain(exec.NewContext(), j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("reopened run produced %d rows, want 4 (stale match state replayed?)", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		k := r.FullKey()
		if seen[k] {
			t.Fatalf("duplicate row %s after reopen", r)
		}
		seen[k] = true
	}
}

// Close must also reset the end-of-stream latch so inspect-then-reopen
// sequences see a fresh operator.
func TestFetchMatchesCloseResetsDone(t *testing.T) {
	outer := table(t, "o", [][]int64{{1, 0}})
	inner := table(t, "i", [][]int64{{1, 10}})
	ix, _ := inner.CreateIndex("ik", []int{0})
	j := exec.NewIndexNLJoin(exec.NewTableScan(outer, "o"), inner, ix, []int{0}, nil, "i", 1)
	ctx := exec.NewContext()
	if _, err := exec.Drain(ctx, j); err != nil {
		t.Fatal(err)
	}
	if rows, err := exec.Drain(ctx, j); err != nil || len(rows) != 1 {
		t.Fatalf("reopened run: %d rows, err %v; want 1 row (end-of-stream latch not reset?)", len(rows), err)
	}
}

// Both remote operators (Ship and the remote IndexNLJoin) recover
// transparently from injected faults: same rows as the fault-free run,
// extra cost charged to Retries/WaitMs.
func TestDistOperatorsUnderChaos(t *testing.T) {
	outer := table(t, "o", [][]int64{{1, 0}, {2, 0}, {3, 0}, {9, 0}})
	inner := table(t, "i", [][]int64{{1, 10}, {2, 20}, {2, 21}, {3, 30}})
	ix, err := inner.CreateIndex("ik", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	mkPlan := func() exec.Operator {
		fm := exec.NewIndexNLJoin(exec.NewTableScan(outer, "o"), inner, ix, []int{0}, nil, "i", 2)
		return exec.NewShip(fm, 32, 1)
	}
	canon := func(rows []value.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.String()
		}
		sort.Strings(out)
		return out
	}
	freeCtx := exec.NewContext()
	freeRows, err := exec.Drain(freeCtx, mkPlan())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ChaosConfig{Seed: 7, DropRate: 0.4, MaxLatencyMs: 60, OutageEvery: 3, OutageLen: 1}
	pol := RetryPolicy{MaxAttempts: 5, TimeoutMs: 40, BackoffMs: 2}
	var prev cost.Counter
	for trial := 0; trial < 2; trial++ {
		ctx := exec.NewContext()
		ctx.Net = NewChaosTransport(cfg, pol)
		rows, err := exec.Drain(ctx, mkPlan())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got, want := canon(rows), canon(freeRows); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("chaos rows %v differ from fault-free %v", got, want)
		}
		if ctx.Counter.Retries == 0 {
			t.Fatal("this schedule should force retries")
		}
		free := *freeCtx.Counter
		got := *ctx.Counter
		// Local work is untouched by faults; the network bill grows by
		// exactly one message (plus its payload bytes) per retry.
		if got.PageReads != free.PageReads || got.CPUTuples != free.CPUTuples || got.PageWrites != free.PageWrites {
			t.Fatalf("faults must not change local work: %s vs %s", got.String(), free.String())
		}
		if got.NetMsgs != free.NetMsgs+got.Retries {
			t.Fatalf("NetMsgs = %d, want fault-free %d + retries %d", got.NetMsgs, free.NetMsgs, got.Retries)
		}
		if got.NetBytes < free.NetBytes || got.WaitMs == 0 {
			t.Fatalf("retried attempts must recharge bytes and waits: %s vs %s", got.String(), free.String())
		}
		if trial == 1 && *ctx.Counter != prev {
			t.Fatalf("same seed, different totals: %s vs %s", ctx.Counter, prev.String())
		}
		prev = *ctx.Counter
	}
}
