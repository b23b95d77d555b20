package exec

import (
	"container/heap"

	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

// TopN keeps the N smallest rows under the sort keys (with Desc flags,
// "smallest" means first in the requested order) using a bounded heap —
// the standard Sort+Limit fusion. It charges one CPU operation per input
// row plus log₂N per heap displacement, which for small N is far cheaper
// than sorting the whole input.
type TopN struct {
	Child Operator
	N     int
	Keys  []int
	Desc  []bool

	rows []value.Row
	pos  int
}

// NewTopN builds a top-N operator.
func NewTopN(child Operator, n int, keys []int, desc []bool) *TopN {
	return &TopN{Child: child, N: n, Keys: keys, Desc: desc}
}

// Schema implements Operator.
func (t *TopN) Schema() *schema.Schema { return t.Child.Schema() }

// topHeap is a max-heap of the current N best rows: the root is the
// WORST of the kept rows, so a better incoming row displaces it.
type topHeap struct {
	rows []value.Row
	keys []int
	desc []bool
}

func (h *topHeap) Len() int { return len(h.rows) }
func (h *topHeap) Less(i, j int) bool {
	// Max-heap: "greater in requested order" floats to the root.
	return value.CompareRows(h.rows[i], h.rows[j], h.keys, h.desc) > 0
}
func (h *topHeap) Swap(i, j int) { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }
func (h *topHeap) Push(x any)    { h.rows = append(h.rows, x.(value.Row)) }
func (h *topHeap) Pop() any {
	n := len(h.rows)
	r := h.rows[n-1]
	h.rows = h.rows[:n-1]
	return r
}

// Open implements Operator: it drains the child through the bounded heap
// and sorts the survivors.
func (t *TopN) Open(ctx *Context) error {
	if err := t.Child.Open(ctx); err != nil {
		return err
	}
	h := &topHeap{keys: t.Keys, desc: t.Desc}
	lgN := int64(0)
	for v := t.N; v > 1; v >>= 1 {
		lgN++
	}
	err := forEachInput(ctx, t.Child, 0, false, func(r value.Row) error {
		ctx.Counter.CPUTuples++
		if h.Len() < t.N {
			heap.Push(h, r)
			ctx.Counter.CPUTuples += lgN
			return nil
		}
		// Replace the current worst if r sorts before it.
		if value.CompareRows(r, h.rows[0], t.Keys, t.Desc) < 0 {
			h.rows[0] = r
			heap.Fix(h, 0)
			ctx.Counter.CPUTuples += lgN
		}
		return nil
	})
	t.Child.Close(ctx)
	if err != nil {
		return err
	}
	// Pop in reverse: the heap yields worst-first.
	out := make([]value.Row, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(value.Row)
	}
	t.rows = out
	t.pos = 0
	return nil
}

// NextBatch implements Operator: emit the surviving rows a morsel at a
// time, charging one CPU operation per emitted row.
func (t *TopN) NextBatch(ctx *Context, dst *Batch, max int) error {
	ctx.Counter.CPUTuples += int64(dst.AppendFrom(t.rows, &t.pos, max))
	return nil
}

// Close implements Operator.
func (t *TopN) Close(*Context) {
	t.rows = nil
}
