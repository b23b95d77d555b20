package exec

import (
	"testing"

	"filterjoin/internal/expr"
)

// benchDrain counts op's rows b.N times at the production batch size;
// allocs/op under -benchmem is the number the CI bench smoke watches
// alongside the TestAllocBudget gate.
func benchDrain(b *testing.B, op Operator) {
	ctx := NewContext()
	ctx.BatchSize = DefaultBatchSize
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Count(ctx, op); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectBatch(b *testing.B) {
	pred := expr.NewAnd(
		expr.NewCmp(expr.LT, expr.NewCol(1, "v"), expr.Int(25)),
		expr.NewCmp(expr.GE, expr.NewCol(0, "k"), expr.Int(3)),
	)
	benchDrain(b, NewSelect(allocTable(b, "t", 50_000), pred))
}

func BenchmarkHashJoinBatch(b *testing.B) {
	benchDrain(b, NewHashJoin(allocTable(b, "b", 4096), allocTable(b, "p", 50_000),
		[]int{0}, []int{0}, nil))
}

func BenchmarkGroupByBatch(b *testing.B) {
	benchDrain(b, NewGroupBy(allocTable(b, "g", 50_000), []int{0},
		[]expr.AggSpec{{Kind: expr.AggCount, Name: "c"}}))
}
