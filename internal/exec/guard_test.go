package exec

import (
	"errors"
	"testing"

	"filterjoin/internal/value"
)

// TestCardGuardTripPointFollowsMorselSize pins the one place the morsel
// size is observable: the guard checks once per pull, so it fires at the
// end of the first morsel that carries its count to the threshold.
// ReplanError.Rows is exactly the threshold at morsel size 1 and the
// next morsel boundary past it at 1024.
func TestCardGuardTripPointFollowsMorselSize(t *testing.T) {
	rows := make([]value.Row, 3000)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i))}
	}
	const est, ratio = 150, 10 // threshold: 1500 rows
	for _, tc := range []struct {
		morsel   int
		wantRows int64
	}{
		{1, 1500},
		{DefaultBatchSize, 2 * DefaultBatchSize},
	} {
		ctx := NewContext()
		ctx.BatchSize = tc.morsel
		ctx.ReplanRatio = ratio
		_, err := Drain(ctx, NewCardGuard(NewValues(nil, rows), est, "test build", nil))
		var re *ReplanError
		if !errors.As(err, &re) {
			t.Fatalf("morsel=%d: err = %v, want *ReplanError", tc.morsel, err)
		}
		if re.Rows != tc.wantRows {
			t.Errorf("morsel=%d: guard fired after %d rows, want %d", tc.morsel, re.Rows, tc.wantRows)
		}
	}

	// Disarmed, the guard is invisible at any morsel size.
	ctx := NewContext()
	ctx.BatchSize = DefaultBatchSize
	got, err := Drain(ctx, NewCardGuard(NewValues(nil, rows), est, "test build", nil))
	if err != nil || len(got) != len(rows) {
		t.Fatalf("disarmed guard: %d rows, err %v", len(got), err)
	}
}
