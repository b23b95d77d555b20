package expr

import (
	"fmt"

	"filterjoin/internal/value"
)

// AggKind identifies an aggregate function.
type AggKind uint8

// The supported aggregate functions.
const (
	AggCount AggKind = iota // COUNT(col) or COUNT(*) when Arg == nil
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String renders the aggregate name.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return "AGG?"
	}
}

// AggKindByName resolves an aggregate function by case-insensitive name.
func AggKindByName(name string) (AggKind, bool) {
	switch {
	case equalFold(name, "count"):
		return AggCount, true
	case equalFold(name, "sum"):
		return AggSum, true
	case equalFold(name, "avg"):
		return AggAvg, true
	case equalFold(name, "min"):
		return AggMin, true
	case equalFold(name, "max"):
		return AggMax, true
	}
	return 0, false
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// AggSpec describes one aggregate output column.
type AggSpec struct {
	Kind AggKind
	Arg  Expr   // nil for COUNT(*)
	Name string // output column name
}

// ResultType returns the value kind the aggregate produces.
func (a AggSpec) ResultType() value.Kind {
	switch a.Kind {
	case AggCount:
		return value.KindInt
	case AggAvg:
		return value.KindFloat
	default:
		// SUM/MIN/MAX follow the input; report float for SUM (safe for
		// mixed arithmetic), and leave MIN/MAX as the input type which we
		// approximate as float for numerics. The executor preserves the
		// actual runtime value, so this only affects schema display.
		if a.Kind == AggSum {
			return value.KindFloat
		}
		return value.KindFloat
	}
}

// String renders "SUM(expr)".
func (a AggSpec) String() string {
	if a.Arg == nil {
		return a.Kind.String() + "(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Kind, a.Arg.String())
}

// AggState is the running state of one aggregate over one group. It is
// a value, so an operator can keep the states of all its groups in one
// slice (Init starts each).
type AggState struct {
	kind    AggKind
	allInts bool
	seen    bool
	count   int64
	sum     float64
	best    value.Value // MIN's least or MAX's greatest value so far
}

// NewAggState creates fresh aggregate state.
func NewAggState(kind AggKind) *AggState {
	s := new(AggState)
	s.Init(kind)
	return s
}

// Init makes s a fresh state of the given kind.
func (s *AggState) Init(kind AggKind) { *s = AggState{kind: kind, allInts: true} }

// Add folds one input value into the state. NULL inputs are ignored for
// every aggregate except COUNT(*), which the caller signals by passing a
// non-null marker (the executor passes value.NewInt(1) for COUNT(*)).
func (s *AggState) Add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	s.count++
	switch s.kind {
	case AggCount:
		return nil
	case AggSum, AggAvg:
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("expr: %s over non-numeric %s", s.kind, v.Kind())
		}
		if v.Kind() != value.KindInt {
			s.allInts = false
		}
		s.sum += f
		return nil
	case AggMin:
		if !s.seen || value.Compare(v, s.best) < 0 {
			s.best = v
		}
		s.seen = true
		return nil
	case AggMax:
		if !s.seen || value.Compare(v, s.best) > 0 {
			s.best = v
		}
		s.seen = true
		return nil
	}
	return fmt.Errorf("expr: unknown aggregate kind")
}

// Result finalizes the aggregate. Empty groups yield 0 for COUNT and NULL
// for everything else.
func (s *AggState) Result() value.Value {
	switch s.kind {
	case AggCount:
		return value.NewInt(s.count)
	case AggSum:
		if s.count == 0 {
			return value.Null
		}
		if s.allInts {
			return value.NewInt(int64(s.sum))
		}
		return value.NewFloat(s.sum)
	case AggAvg:
		if s.count == 0 {
			return value.Null
		}
		return value.NewFloat(s.sum / float64(s.count))
	case AggMin:
		if !s.seen {
			return value.Null
		}
		return s.best
	case AggMax:
		if !s.seen {
			return value.Null
		}
		return s.best
	}
	return value.Null
}
