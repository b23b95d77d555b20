package cost

import "fmt"

// Estimate is the optimizer-side mirror of Counter: estimated resource
// consumption in the same currencies, but fractional. Keeping estimates
// in raw currencies (rather than a single scalar) lets experiments report
// the local-vs-network split and lets one optimization pass be re-weighed
// under different models.
type Estimate struct {
	PageReads  float64
	PageWrites float64
	CPUTuples  float64
	NetBytes   float64
	NetMsgs    float64
	FnCalls    float64
}

// Plus returns e + o.
func (e Estimate) Plus(o Estimate) Estimate {
	return Estimate{
		PageReads:  e.PageReads + o.PageReads,
		PageWrites: e.PageWrites + o.PageWrites,
		CPUTuples:  e.CPUTuples + o.CPUTuples,
		NetBytes:   e.NetBytes + o.NetBytes,
		NetMsgs:    e.NetMsgs + o.NetMsgs,
		FnCalls:    e.FnCalls + o.FnCalls,
	}
}

// Times returns e scaled by f.
func (e Estimate) Times(f float64) Estimate {
	return Estimate{
		PageReads:  e.PageReads * f,
		PageWrites: e.PageWrites * f,
		CPUTuples:  e.CPUTuples * f,
		NetBytes:   e.NetBytes * f,
		NetMsgs:    e.NetMsgs * f,
		FnCalls:    e.FnCalls * f,
	}
}

// TotalHook, when non-nil, is applied to every total TotalEstimate
// returns. It is for tests only: the jitter test
// (internal/core/jitter_test.go) moves every total by a few ulps and
// requires every plan to come out the same, which holds only if each
// cost comparison goes through the helpers in compare.go.
var TotalHook func(float64) float64

// TotalEstimate weighs the estimate into scalar cost under model m.
func (m Model) TotalEstimate(e Estimate) float64 {
	t := m.PageRead*e.PageReads +
		m.PageWrite*e.PageWrites +
		m.CPUTuple*e.CPUTuples +
		m.NetByte*e.NetBytes +
		m.NetMsg*e.NetMsgs +
		m.FnCall*e.FnCalls
	if TotalHook != nil {
		return TotalHook(t)
	}
	return t
}

// FromCounter converts measured counters into an Estimate (for
// estimate-vs-actual comparisons).
func FromCounter(c Counter) Estimate {
	return Estimate{
		PageReads:  float64(c.PageReads),
		PageWrites: float64(c.PageWrites),
		CPUTuples:  float64(c.CPUTuples),
		NetBytes:   float64(c.NetBytes),
		NetMsgs:    float64(c.NetMsgs),
		FnCalls:    float64(c.FnCalls),
	}
}

// String renders the non-zero components compactly.
func (e Estimate) String() string {
	s := "{"
	first := true
	add := func(name string, v float64) {
		if v == 0 {
			return
		}
		if !first {
			s += " "
		}
		s += fmt.Sprintf("%s=%.1f", name, v)
		first = false
	}
	add("pageR", e.PageReads)
	add("pageW", e.PageWrites)
	add("cpu", e.CPUTuples)
	add("netB", e.NetBytes)
	add("netM", e.NetMsgs)
	add("fn", e.FnCalls)
	return s + "}"
}
