// Package cost defines the resource-accounting vocabulary shared by the
// executor (which measures actual consumption) and the optimizer (which
// estimates it). The unit convention follows DESIGN.md §5: one weighted
// cost unit corresponds to one page I/O under the default model.
package cost

import (
	"fmt"
	"strings"
)

// Counter accumulates raw resource consumption. The executor charges every
// operator's work here; the optimizer's estimates are expressed in the same
// currencies so that estimate-vs-actual comparisons (experiment E11) are
// apples to apples.
type Counter struct {
	PageReads  int64 // pages read from (simulated) disk
	PageWrites int64 // pages written to (simulated) disk
	CPUTuples  int64 // per-tuple CPU operations (compare, hash, copy, eval)
	NetBytes   int64 // bytes shipped between sites
	NetMsgs    int64 // network messages (round-trip initiations)
	FnCalls    int64 // user-defined relation function invocations

	// Fault-tolerance accounting (DESIGN.md §8). These are observability
	// counters for faulty runs: the optimizer never estimates them and the
	// Model carries no weights for them, because the paper's cost formulas
	// assume a fault-free network. Fault-free executions leave them zero,
	// which keeps every estimate-vs-actual comparison unchanged.
	Retries   int64 // remote send attempts beyond the first (per message)
	WaitMs    int64 // simulated milliseconds spent on latency, timeouts, and backoff
	Fallbacks int64 // queries degraded to the fault-free fallback plan
}

// Add accumulates o into c.
func (c *Counter) Add(o Counter) {
	c.PageReads += o.PageReads
	c.PageWrites += o.PageWrites
	c.CPUTuples += o.CPUTuples
	c.NetBytes += o.NetBytes
	c.NetMsgs += o.NetMsgs
	c.FnCalls += o.FnCalls
	c.Retries += o.Retries
	c.WaitMs += o.WaitMs
	c.Fallbacks += o.Fallbacks
}

// Diff returns c - o, the consumption that happened after snapshot o.
func (c Counter) Diff(o Counter) Counter {
	return Counter{
		PageReads:  c.PageReads - o.PageReads,
		PageWrites: c.PageWrites - o.PageWrites,
		CPUTuples:  c.CPUTuples - o.CPUTuples,
		NetBytes:   c.NetBytes - o.NetBytes,
		NetMsgs:    c.NetMsgs - o.NetMsgs,
		FnCalls:    c.FnCalls - o.FnCalls,
		Retries:    c.Retries - o.Retries,
		WaitMs:     c.WaitMs - o.WaitMs,
		Fallbacks:  c.Fallbacks - o.Fallbacks,
	}
}

// IsZero reports whether no resource has been consumed.
func (c Counter) IsZero() bool { return c == Counter{} }

// String renders the non-zero components.
func (c Counter) String() string {
	var parts []string
	add := func(name string, v int64) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	add("pageR", c.PageReads)
	add("pageW", c.PageWrites)
	add("cpu", c.CPUTuples)
	add("netB", c.NetBytes)
	add("netM", c.NetMsgs)
	add("fn", c.FnCalls)
	add("retry", c.Retries)
	add("wait", c.WaitMs)
	add("fb", c.Fallbacks)
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Model converts raw counters into a single scalar cost. Weights are the
// knob that moves regime boundaries (e.g. the SDD-1 assumption that
// communication dominates corresponds to a large NetByte weight).
type Model struct {
	PageRead  float64 // per page read; 1.0 defines the unit
	PageWrite float64 // per page written
	CPUTuple  float64 // per per-tuple CPU operation
	NetByte   float64 // per byte shipped
	NetMsg    float64 // per message
	FnCall    float64 // per user-defined function invocation
}

// DefaultModel returns the weights used throughout the experiments:
// page I/O dominates, CPU is three orders of magnitude cheaper per tuple,
// the network costs 0.02 units per KB plus one unit per message, and a
// user-defined function call costs half a page read.
func DefaultModel() Model {
	return Model{
		PageRead:  1.0,
		PageWrite: 1.0,
		CPUTuple:  0.001,
		NetByte:   0.02 / 1024.0,
		NetMsg:    1.0,
		FnCall:    0.5,
	}
}

// LocalOnlyModel ignores network entirely; used to report the "local
// processing" component of distributed experiments separately.
func LocalOnlyModel() Model {
	m := DefaultModel()
	m.NetByte = 0
	m.NetMsg = 0
	return m
}

// NetworkOnlyModel ignores everything but network; the SDD-1 assumption.
func NetworkOnlyModel() Model {
	return Model{NetByte: 0.02 / 1024.0, NetMsg: 1.0}
}

// Total converts a counter to weighted scalar cost under m.
func (m Model) Total(c Counter) float64 {
	return m.PageRead*float64(c.PageReads) +
		m.PageWrite*float64(c.PageWrites) +
		m.CPUTuple*float64(c.CPUTuples) +
		m.NetByte*float64(c.NetBytes) +
		m.NetMsg*float64(c.NetMsgs) +
		m.FnCall*float64(c.FnCalls)
}

// Scale returns a model with every weight multiplied by f.
func (m Model) Scale(f float64) Model {
	return Model{
		PageRead:  m.PageRead * f,
		PageWrite: m.PageWrite * f,
		CPUTuple:  m.CPUTuple * f,
		NetByte:   m.NetByte * f,
		NetMsg:    m.NetMsg * f,
		FnCall:    m.FnCall * f,
	}
}
