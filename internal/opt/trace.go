package opt

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"filterjoin/internal/query"
)

// Trace event kinds emitted by the optimizer (and by join methods that
// participate, such as the Filter Join's variant enumeration).
const (
	EvLeaf        = "leaf"         // access path chosen for a single relation
	EvCandidate   = "candidate"    // one candidate plan costed at a DP step
	EvNested      = "nested"       // recursive OptimizeBlock entered (views, costers)
	EvCosterBuild = "coster-build" // parametric view coster constructed
	EvCosterHit   = "coster-hit"   // costing answered from the coster cache
	EvFJVariant   = "fj-variant"   // one Filter Join (attrs × repr × production) variant costed
)

// TraceEvent is one step of the optimizer's search, in a flat record
// shape so traces render uniformly as text or JSON.
type TraceEvent struct {
	Kind   string  `json:"kind"`
	Subset string  `json:"subset,omitempty"` // relation subset, e.g. "{D,E}"
	Method string  `json:"method,omitempty"` // join method / plan node kind
	Detail string  `json:"detail,omitempty"`
	Cost   float64 `json:"cost,omitempty"`  // weighted total under the optimizer's model
	Kept   bool    `json:"kept"`            // candidate became (or stayed) the subset's best
	Depth  int     `json:"depth,omitempty"` // optimizer nesting depth (nested events)
	Prop   string  `json:"prop,omitempty"`  // order property bucket ("" = no useful order)
}

// Tracer observes the optimizer's search. Implementations must be cheap:
// the optimizer emits one event per candidate plan.
type Tracer interface {
	Event(TraceEvent)
}

// trace emits ev if a tracer is installed.
func (o *Optimizer) trace(ev TraceEvent) {
	if o.Tracer != nil {
		o.Tracer.Event(ev)
	}
}

// Emit lets external join methods feed events into the optimizer's
// tracer (the Filter Join reports variants and coster cache traffic).
func (o *Optimizer) Emit(ev TraceEvent) { o.trace(ev) }

// Traces reports whether a tracer is installed (join methods use it to
// skip building event payloads).
func (o *Optimizer) Traces() bool { return o.Tracer != nil }

// RelSetName renders a relation subset with the block's bindings, e.g.
// "{D,E,V}", in ordinal order.
func (c *Ctx) RelSetName(s query.RelSet) string {
	var parts []string
	for _, i := range s.Members() {
		if i < len(c.Rels) {
			parts = append(parts, c.Rels[i].Ref.Binding())
		} else {
			parts = append(parts, fmt.Sprintf("#%d", i))
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// CollectingTracer records every event for later rendering. It is not
// safe for concurrent optimizers; one optimizer is single-threaded.
type CollectingTracer struct {
	Events []TraceEvent
}

// Event implements Tracer.
func (t *CollectingTracer) Event(ev TraceEvent) { t.Events = append(t.Events, ev) }

// Reset drops the recorded events.
func (t *CollectingTracer) Reset() { t.Events = nil }

// Text renders the trace one line per event.
func (t *CollectingTracer) Text() string {
	var b strings.Builder
	for _, ev := range t.Events {
		switch ev.Kind {
		case EvLeaf:
			fmt.Fprintf(&b, "leaf      %-14s %-14s cost=%-10.2f %s%s\n", ev.Subset, ev.Method, ev.Cost, ev.Detail, propSuffix(ev))
		case EvCandidate:
			verdict := "pruned"
			if ev.Kept {
				verdict = "kept"
			}
			fmt.Fprintf(&b, "candidate %-14s %-14s cost=%-10.2f %-6s %s%s\n", ev.Subset, ev.Method, ev.Cost, verdict, ev.Detail, propSuffix(ev))
		case EvNested:
			fmt.Fprintf(&b, "nested    depth=%d %s\n", ev.Depth, ev.Detail)
		case EvCosterBuild, EvCosterHit:
			fmt.Fprintf(&b, "%-9s %s\n", ev.Kind, ev.Detail)
		case EvFJVariant:
			fmt.Fprintf(&b, "fjvariant %-14s cost=%-10.2f %s\n", ev.Subset, ev.Cost, ev.Detail)
		default:
			fmt.Fprintf(&b, "%-9s %s %s cost=%.2f %s\n", ev.Kind, ev.Subset, ev.Method, ev.Cost, ev.Detail)
		}
	}
	return b.String()
}

// JSON renders the trace as an indented JSON array.
func (t *CollectingTracer) JSON() ([]byte, error) {
	evs := t.Events
	if evs == nil {
		evs = []TraceEvent{}
	}
	return json.MarshalIndent(evs, "", "  ")
}

// Summary aggregates the trace: events per kind, and per-method
// candidate/kept counts, rendered deterministically.
func (t *CollectingTracer) Summary() string {
	kinds := map[string]int{}
	cands := map[string]int{}
	kept := map[string]int{}
	for _, ev := range t.Events {
		kinds[ev.Kind]++
		if ev.Kind == EvCandidate {
			cands[ev.Method]++
			if ev.Kept {
				kept[ev.Method]++
			}
		}
	}
	var b strings.Builder
	for _, k := range sortedKeys(kinds) {
		fmt.Fprintf(&b, "%s=%d ", k, kinds[k])
	}
	b.WriteString("\n")
	for _, m := range sortedKeys(cands) {
		fmt.Fprintf(&b, "  %-16s considered=%-5d kept=%d\n", m, cands[m], kept[m])
	}
	return b.String()
}

// propSuffix renders a candidate's order-property bucket for text
// traces; the "" bucket (no useful order) stays silent.
func propSuffix(ev TraceEvent) string {
	if ev.Prop == "" {
		return ""
	}
	return " ord[" + ev.Prop + "]"
}

// blockDesc names a block by its relation bindings, for nested-event
// payloads.
func blockDesc(b *query.Block) string {
	var parts []string
	for _, r := range b.Rels {
		parts = append(parts, r.Binding())
	}
	return "block(" + strings.Join(parts, ",") + ")"
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
