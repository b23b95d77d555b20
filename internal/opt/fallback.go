package opt

import (
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
)

// Fallback plans the degradation alternative of a top-level plan for b
// that contains a FetchMatches join — the one strategy whose network
// crossings happen per outer row, mid-stream, after rows may already
// have been emitted. If the transport later exhausts its retries inside
// the primary, the executor restarts the query on the fallback instead
// of failing it (DESIGN.md §8). nil means no fault-free alternative
// exists (e.g. every other method is disabled): degradation is simply
// unavailable and a SiteError surfaces as the query error. Only the
// consumer that degrades (the facade) calls it, so sub-plans never pay.
//
// Bulk-shipment plans (ShipScan, semi-join filter shipments) need no
// fallback: their crossings happen at Open, before any row is produced,
// so a SiteError there is an honest whole-query error.
//
// The same search runs again on a fork with fetch-matches off and no
// tracer, and the fork's metrics are dropped, so exact-count metrics
// tests and trace goldens see only the primary search. The fork has its
// own view-leaf memo, so view leaves are re-planned without
// fetch-matches too, and it is the optimizer the fallback's Filter Joins
// capture, so the restricted views they plan at run time inherit the
// toggle.
func (o *Optimizer) Fallback(b *query.Block) *plan.Node {
	f := o.Fork()
	f.Tracer = nil
	f.Disabled["fetchmatches"] = true
	alt, _ := f.OptimizeBlock(b) // an error is "no alternative": alt is nil
	return alt
}
