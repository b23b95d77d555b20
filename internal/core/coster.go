package core

import (
	"fmt"
	"strconv"
	"strings"

	"filterjoin/internal/catalog"
	"filterjoin/internal/cost"
	"filterjoin/internal/magic"
	"filterjoin/internal/opt"
	"filterjoin/internal/schema"
	"filterjoin/internal/stats"
	"filterjoin/internal/storage"
)

// SamplePoint is one costed equivalence class: the restricted view was
// (nested-)optimized with a synthetic filter set of the given
// selectivity, yielding an estimated cost and result cardinality.
type SamplePoint struct {
	Sel  float64       // filter selectivity: |F| / distinct inner bindings
	Est  cost.Estimate // estimated cost of producing the restricted view
	Rows float64       // estimated restricted-view cardinality
}

// ViewCoster is the parametric cost/cardinality function for restricting
// one view on one attribute set (paper §4.2). It is built from a small
// fixed number of nested optimizer invocations — the equivalence classes
// of Fig 5 — and thereafter answers every (view, attrs, |F|) costing
// query in O(1): cardinality from the straight-line fit of Fig 4, cost
// from piecewise-linear interpolation between the sampled classes.
type ViewCoster struct {
	ViewName string
	Points   []SamplePoint
	CardA    float64 // rows(sel) ≈ CardA + CardB·sel (least-squares fit)
	CardB    float64
	Domain   float64 // distinct bindings of the bound attributes in the view
	BaseRows float64 // unrestricted view cardinality
}

// costerKey identifies a coster cache slot.
type costerKey struct {
	view  string
	attrs string
}

// attrsKey renders an attribute set as a cache key. This sits on the
// coster-cache hot path (every view candidate probes the cache), so it
// formats with strconv.Itoa into one pre-sized builder rather than
// fmt.Sprintf per column plus a joined slice.
func attrsKey(cols []int) string {
	var b strings.Builder
	b.Grow(4 * len(cols))
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

// buildViewCoster samples the restricted view at the configured filter
// selectivities, one nested optimization (sampleOne) per grid point.
func (m *Method) buildViewCoster(c *opt.Ctx, ri *opt.RelInfo, innerLocal, bodyCols []int) (*ViewCoster, error) {
	o := c.O
	e := ri.Entry

	distincts := make([]float64, len(innerLocal))
	for i, col := range innerLocal {
		distincts[i] = ri.RawStats.DistinctOf(col)
	}
	domain := stats.ProjectionCardinality(ri.RawStats.Rows, distincts)
	if domain < 1 {
		domain = 1
	}

	fSchema, err := filterSchema(o.Cat, e, innerLocal)
	if err != nil {
		return nil, err
	}

	vc := &ViewCoster{
		ViewName: e.Name,
		Domain:   domain,
		BaseRows: ri.RawStats.Rows,
	}
	for _, sel := range m.Opts.Grid() {
		p, err := sampleOne(o, e, fSchema, bodyCols, sel, domain)
		if err != nil {
			return nil, fmt.Errorf("core: sampling restricted view %s at sel=%.3f: %w", e.Name, sel, err)
		}
		vc.Points = append(vc.Points, p)
	}
	vc.fitCardinalityLine()
	return vc, nil
}

// sampleOne costs one equivalence class: it optimizes the
// magic-rewritten block over an empty filter table carrying synthetic
// statistics for that selectivity — F is handed to the optimizer by
// value, the catalog is only read — and returns (cost, rows).
func sampleOne(o *opt.Optimizer, e *catalog.Entry, fSchema *schema.Schema, bodyCols []int, sel, domain float64) (SamplePoint, error) {
	fCard := sel * domain
	if fCard < 1 {
		fCard = 1
	}
	fCols := make([]stats.ColStats, fSchema.Len())
	for i := range fCols {
		fCols[i] = stats.ColStats{Distinct: fCard}
	}
	f := catalog.TableEntry(storage.NewTable(filterRel, fSchema), &stats.RelStats{Rows: fCard, Cols: fCols})
	rb, err := magic.RestrictedBlock(o.Cat, e, bodyCols, filterRel)
	if err != nil {
		return SamplePoint{}, err
	}
	n, err := o.OptimizeBlockGiven(rb, f)
	if err != nil {
		return SamplePoint{}, err
	}
	return SamplePoint{Sel: sel, Est: n.Est, Rows: n.Rows}, nil
}

// fitCardinalityLine least-squares-fits rows = a + b·sel over the sample
// points (the straight-line heuristic of Fig 4).
func (vc *ViewCoster) fitCardinalityLine() {
	n := float64(len(vc.Points))
	if n == 0 {
		return
	}
	if n == 1 {
		vc.CardA = vc.Points[0].Rows
		return
	}
	var sx, sy, sxx, sxy float64
	for _, p := range vc.Points {
		sx += p.Sel
		sy += p.Rows
		sxx += p.Sel * p.Sel
		sxy += p.Sel * p.Rows
	}
	den := n*sxx - sx*sx
	if den == 0 {
		vc.CardA = sy / n
		return
	}
	vc.CardB = (n*sxy - sx*sy) / den
	vc.CardA = (sy - vc.CardB*sx) / n
}

// Rows evaluates the fitted cardinality line at the given selectivity,
// clamped to [0, BaseRows].
func (vc *ViewCoster) Rows(sel float64) float64 {
	r := vc.CardA + vc.CardB*sel
	if r < 0 {
		r = 0
	}
	if r > vc.BaseRows {
		r = vc.BaseRows
	}
	return r
}

// Cost interpolates the restricted-view cost at the given selectivity
// between the bracketing equivalence classes (flat extrapolation at the
// ends).
func (vc *ViewCoster) Cost(sel float64) cost.Estimate {
	pts := vc.Points
	if len(pts) == 0 {
		return cost.Estimate{}
	}
	if sel <= pts[0].Sel {
		return pts[0].Est
	}
	last := pts[len(pts)-1]
	if sel >= last.Sel {
		return last.Est
	}
	for i := 1; i < len(pts); i++ {
		if sel <= pts[i].Sel {
			lo, hi := pts[i-1], pts[i]
			t := (sel - lo.Sel) / (hi.Sel - lo.Sel)
			return lo.Est.Times(1 - t).Plus(hi.Est.Times(t))
		}
	}
	return last.Est
}

// Invocations reports how many nested optimizer calls built this coster.
func (vc *ViewCoster) Invocations() int { return len(vc.Points) }
