package magic

import (
	"fmt"

	"filterjoin/internal/catalog"
	"filterjoin/internal/expr"
	"filterjoin/internal/query"
)

// ViewBindings maps bound view-output columns to the view-body layout
// columns they flow from. A binding is legal only on outputs with direct
// provenance (grouping columns or plainly projected columns); aggregate
// results cannot receive bindings. Returns ok=false when any requested
// column is unbindable.
func ViewBindings(cat *catalog.Catalog, e *catalog.Entry, viewCols []int) (bodyCols []int, ok bool, err error) {
	layout, err := e.ViewDef.Layout(cat)
	if err != nil {
		return nil, false, err
	}
	prov := e.ViewDef.OutputProvenance(layout.Schema.Len())
	bodyCols = make([]int, len(viewCols))
	for i, c := range viewCols {
		if c < 0 || c >= len(prov) || prov[c] < 0 {
			return nil, false, nil
		}
		bodyCols[i] = prov[c]
	}
	return bodyCols, true, nil
}

// RestrictedBlock is the magic-sets rewriting of a view definition: the
// filter relation fName joins into the view body on the bound columns,
// restricting the computation to the bindings in F (paper Fig 2's
// RestrictedDepAvgSal, generalized). The block's output shape is kept
// identical to the original view's. Both the classical rewrite and the
// Filter Join's run-time restriction build Restricted<V> here.
func RestrictedBlock(cat *catalog.Catalog, e *catalog.Entry, bodyCols []int, fName string) (*query.Block, error) {
	vb := e.ViewDef.Clone()
	layout, err := e.ViewDef.Layout(cat)
	if err != nil {
		return nil, err
	}
	w := layout.Schema.Len()
	if !vb.HasAggregation() && vb.Proj == nil {
		// Pin the output to the original columns so F's columns do not
		// leak into the view's output schema.
		vb.Proj = make([]query.Output, w)
		for c := 0; c < w; c++ {
			col := layout.Schema.Col(c)
			vb.Proj[c] = query.Output{
				Expr: expr.NewCol(c, col.QualifiedName()),
				Name: col.Name,
			}
		}
	}
	vb.Rels = append(vb.Rels, query.RelRef{Name: fName})
	for j, bc := range bodyCols {
		vb.Preds = append(vb.Preds, expr.Eq(
			expr.NewCol(bc, layout.Schema.Col(bc).QualifiedName()),
			expr.NewCol(w+j, fmt.Sprintf("%s.k%d", fName, j)),
		))
	}
	return vb, nil
}
