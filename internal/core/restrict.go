package core

import (
	"fmt"

	"filterjoin/internal/catalog"
	"filterjoin/internal/schema"
)

// filterRel is the name a restricted view's block knows its filter set F
// by. F is never registered under it: the optimizer is handed F by value
// (opt.OptimizeBlockGiven) and resolves the name ahead of the catalog,
// so it is spelled outside the SQL identifier grammar to shadow nothing.
const filterRel = "$F"

// filterSchema builds the schema of the filter-set relation F: one column
// per bound attribute, typed like the view output columns it restricts.
func filterSchema(cat *catalog.Catalog, e *catalog.Entry, innerLocalCols []int) (*schema.Schema, error) {
	vs, err := e.Schema(cat)
	if err != nil {
		return nil, err
	}
	cols := make([]schema.Column, len(innerLocalCols))
	for i, c := range innerLocalCols {
		if c < 0 || c >= vs.Len() {
			return nil, fmt.Errorf("core: filter column %d out of range for view %s", c, e.Name)
		}
		cols[i] = schema.Column{Name: fmt.Sprintf("k%d", i), Type: vs.Col(c).Type}
	}
	return schema.New(cols...), nil
}
