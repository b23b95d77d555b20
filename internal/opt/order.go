// Interesting-order support for the property-aware memo (System R's
// "interesting orders"): which sort orders are worth remembering per DP
// subset, how a plan's physical ordering maps to a memo property key,
// and when a retained ordering lets a merge join skip its input sort.
package opt

import (
	"strings"

	"filterjoin/internal/plan"
)

// computeInterestingCols marks the block-layout columns whose sort
// order can pay off later in the plan: merge-joinable equi-predicate
// columns, GROUP BY columns, and the provenance of ORDER BY targets.
// Orderings on other columns are not worth a memo entry of their own.
func (c *Ctx) computeInterestingCols() {
	if c.O.DisableOrderProps {
		return
	}
	c.interestingCols = make([]bool, c.Layout.Schema.Len())
	for _, p := range c.Preds {
		if p.EquiL >= 0 {
			c.interestingCols[p.EquiL] = true
			c.interestingCols[p.EquiR] = true
		}
	}
	for _, g := range c.Block.GroupBy {
		c.interestingCols[g] = true
	}
	prov := c.Block.OutputProvenance(c.Layout.Schema.Len())
	for _, oi := range c.Block.OrderBy {
		if oi.Col >= 0 && oi.Col < len(prov) && prov[oi.Col] >= 0 {
			c.interestingCols[prov[oi.Col]] = true
		}
	}
}

// maxPropKeys bounds how many leading ordering keys distinguish memo
// buckets; deeper prefixes almost never pay for the extra entries.
const maxPropKeys = 3

// interestingPrefix reduces a plan's physical ordering to the property
// the memo tracks: the leading keys restricted to interesting columns.
// A nil result (key "") is the "no useful order" bucket.
func (c *Ctx) interestingPrefix(ord plan.Ordering) plan.Ordering {
	if c.interestingCols == nil {
		return nil
	}
	if len(ord) > maxPropKeys {
		ord = ord[:maxPropKeys]
	}
	return ord.Project(c.interesting)
}

func (c *Ctx) interesting(col int) bool { return c.interestingCols[col] }

// deliversPrefix reports have.Satisfies(c.interestingPrefix(ord))
// without building the prefix: each of ord's leading keys that keeps an
// interesting column must be matched, in direction and on one of those
// columns, by have's key at the same position.
func (c *Ctx) deliversPrefix(have, ord plan.Ordering) bool {
	if c.interestingCols == nil {
		return true
	}
	for i, k := range ord {
		if i == maxPropKeys {
			break
		}
		kept, matched := false, false
		for _, col := range k.Cols {
			if c.interestingCols[col] {
				kept = true
				matched = matched || (i < len(have) && have[i].Has(col))
			}
		}
		if !kept {
			break
		}
		if !matched || have[i].Desc != k.Desc {
			return false
		}
	}
	return true
}

// propName renders a property ordering with the block layout's column
// names for traces, joining each key's equivalent columns with "=".
func (c *Ctx) propName(prop plan.Ordering) string {
	if len(prop) == 0 {
		return ""
	}
	var keys []string
	for _, k := range prop {
		var names []string
		for _, col := range k.Cols {
			names = append(names, c.Layout.Schema.Col(col).QualifiedName())
		}
		s := strings.Join(names, "=")
		if k.Desc {
			s += " desc"
		}
		keys = append(keys, s)
	}
	return strings.Join(keys, ",")
}

// reorderPairsForPresorted tries to permute the equi pairs of a merge
// join so that the outer's retained ordering already sorts the outer
// input on the merge keys (ascending). It returns permuted copies of
// the column lists and true on success, or the originals and false.
func reorderPairsForPresorted(ord plan.Ordering, outerCols, innerCols []int) ([]int, []int, bool) {
	n := len(outerCols)
	if n == 0 || len(ord) < n {
		return outerCols, innerCols, false
	}
	used := make([]bool, n)
	oc := make([]int, 0, n)
	ic := make([]int, 0, n)
	for i := 0; i < n; i++ {
		k := ord[i]
		if k.Desc {
			return outerCols, innerCols, false
		}
		found := -1
		for j := range outerCols {
			if !used[j] && k.Has(outerCols[j]) {
				found = j
				break
			}
		}
		if found < 0 {
			return outerCols, innerCols, false
		}
		used[found] = true
		oc = append(oc, outerCols[found])
		ic = append(ic, innerCols[found])
	}
	return oc, ic, true
}

// mergeOutputOrdering is the order a merge join produces: its key
// sequence ascending, with each key carrying both sides' columns (they
// are value-equal in every output row).
func mergeOutputOrdering(outerCols, innerCols []int) plan.Ordering {
	out := make(plan.Ordering, len(outerCols))
	cols := make([]int, 2*len(outerCols))
	for i := range outerCols {
		key := cols[2*i : 2*i+2 : 2*i+2]
		key[0], key[1] = outerCols[i], innerCols[i]
		out[i] = plan.OrderKey{Cols: key}
	}
	return out
}

// orderAware reports whether the property-aware memo (and with it sort
// elision, streaming aggregation, and presorted merge inputs) is on.
func (o *Optimizer) orderAware() bool { return !o.DisableOrderProps }
