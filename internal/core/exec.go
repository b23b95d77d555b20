package core

import (
	"fmt"
	"sync"

	"filterjoin/internal/catalog"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/magic"
	"filterjoin/internal/opt"
	"filterjoin/internal/plan"
	"filterjoin/internal/plancache"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/udr"
)

// fjExecSpec carries everything the runtime Filter Join operator needs,
// captured at plan time. It is shared by every execution of the plan
// node; all of it is read-only after planning except restrict, which
// locks itself.
type fjExecSpec struct {
	method *Method
	o      *opt.Optimizer
	entry  *catalog.Entry
	choice *Choice

	outSchema *schema.Schema // the plan node's OutSchema: outer‖inner
	outerMake func() exec.Operator
	// filterMake, when non-nil, produces the prefix production set the
	// filter is built from (Limitation 2 relaxed); the full outer still
	// feeds the final join.
	filterMake func() exec.Operator
	alias      string

	outerFilterPos []int // filter attr positions in the outer's output
	outerAllPos    []int // all equi attr positions in the outer's output
	innerFilterLoc []int // filter attr positions within the inner relation
	innerAllLoc    []int // all equi attr positions within the inner relation

	residual  expr.Expr // bound against outer‖inner layout
	localPred expr.Expr // inner-relation-local predicate

	index  *storage.HashIndex // for AccessIndexProbe
	ixPerm []int              // index col order -> position in filter key row

	bodyCols []int          // view body columns receiving bindings
	fSchema  *schema.Schema // filter relation schema (views)
	// innerDomain is the number of distinct bindings of the filter
	// attributes in the inner; |F| / innerDomain is the filter
	// selectivity the Fig-5 grid classes.
	innerDomain float64
	restrict    restrictCache

	keyBytes int
}

// restrictPlan is a magic-rewritten view planned for one execution's
// filter set and runnable against any other's: f is the table the plan's
// F leaf was planned over, emptied once planning is done, and each
// execution binds its own F to it (exec.Context.Bind).
type restrictPlan struct {
	node *plan.Node
	f    *storage.Table
}

// restrictCache holds a Filter Join node's restricted sub-plans, one per
// Fig-5 class of the actual filter selectivity — Assumption 1 applied at
// run time: within a class the restricted view has one plan, so only the
// first Open in a class optimizes. It lives and dies with the plan node
// (and so with the plan-cache entry holding it), which is the only
// invalidation it needs, and it never holds more than len(grid) plans.
type restrictCache struct {
	mu    sync.Mutex
	plans []*restrictPlan // indexed by class
}

func (c *restrictCache) get(class int) *restrictPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if class < len(c.plans) {
		return c.plans[class]
	}
	return nil
}

// put stores p for class unless an execution that missed at the same
// time got there first, and returns the plan to run (viewCosterFor's
// rule: both planned deterministically, the loser's work is redundant).
func (c *restrictCache) put(class int, p *restrictPlan) *restrictPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.plans) <= class {
		c.plans = append(c.plans, nil)
	}
	if c.plans[class] == nil {
		c.plans[class] = p
	}
	return c.plans[class]
}

func (s *fjExecSpec) make() exec.Operator {
	return &filterJoinOp{spec: s}
}

// filterJoinOp is the runtime Filter Join. Definition 2.1's four steps
// all happen in Open: the production set P is computed (materialized or
// set up for recomputation), the distinct filter set F is built, the
// restricted inner R_k' is composed — for views this performs the magic
// rewriting and, on the first Open in a Fig-5 class of the *actual*
// filter cardinality, plans the restricted view: the deferred planning
// §4.2 describes — and the final hash join of P with R_k' is opened.
// NextBatch/Close delegate to the final join.
type filterJoinOp struct {
	spec  *fjExecSpec
	final exec.Operator
}

// Schema implements exec.Operator.
func (f *filterJoinOp) Schema() *schema.Schema { return f.spec.outSchema }

// Open implements exec.Operator.
func (f *filterJoinOp) Open(ctx *exec.Context) error {
	s := f.spec
	ch := s.choice

	// Step 1: production set P.
	var pFilter, pJoin exec.Operator
	switch {
	case s.filterMake != nil:
		// Prefix production set: the filter comes from a cheaper subplan;
		// the full outer streams once into the final join.
		pFilter, pJoin = s.filterMake(), s.outerMake()
	case ch.Materialize:
		mat := exec.NewMaterialize(s.outerMake(), "__P")
		pFilter, pJoin = mat, mat
	default:
		pFilter, pJoin = s.outerMake(), s.outerMake()
	}

	// Step 2: the distinct filter set F, pre-sized from the optimizer's
	// estimated |F|.
	keys, err := exec.BuildKeySetSized(ctx, pFilter, s.outerFilterPos, int(ch.FilterCard+0.5))
	if err != nil {
		return err
	}

	// Step 3: the restricted inner R_k'.
	restricted, err := f.buildRestricted(ctx, keys)
	if err != nil {
		return err
	}

	// Step 4: final join of P with R_k' on all join attributes. The build
	// side is the restricted inner, so its table is pre-sized from the
	// optimizer's |R_k'| estimate.
	final := exec.NewHashJoinProbeFirst(restricted, pJoin, s.innerAllLoc, s.outerAllPos, s.residual)
	final.BuildSizeHint = int(ch.RestrictRows + 0.5)
	f.final = final
	return f.final.Open(ctx)
}

// buildRestricted composes the restricted-inner operator per the access
// strategy recorded in the Choice, then the relation's local predicate.
// A remote inner is restricted at its site: F ships out (the fallible
// filter-set message), and the restricted, locally filtered R_k' ships
// back.
func (f *filterJoinOp) buildRestricted(ctx *exec.Context, keys *exec.KeySet) (exec.Operator, error) {
	s := f.spec
	var op exec.Operator
	var err error
	switch s.entry.Kind {
	case catalog.KindBase, catalog.KindRemote:
		op, err = f.restrictStored(ctx, keys)
	case catalog.KindView:
		op, err = f.restrictView(ctx, keys)
	case catalog.KindFunc:
		op = udr.NewConsecutiveScan(s.entry, keys, s.alias)
	default:
		err = fmt.Errorf("core: filter join over unsupported relation kind %s", s.entry.Kind)
	}
	if err != nil {
		return nil, err
	}
	if s.localPred != nil {
		op = exec.NewSelect(op, s.localPred)
	}
	if site := s.entry.Site; site > 0 {
		if err := ctx.Send(site, int64(s.choice.filterShipBytes(keys, s))); err != nil {
			return nil, err
		}
		op = exec.NewShip(op, op.Schema().RowWidth(), site)
	}
	return op, nil
}

// filterShipBytes returns the wire size of the filter set representation.
func (ch *Choice) filterShipBytes(keys *exec.KeySet, s *fjExecSpec) int {
	if ch.Repr == ReprBloom {
		return int(float64(keys.Len())*ch.BloomBits/8) + 64
	}
	return keys.Len() * s.keyBytes
}

// restrictStored restricts a stored (local or remote) table by the filter
// set via membership scanning, Bloom scanning, or index probes.
func (f *filterJoinOp) restrictStored(ctx *exec.Context, keys *exec.KeySet) (exec.Operator, error) {
	s := f.spec
	ch := s.choice
	t := s.entry.Table

	if ch.Access == AccessIndexProbe && s.index != nil {
		// Drive index probes from the distinct keys, emitting inner rows.
		ks := exec.NewKeySetScan(keys, keySchema(s, t))
		// Key positions within the key row aligned to the index columns.
		outerKeyIdx := make([]int, len(s.ixPerm))
		for i, p := range s.ixPerm {
			if p < 0 {
				return nil, fmt.Errorf("core: index permutation incomplete for %s", t.Name())
			}
			outerKeyIdx[i] = p
		}
		probe := exec.NewIndexNLJoin(ks, t, s.index, outerKeyIdx, nil, s.alias, 0)
		// Drop the key columns, keeping the inner row only.
		innerIdx := make([]int, t.Schema().Len())
		for i := range innerIdx {
			innerIdx[i] = len(s.innerFilterLoc) + i
		}
		return exec.NewColumnProject(probe, innerIdx), nil
	}

	var op exec.Operator = exec.NewTableScan(t, s.alias)
	if ch.Repr == ReprBloom {
		bf := keys.ToBloom(ch.BloomBits)
		ctx.Counter.CPUTuples += int64(keys.Len())
		op = exec.NewBloomFilterScan(op, bf, s.innerFilterLoc)
	} else {
		op = exec.NewKeySetFilter(op, keys, s.innerFilterLoc)
	}
	return op, nil
}

func keySchema(s *fjExecSpec, t *storage.Table) *schema.Schema {
	cols := make([]schema.Column, len(s.innerFilterLoc))
	for i, c := range s.innerFilterLoc {
		cols[i] = schema.Column{Name: fmt.Sprintf("k%d", i), Type: t.Schema().Col(c).Type}
	}
	return schema.New(cols...)
}

// restrictView performs the magic rewriting at execution time with the
// actual filter set. This is the paper's §4.2 deferred planning: cost
// estimation during join enumeration used the parametric coster; the
// concrete sub-plan is generated here, once per Fig-5 class of |F| —
// every later Open in the class, by any execution of the plan node,
// instantiates that plan over its own F and does no planning work.
func (f *filterJoinOp) restrictView(ctx *exec.Context, keys *exec.KeySet) (exec.Operator, error) {
	s := f.spec
	ft := storage.FromRows(filterRel, s.fSchema, keys.Rows())
	ctx.Counter.PageWrites += int64(ft.NumPages()) // AvailCost_F: materializing F

	class := plancache.Classify(float64(keys.Len())/s.innerDomain, s.method.Opts.Grid())
	rp := s.restrict.get(class)
	hit := rp != nil
	if !hit {
		planned, err := s.planRestricted(keys)
		if err != nil {
			return nil, err
		}
		rp = s.restrict.put(class, planned)
	}
	s.method.countRestrict(hit)
	ctx.Bind(rp.f, ft)

	return rp.node.Make(), nil
}

// planRestricted optimizes the rewritten block (view body ⋈ F) against
// keys' true cardinality and statistics, F handed to the optimizer by
// value. The spec's optimizer is shared by concurrent executions of one
// cached plan and a search mutates its optimizer (memo, metrics), so it
// runs on a private fork whose search counters are folded back. The
// returned plan keeps F's table without its rows, and the fork is
// quiescent by then: a view over a view captured it as its own spec's
// optimizer.
func (s *fjExecSpec) planRestricted(keys *exec.KeySet) (*restrictPlan, error) {
	o := s.o.Fork()
	defer func() { s.o.MergeMetrics(o.Metrics) }()

	f := storage.FromRows(filterRel, s.fSchema, keys.Rows())
	rb, err := magic.RestrictedBlock(o.Cat, s.entry, s.bodyCols, filterRel)
	if err != nil {
		return nil, err
	}
	node, err := o.OptimizeBlockGiven(rb, catalog.TableEntry(f, nil))
	if err != nil {
		return nil, fmt.Errorf("core: planning restricted view %s: %w", s.entry.Name, err)
	}
	f.Truncate()
	return &restrictPlan{node: node, f: f}, nil
}

// NextBatch implements exec.Operator by delegating to the final join
// assembled in Open. The filter set's own network sends happen at Open
// time, so batched emission cannot reorder them.
func (f *filterJoinOp) NextBatch(ctx *exec.Context, dst *exec.Batch, max int) error {
	if f.final == nil {
		return fmt.Errorf("core: filter join not opened")
	}
	return f.final.NextBatch(ctx, dst, max)
}

// Close implements exec.Operator.
func (f *filterJoinOp) Close(ctx *exec.Context) {
	if f.final != nil {
		f.final.Close(ctx)
		f.final = nil
	}
}
