// Package datagen builds the deterministic workloads the experiments,
// benchmarks and examples run on: the paper's Fig 1 Emp/Dept universe
// with tunable selectivities, a two-site distributed order-entry
// workload, and a function-backed relation workload. All generators are
// seeded and reproducible.
package datagen

import (
	"fmt"
	"math/rand"

	"filterjoin/internal/catalog"
	"filterjoin/internal/expr"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/stats"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// Fig1Params sizes the paper's motivating workload.
type Fig1Params struct {
	NEmp      int     // employees
	NDept     int     // departments
	YoungFrac float64 // fraction of employees with age < 30
	BigFrac   float64 // fraction of departments with budget > 100000
	Clustered bool    // store Emp sorted by did (clustered emp_did index)
	Seed      int64
}

// DefaultFig1 returns a medium-size configuration.
func DefaultFig1() Fig1Params {
	return Fig1Params{
		NEmp: 20000, NDept: 400,
		YoungFrac: 0.2, BigFrac: 0.1,
		Clustered: true, Seed: 42,
	}
}

// EmpSchema returns the Emp table schema.
func EmpSchema() *schema.Schema {
	return schema.New(
		schema.Column{Table: "Emp", Name: "eid", Type: value.KindInt},
		schema.Column{Table: "Emp", Name: "did", Type: value.KindInt},
		schema.Column{Table: "Emp", Name: "sal", Type: value.KindFloat},
		schema.Column{Table: "Emp", Name: "age", Type: value.KindInt},
	)
}

// DeptSchema returns the Dept table schema.
func DeptSchema() *schema.Schema {
	return schema.New(
		schema.Column{Table: "Dept", Name: "did", Type: value.KindInt},
		schema.Column{Table: "Dept", Name: "budget", Type: value.KindInt},
	)
}

// Fig1Catalog materializes the workload: Emp and Dept with hash indexes
// on did, plus the DepAvgSal view.
func Fig1Catalog(p Fig1Params) (*catalog.Catalog, error) {
	rng := rand.New(rand.NewSource(p.Seed))
	cat := catalog.New()

	emp := storage.NewTable("Emp", EmpSchema())
	for i := 0; i < p.NEmp; i++ {
		var did int64
		if p.Clustered {
			did = int64(i * p.NDept / p.NEmp)
		} else {
			did = int64(rng.Intn(p.NDept))
		}
		age := int64(30 + rng.Intn(35))
		if rng.Float64() < p.YoungFrac {
			age = int64(20 + rng.Intn(10))
		}
		if err := emp.Insert(value.Row{
			value.NewInt(int64(i)),
			value.NewInt(did),
			value.NewFloat(float64(1000 + rng.Intn(5000))),
			value.NewInt(age),
		}); err != nil {
			return nil, err
		}
	}
	if _, err := emp.CreateIndex("emp_did", []int{1}); err != nil {
		return nil, err
	}
	cat.AddTable(emp)

	dept := storage.NewTable("Dept", DeptSchema())
	for d := 0; d < p.NDept; d++ {
		budget := int64(10000 + rng.Intn(90000))
		if rng.Float64() < p.BigFrac {
			budget = int64(100001 + rng.Intn(400000))
		}
		if err := dept.Insert(value.Row{value.NewInt(int64(d)), value.NewInt(budget)}); err != nil {
			return nil, err
		}
	}
	if _, err := dept.CreateIndex("dept_did", []int{0}); err != nil {
		return nil, err
	}
	cat.AddTable(dept)

	cat.AddView("DepAvgSal", DepAvgSalView())
	return cat, nil
}

// DepAvgSalView is CREATE VIEW DepAvgSal AS
// SELECT did, AVG(sal) avgsal FROM Emp GROUP BY did.
func DepAvgSalView() *query.Block {
	return &query.Block{
		Rels:    []query.RelRef{{Name: "Emp"}},
		GroupBy: []int{1},
		Aggs:    []expr.AggSpec{{Kind: expr.AggAvg, Arg: expr.NewCol(2, "Emp.sal"), Name: "avgsal"}},
	}
}

// Fig1Query is the paper's motivating query as a logical block.
// Layout: E:[0..3] D:[4,5] V:[6,7].
func Fig1Query() *query.Block {
	return &query.Block{
		Rels: []query.RelRef{
			{Name: "Emp", Alias: "E"},
			{Name: "Dept", Alias: "D"},
			{Name: "DepAvgSal", Alias: "V"},
		},
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(1, "E.did"), expr.NewCol(4, "D.did")),
			expr.Eq(expr.NewCol(1, "E.did"), expr.NewCol(6, "V.did")),
			expr.NewCmp(expr.GT, expr.NewCol(2, "E.sal"), expr.NewCol(7, "V.avgsal")),
			expr.NewCmp(expr.LT, expr.NewCol(3, "E.age"), expr.Int(30)),
			expr.NewCmp(expr.GT, expr.NewCol(5, "D.budget"), expr.Int(100000)),
		},
		Proj: []query.Output{
			{Expr: expr.NewCol(1, "E.did"), Name: "did"},
			{Expr: expr.NewCol(2, "E.sal"), Name: "sal"},
			{Expr: expr.NewCol(7, "V.avgsal"), Name: "avgsal"},
		},
	}
}

// ColdShape is one of the benchmark's plan_cold query shapes as a block
// over Fig1Catalog: Emp E joined on did to depts Dept aliases D1..Dn,
// each with a budget filter, plus DepAvgSal V (and E.sal > V.avgsal)
// when view is set, all pinned to one department.
// Layout: E:[0..3], Dk:[2k+2, 2k+3], V after the last Dk.
func ColdShape(depts int, view bool) *query.Block {
	did := expr.NewCol(1, "E.did")
	b := &query.Block{
		Rels: []query.RelRef{{Name: "Emp", Alias: "E"}},
		Preds: []expr.Expr{
			expr.Eq(did, expr.Int(7)),
			expr.NewCmp(expr.LT, expr.NewCol(3, "E.age"), expr.Int(40)),
		},
		Proj: []query.Output{{Expr: expr.NewCol(0, "E.eid"), Name: "eid"}},
	}
	for k := 1; k <= depts; k++ {
		alias, at := fmt.Sprintf("D%d", k), 2*k+2
		b.Rels = append(b.Rels, query.RelRef{Name: "Dept", Alias: alias})
		b.Preds = append(b.Preds,
			expr.Eq(did, expr.NewCol(at, alias+".did")),
			expr.NewCmp(expr.GT, expr.NewCol(at+1, alias+".budget"), expr.Int(int64(5000*k))))
		b.Proj = append(b.Proj, query.Output{Expr: expr.NewCol(at+1, alias+".budget"), Name: alias + "_budget"})
	}
	if view {
		at := 2*depts + 4
		b.Rels = append(b.Rels, query.RelRef{Name: "DepAvgSal", Alias: "V"})
		b.Preds = append(b.Preds,
			expr.Eq(did, expr.NewCol(at, "V.did")),
			expr.NewCmp(expr.GT, expr.NewCol(2, "E.sal"), expr.NewCol(at+1, "V.avgsal")))
		b.Proj = append(b.Proj, query.Output{Expr: expr.NewCol(at+1, "V.avgsal"), Name: "avgsal"})
	}
	return b
}

// Fig1QuerySQL is the same query as SQL text.
const Fig1QuerySQL = `
SELECT E.did, E.sal, V.avgsal
FROM Emp E, Dept D, DepAvgSal V
WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal
  AND E.age < 30 AND D.budget > 100000`

// DistParams sizes the two-site distributed workload.
type DistParams struct {
	NCustomers int
	NOrders    int
	SegFrac    float64 // fraction of customers in the probed segment
	Seed       int64
}

// DefaultDist returns a medium-size distributed configuration.
func DefaultDist() DistParams {
	return DistParams{NCustomers: 2000, NOrders: 40000, SegFrac: 0.05, Seed: 7}
}

// DistCatalog builds: Customer stored locally (site 0), Orders stored at
// site 1 with an index on ckey (clustered), and the remote view
// OrderTotals (per-customer order count and value) also at site 1.
func DistCatalog(p DistParams) (*catalog.Catalog, error) {
	rng := rand.New(rand.NewSource(p.Seed))
	cat := catalog.New()

	custSchema := schema.New(
		schema.Column{Table: "Customer", Name: "ckey", Type: value.KindInt},
		schema.Column{Table: "Customer", Name: "segment", Type: value.KindInt},
		schema.Column{Table: "Customer", Name: "balance", Type: value.KindFloat},
	)
	cust := storage.NewTable("Customer", custSchema)
	for i := 0; i < p.NCustomers; i++ {
		seg := int64(1 + rng.Intn(int(1/p.SegFrac)))
		cust.MustInsert(
			value.NewInt(int64(i)),
			value.NewInt(seg),
			value.NewFloat(float64(rng.Intn(100000))/10),
		)
	}
	if _, err := cust.CreateIndex("cust_ckey", []int{0}); err != nil {
		return nil, err
	}
	cat.AddTable(cust)

	orderSchema := schema.New(
		schema.Column{Table: "Orders", Name: "okey", Type: value.KindInt},
		schema.Column{Table: "Orders", Name: "ckey", Type: value.KindInt},
		schema.Column{Table: "Orders", Name: "price", Type: value.KindFloat},
	)
	orders := storage.NewTable("Orders", orderSchema)
	for i := 0; i < p.NOrders; i++ {
		// Clustered by ckey so remote index probes are cheap.
		ckey := int64(i * p.NCustomers / p.NOrders)
		orders.MustInsert(
			value.NewInt(int64(i)),
			value.NewInt(ckey),
			value.NewFloat(float64(10+rng.Intn(990))),
		)
	}
	if _, err := orders.CreateIndex("orders_ckey", []int{1}); err != nil {
		return nil, err
	}
	cat.AddRemoteTable(orders, 1)

	// Remote view at the orders site: per-customer totals.
	cat.AddRemoteView("OrderTotals", &query.Block{
		Rels:    []query.RelRef{{Name: "Orders"}},
		GroupBy: []int{1},
		Aggs: []expr.AggSpec{
			{Kind: expr.AggCount, Name: "norders"},
			{Kind: expr.AggSum, Arg: expr.NewCol(2, "Orders.price"), Name: "total"},
		},
	}, 1)
	return cat, nil
}

// DistQuery joins local customers of one segment with the remote
// OrderTotals view. Layout: C:[0..2] T:[3..5].
func DistQuery() *query.Block {
	return &query.Block{
		Rels: []query.RelRef{
			{Name: "Customer", Alias: "C"},
			{Name: "OrderTotals", Alias: "T"},
		},
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(0, "C.ckey"), expr.NewCol(3, "T.ckey")),
			expr.Eq(expr.NewCol(1, "C.segment"), expr.Int(1)),
		},
		Proj: []query.Output{
			{Expr: expr.NewCol(0, "C.ckey"), Name: "ckey"},
			{Expr: expr.NewCol(4, "T.norders"), Name: "norders"},
			{Expr: expr.NewCol(5, "T.total"), Name: "total"},
		},
	}
}

// DistBaseQuery joins local customers with the remote Orders base table
// (no view): the classical distributed semi-join scenario.
// Layout: C:[0..2] O:[3..5].
func DistBaseQuery() *query.Block {
	return &query.Block{
		Rels: []query.RelRef{
			{Name: "Customer", Alias: "C"},
			{Name: "Orders", Alias: "O"},
		},
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(0, "C.ckey"), expr.NewCol(4, "O.ckey")),
			expr.Eq(expr.NewCol(1, "C.segment"), expr.Int(1)),
		},
		Proj: []query.Output{
			{Expr: expr.NewCol(0, "C.ckey"), Name: "ckey"},
			{Expr: expr.NewCol(3, "O.okey"), Name: "okey"},
			{Expr: expr.NewCol(5, "O.price"), Name: "price"},
		},
	}
}

// UDRParams sizes the user-defined-relation workload.
type UDRParams struct {
	NEmp    int
	NDept   int
	PerCall int // rows the function returns per department
	Seed    int64
}

// DefaultUDR returns a medium-size UDR configuration.
func DefaultUDR() UDRParams {
	return UDRParams{NEmp: 5000, NDept: 200, PerCall: 3, Seed: 11}
}

// CallCounter counts invocations of the generated function.
type CallCounter struct{ Calls int }

// UDRCatalog builds Emp (as in Fig 1) plus a function-backed relation
// DeptPerks(did, perk, budget) that "computes" PerCall perk rows per
// department. The returned counter observes actual invocations.
func UDRCatalog(p UDRParams) (*catalog.Catalog, *CallCounter, error) {
	cat, err := Fig1Catalog(Fig1Params{
		NEmp: p.NEmp, NDept: p.NDept, YoungFrac: 0.25, BigFrac: 0.1,
		Clustered: true, Seed: p.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	perkSchema := schema.New(
		schema.Column{Table: "DeptPerks", Name: "did", Type: value.KindInt},
		schema.Column{Table: "DeptPerks", Name: "perk", Type: value.KindInt},
		schema.Column{Table: "DeptPerks", Name: "cost", Type: value.KindFloat},
	)
	counter := &CallCounter{}
	perCall := p.PerCall
	fn := func(args value.Row) ([]value.Row, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("DeptPerks expects 1 argument, got %d", len(args))
		}
		counter.Calls++
		did := args[0].Int()
		out := make([]value.Row, perCall)
		for k := 0; k < perCall; k++ {
			out[k] = value.Row{
				value.NewInt(did),
				value.NewInt(int64(k)),
				value.NewFloat(float64(100*(k+1)) + float64(did%7)),
			}
		}
		return out, nil
	}
	fnStats := &stats.RelStats{
		Rows: float64(p.NDept * p.PerCall),
		Cols: []stats.ColStats{
			{Distinct: float64(p.NDept)},
			{Distinct: float64(p.PerCall)},
			{Distinct: float64(p.NDept * p.PerCall)},
		},
	}
	cat.AddFunc("DeptPerks", perkSchema, []int{0}, fn, fnStats, float64(p.PerCall))
	return cat, counter, nil
}

// UDRQuery joins young employees in big departments with the perks
// function. Layout: E:[0..3] D:[4,5] P:[6..8].
func UDRQuery() *query.Block {
	return &query.Block{
		Rels: []query.RelRef{
			{Name: "Emp", Alias: "E"},
			{Name: "Dept", Alias: "D"},
			{Name: "DeptPerks", Alias: "P"},
		},
		Preds: []expr.Expr{
			expr.Eq(expr.NewCol(1, "E.did"), expr.NewCol(4, "D.did")),
			expr.Eq(expr.NewCol(1, "E.did"), expr.NewCol(6, "P.did")),
			expr.NewCmp(expr.LT, expr.NewCol(3, "E.age"), expr.Int(30)),
			expr.NewCmp(expr.GT, expr.NewCol(5, "D.budget"), expr.Int(100000)),
		},
		Proj: []query.Output{
			{Expr: expr.NewCol(0, "E.eid"), Name: "eid"},
			{Expr: expr.NewCol(7, "P.perk"), Name: "perk"},
			{Expr: expr.NewCol(8, "P.cost"), Name: "cost"},
		},
	}
}
