package query

import (
	"fmt"
	"testing"

	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

// fixedResolver resolves relation names to canned schemas.
type fixedResolver map[string]*schema.Schema

func (r fixedResolver) RelationSchema(name string) (*schema.Schema, error) {
	if s, ok := r[name]; ok {
		return s, nil
	}
	return nil, errUnknown(name)
}

type errUnknown string

func (e errUnknown) Error() string { return "unknown relation " + string(e) }

func twoRelResolver() fixedResolver {
	return fixedResolver{
		"A": schema.New(
			schema.Column{Table: "A", Name: "x", Type: value.KindInt},
			schema.Column{Table: "A", Name: "y", Type: value.KindFloat},
		),
		"B": schema.New(
			schema.Column{Table: "B", Name: "x", Type: value.KindInt},
		),
	}
}

func TestRelSetOps(t *testing.T) {
	s := NewRelSet(0, 2)
	if !s.Has(0) || s.Has(1) || !s.Has(2) {
		t.Error("membership wrong")
	}
	if s.Count() != 2 {
		t.Errorf("Count = %d", s.Count())
	}
	if got := s.With(1).Count(); got != 3 {
		t.Errorf("With = %d members", got)
	}
	if !NewRelSet(0).SubsetOf(s) {
		t.Error("subset check")
	}
	if s.SubsetOf(NewRelSet(0)) {
		t.Error("superset is not a subset")
	}
	if got := s.Union(NewRelSet(1)).Members(); len(got) != 3 {
		t.Errorf("Members = %v", got)
	}
}

func TestLayout(t *testing.T) {
	b := &Block{Rels: []RelRef{{Name: "A", Alias: "a1"}, {Name: "B"}}}
	l, err := b.Layout(twoRelResolver())
	if err != nil {
		t.Fatal(err)
	}
	if l.Schema.Len() != 3 {
		t.Fatalf("layout width = %d", l.Schema.Len())
	}
	if l.Offsets[1] != 2 || l.Widths[0] != 2 {
		t.Errorf("offsets %v widths %v", l.Offsets, l.Widths)
	}
	if l.Schema.Col(0).Table != "a1" {
		t.Error("alias must requalify columns")
	}
	if l.RelOfCol(0) != 0 || l.RelOfCol(2) != 1 || l.RelOfCol(5) != -1 {
		t.Error("RelOfCol wrong")
	}
}

func TestLayoutUnknownRelation(t *testing.T) {
	b := &Block{Rels: []RelRef{{Name: "Z"}}}
	if _, err := b.Layout(twoRelResolver()); err == nil {
		t.Error("unknown relation must error")
	}
}

func TestPredRels(t *testing.T) {
	b := &Block{Rels: []RelRef{{Name: "A"}, {Name: "B"}}}
	l, _ := b.Layout(twoRelResolver())
	p := expr.Eq(expr.NewCol(0, "A.x"), expr.NewCol(2, "B.x"))
	if got := PredRels(p, l); got != NewRelSet(0, 1) {
		t.Errorf("PredRels = %v", got.Members())
	}
	local := expr.NewCmp(expr.GT, expr.NewCol(1, "A.y"), expr.Float(1))
	if got := PredRels(local, l); got != NewRelSet(0) {
		t.Errorf("local PredRels = %v", got.Members())
	}
}

func TestOutputProvenance(t *testing.T) {
	// Aggregation block: outputs are group cols then aggs.
	b := &Block{
		Rels:    []RelRef{{Name: "A"}},
		GroupBy: []int{1},
		Aggs:    []expr.AggSpec{{Kind: expr.AggCount, Name: "n"}},
	}
	prov := b.OutputProvenance(2)
	if len(prov) != 2 || prov[0] != 1 || prov[1] != -1 {
		t.Errorf("agg provenance = %v", prov)
	}
	// Projection block.
	b2 := &Block{
		Rels: []RelRef{{Name: "A"}},
		Proj: []Output{
			{Expr: expr.NewCol(1, "y")},
			{Expr: expr.Arith{Op: expr.Add, L: expr.NewCol(0, ""), R: expr.Int(1)}},
		},
	}
	prov = b2.OutputProvenance(2)
	if prov[0] != 1 || prov[1] != -1 {
		t.Errorf("proj provenance = %v", prov)
	}
	// Identity block.
	b3 := &Block{Rels: []RelRef{{Name: "A"}}}
	prov = b3.OutputProvenance(2)
	if prov[0] != 0 || prov[1] != 1 {
		t.Errorf("identity provenance = %v", prov)
	}
}

func TestOutputSchema(t *testing.T) {
	b := &Block{
		Rels:    []RelRef{{Name: "A"}},
		GroupBy: []int{0},
		Aggs:    []expr.AggSpec{{Kind: expr.AggAvg, Arg: expr.NewCol(1, "A.y"), Name: "avgy"}},
	}
	s, err := b.OutputSchema(twoRelResolver(), "V")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Col(0).Table != "V" || s.Col(1).Name != "avgy" {
		t.Errorf("output schema = %s", s)
	}
	if s.Col(1).Type != value.KindFloat {
		t.Error("AVG output is float")
	}
	// Projection schema keeps expression types.
	b2 := &Block{
		Rels: []RelRef{{Name: "A"}},
		Proj: []Output{{Expr: expr.NewCol(1, "A.y"), Name: "y2"}},
	}
	s2, err := b2.OutputSchema(twoRelResolver(), "W")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Col(0).Type != value.KindFloat || s2.Col(0).Name != "y2" {
		t.Errorf("proj schema = %s", s2)
	}
	// Computed select items: arithmetic keeps its left operand's type,
	// every boolean form is a bool.
	x, y := expr.NewCol(0, "A.x"), expr.NewCol(1, "A.y")
	pos, neg := expr.NewCmp(expr.GT, x, expr.Int(0)), expr.NewCmp(expr.LT, y, expr.Float(1))
	items := []struct {
		e    expr.Expr
		want value.Kind
	}{
		{expr.Arith{Op: expr.Mul, L: y, R: expr.Int(2)}, value.KindFloat},
		{pos, value.KindBool},
		{expr.NewAnd(pos, neg), value.KindBool},
		{expr.NewOr(pos, neg), value.KindBool},
		{expr.Not{Kid: pos}, value.KindBool},
	}
	b3 := &Block{Rels: []RelRef{{Name: "A"}}}
	for i, it := range items {
		b3.Proj = append(b3.Proj, Output{Expr: it.e, Name: fmt.Sprintf("c%d", i)})
	}
	s3, err := b3.OutputSchema(twoRelResolver(), "X")
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if got := s3.Col(i).Type; got != it.want {
			t.Errorf("%s: output type %v, want %v", it.e, got, it.want)
		}
	}
}

func TestOutputWidth(t *testing.T) {
	b := &Block{Rels: []RelRef{{Name: "A"}}}
	if b.OutputWidth(2) != 2 {
		t.Error("identity width")
	}
	b.Proj = []Output{{Expr: expr.Int(1)}}
	if b.OutputWidth(2) != 1 {
		t.Error("projection width")
	}
	b.Proj = nil
	b.GroupBy = []int{0}
	b.Aggs = []expr.AggSpec{{Kind: expr.AggCount}}
	if b.OutputWidth(2) != 2 {
		t.Error("aggregation width")
	}
}

func TestCloneIndependence(t *testing.T) {
	b := &Block{
		Rels:  []RelRef{{Name: "A"}},
		Preds: []expr.Expr{expr.Int(1)},
	}
	c := b.Clone()
	c.Rels = append(c.Rels, RelRef{Name: "B"})
	c.Preds = append(c.Preds, expr.Int(2))
	if len(b.Rels) != 1 || len(b.Preds) != 1 {
		t.Error("Clone must not share slice storage")
	}
}

func TestBinding(t *testing.T) {
	if (RelRef{Name: "A"}).Binding() != "A" {
		t.Error("default binding is the name")
	}
	if (RelRef{Name: "A", Alias: "x"}).Binding() != "x" {
		t.Error("alias wins")
	}
}

func TestBlockString(t *testing.T) {
	b := &Block{
		Rels:  []RelRef{{Name: "A", Alias: "a"}, {Name: "B"}},
		Preds: []expr.Expr{expr.Eq(expr.NewCol(0, "a.x"), expr.NewCol(2, "B.x"))},
	}
	s := b.String()
	if s == "" || !contains(s, "FROM A a, B") || !contains(s, "WHERE") {
		t.Errorf("String() = %q", s)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && indexOf(s, sub) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
