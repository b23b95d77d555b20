package sql

import "filterjoin/internal/value"

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// CreateTable is CREATE TABLE name (col type, ...).
type CreateTable struct {
	Name string
	Cols []ColDef
}

// ColDef is one column definition.
type ColDef struct {
	Name string
	Type value.Kind
}

// CreateIndex is CREATE INDEX name ON table (col, ...).
type CreateIndex struct {
	Name  string
	Table string
	Cols  []string
}

// CreateView is CREATE VIEW name AS select.
type CreateView struct {
	Name   string
	Select *SelectStmt
}

// Insert is INSERT INTO table VALUES (lit, ...), ....
type Insert struct {
	Table string
	Rows  [][]value.Value
}

// SelectStmt is SELECT [DISTINCT] items FROM refs [WHERE pred]
// [GROUP BY cols] [HAVING pred] [ORDER BY cols] [LIMIT n].
type SelectStmt struct {
	Distinct bool
	Star     bool // SELECT *
	Items    []SelectItem
	From     []TableRef
	Where    AExpr
	GroupBy  []AColumn
	Having   AExpr
	OrderBy  []OrderBy
	Limit    int
}

// OrderBy is one ORDER BY entry.
type OrderBy struct {
	Col  AColumn
	Desc bool
}

// SelectItem is one select-list entry.
type SelectItem struct {
	Expr  AExpr
	Alias string
}

// TableRef is one FROM entry: name with optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// UnionStmt is two or more SELECTs combined with UNION [ALL]. Plain
// UNION removes duplicate rows across all arms.
type UnionStmt struct {
	Selects []*SelectStmt
	All     bool
}

// ExplainStmt is EXPLAIN [ANALYZE] SELECT ...: it returns the optimized
// plan as text instead of the query's rows; with ANALYZE the plan is
// also executed and measured costs are appended.
type ExplainStmt struct {
	Analyze bool
	Select  *SelectStmt
}

func (*CreateTable) stmt() {}
func (*CreateIndex) stmt() {}
func (*CreateView) stmt()  {}
func (*Insert) stmt()      {}
func (*SelectStmt) stmt()  {}
func (*UnionStmt) stmt()   {}
func (*ExplainStmt) stmt() {}

// AExpr is an unbound (name-based) expression.
type AExpr interface{ aexpr() }

// AColumn is a possibly-qualified column reference.
type AColumn struct {
	Table string
	Name  string
}

// ALit is a literal.
type ALit struct{ V value.Value }

// ABinary is a binary operation; Op is one of
// = <> < <= > >= + - * / AND OR.
type ABinary struct {
	Op   string
	L, R AExpr
}

// ANot is NOT x.
type ANot struct{ X AExpr }

// ACall is an aggregate function call; Star marks COUNT(*).
type ACall struct {
	Name string
	Star bool
	Arg  AExpr // nil when Star
}

// AParam is a bind-parameter placeholder: `?` (positional, numbered in
// lexical order) or `$n` (explicit, 1-based in the text, 0-based here).
type AParam struct{ Idx int }

func (AColumn) aexpr() {}
func (ALit) aexpr()    {}
func (ABinary) aexpr() {}
func (ANot) aexpr()    {}
func (ACall) aexpr()   {}
func (AParam) aexpr()  {}

// anyNode reports whether f holds for e or any node below it; it is the
// one function that knows which AExpr nodes have operands. A nil e (an
// absent clause, COUNT(*)'s argument) has no nodes.
func anyNode(e AExpr, f func(AExpr) bool) bool {
	if e == nil {
		return false
	}
	if f(e) {
		return true
	}
	switch x := e.(type) {
	case ABinary:
		return anyNode(x.L, f) || anyNode(x.R, f)
	case ANot:
		return anyNode(x.X, f)
	case ACall:
		return anyNode(x.Arg, f)
	default:
		// AColumn, ALit, AParam: the leaves.
		return false
	}
}

// anyClause is anyNode over every expression of st: the select list,
// WHERE and HAVING.
func anyClause(st *SelectStmt, f func(AExpr) bool) bool {
	for _, it := range st.Items {
		if anyNode(it.Expr, f) {
			return true
		}
	}
	return anyNode(st.Where, f) || anyNode(st.Having, f)
}

// is reports whether e is a T; is[ACall] is the anyNode probe for an
// aggregate call.
func is[T AExpr](e AExpr) bool {
	_, ok := e.(T)
	return ok
}
