// Package expr provides bound scalar expressions over rows: column
// references (by index), literals, comparisons, boolean connectives and
// arithmetic. Expressions are bound — they refer to columns by position in
// the row they are evaluated against. The SQL front-end resolves names to
// positions; the optimizer re-bases positions when it concatenates schemas.
package expr

import (
	"fmt"
	"strings"

	"filterjoin/internal/value"
)

// Expr is a bound scalar expression.
type Expr interface {
	// Eval computes the expression over row.
	Eval(row value.Row) (value.Value, error)
	// Shift(offset) is Shift(e, offset).
	Shift(offset int) Expr
	// String renders the expression for plan display.
	String() string
}

// EvalBool evaluates e as a predicate: NULL and non-boolean results are
// treated as false (SQL WHERE semantics for unknown).
func EvalBool(e Expr, row value.Row) (bool, error) {
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	if v.Kind() != value.KindBool {
		return false, nil
	}
	return v.Bool(), nil
}

// Col references the column at index Idx of the input row. Name is carried
// only for display.
type Col struct {
	Idx  int
	Name string
}

// NewCol builds a column reference.
func NewCol(idx int, name string) Col { return Col{Idx: idx, Name: name} }

// Eval implements Expr.
func (c Col) Eval(row value.Row) (value.Value, error) {
	if c.Idx < 0 || c.Idx >= len(row) {
		return value.Null, fmt.Errorf("expr: column index %d out of range (row width %d)", c.Idx, len(row))
	}
	return row[c.Idx], nil
}

// Shift implements Expr.
func (c Col) Shift(offset int) Expr { return Shift(c, offset) }

// String implements Expr.
func (c Col) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Idx)
}

// Lit is a literal value.
type Lit struct{ V value.Value }

// NewLit builds a literal expression.
func NewLit(v value.Value) Lit { return Lit{V: v} }

// Int is shorthand for an integer literal.
func Int(v int64) Lit { return Lit{V: value.NewInt(v)} }

// Float is shorthand for a float literal.
func Float(v float64) Lit { return Lit{V: value.NewFloat(v)} }

// Str is shorthand for a string literal.
func Str(v string) Lit { return Lit{V: value.NewString(v)} }

// Eval implements Expr.
func (l Lit) Eval(value.Row) (value.Value, error) { return l.V, nil }

// Shift implements Expr.
func (l Lit) Shift(offset int) Expr { return Shift(l, offset) }

// String implements Expr.
func (l Lit) String() string {
	if l.V.Kind() == value.KindString {
		return "'" + l.V.Str() + "'"
	}
	return l.V.String()
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String renders the operator.
func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return "?"
	}
}

// Cmp compares two sub-expressions. NULL operands yield NULL.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// NewCmp builds a comparison.
func NewCmp(op CmpOp, l, r Expr) Cmp { return Cmp{Op: op, L: l, R: r} }

// Eval implements Expr.
func (c Cmp) Eval(row value.Row) (value.Value, error) {
	lv, err := c.L.Eval(row)
	if err != nil {
		return value.Null, err
	}
	rv, err := c.R.Eval(row)
	if err != nil {
		return value.Null, err
	}
	if lv.IsNull() || rv.IsNull() {
		return value.Null, nil
	}
	cmp := value.Compare(lv, rv)
	var out bool
	switch c.Op {
	case EQ:
		out = cmp == 0
	case NE:
		out = cmp != 0
	case LT:
		out = cmp < 0
	case LE:
		out = cmp <= 0
	case GT:
		out = cmp > 0
	case GE:
		out = cmp >= 0
	}
	return value.NewBool(out), nil
}

// Shift implements Expr.
func (c Cmp) Shift(offset int) Expr { return Shift(c, offset) }

// String implements Expr.
func (c Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.L.String(), c.Op, c.R.String())
}

// And is an n-ary conjunction. An empty And is true.
type And struct{ Kids []Expr }

// NewAnd builds a conjunction, flattening nested Ands.
func NewAnd(kids ...Expr) Expr {
	flat := make([]Expr, 0, len(kids))
	for _, k := range kids {
		if a, ok := k.(And); ok {
			flat = append(flat, a.Kids...)
		} else if k != nil {
			flat = append(flat, k)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return And{Kids: flat}
}

// Eval implements Expr.
func (a And) Eval(row value.Row) (value.Value, error) {
	for _, k := range a.Kids {
		ok, err := EvalBool(k, row)
		if err != nil {
			return value.Null, err
		}
		if !ok {
			return value.NewBool(false), nil
		}
	}
	return value.NewBool(true), nil
}

// Shift implements Expr.
func (a And) Shift(offset int) Expr { return Shift(a, offset) }

// String implements Expr.
func (a And) String() string {
	if len(a.Kids) == 0 {
		return "true"
	}
	parts := make([]string, len(a.Kids))
	for i, k := range a.Kids {
		parts[i] = k.String()
	}
	return strings.Join(parts, " AND ")
}

// Or is an n-ary disjunction. An empty Or is false.
type Or struct{ Kids []Expr }

// NewOr builds a disjunction.
func NewOr(kids ...Expr) Expr {
	if len(kids) == 1 {
		return kids[0]
	}
	return Or{Kids: kids}
}

// Eval implements Expr.
func (o Or) Eval(row value.Row) (value.Value, error) {
	for _, k := range o.Kids {
		ok, err := EvalBool(k, row)
		if err != nil {
			return value.Null, err
		}
		if ok {
			return value.NewBool(true), nil
		}
	}
	return value.NewBool(false), nil
}

// Shift implements Expr.
func (o Or) Shift(offset int) Expr { return Shift(o, offset) }

// String implements Expr.
func (o Or) String() string {
	if len(o.Kids) == 0 {
		return "false"
	}
	parts := make([]string, len(o.Kids))
	for i, k := range o.Kids {
		parts[i] = "(" + k.String() + ")"
	}
	return strings.Join(parts, " OR ")
}

// Not negates a predicate. NULL stays NULL.
type Not struct{ Kid Expr }

// Eval implements Expr.
func (n Not) Eval(row value.Row) (value.Value, error) {
	v, err := n.Kid.Eval(row)
	if err != nil {
		return value.Null, err
	}
	if v.IsNull() {
		return value.Null, nil
	}
	if v.Kind() != value.KindBool {
		return value.Null, fmt.Errorf("expr: NOT over non-boolean %s", v.Kind())
	}
	return value.NewBool(!v.Bool()), nil
}

// Shift implements Expr.
func (n Not) Shift(offset int) Expr { return Shift(n, offset) }

// String implements Expr.
func (n Not) String() string { return "NOT (" + n.Kid.String() + ")" }

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

// String renders the operator.
func (o ArithOp) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	default:
		return "?"
	}
}

// Arith is binary arithmetic over numeric operands. Two int operands keep
// int arithmetic (integer division); any float operand promotes to float.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval implements Expr.
func (a Arith) Eval(row value.Row) (value.Value, error) {
	lv, err := a.L.Eval(row)
	if err != nil {
		return value.Null, err
	}
	rv, err := a.R.Eval(row)
	if err != nil {
		return value.Null, err
	}
	if lv.IsNull() || rv.IsNull() {
		return value.Null, nil
	}
	if !lv.Numeric() || !rv.Numeric() {
		return value.Null, fmt.Errorf("expr: arithmetic over %s and %s", lv.Kind(), rv.Kind())
	}
	if lv.Kind() == value.KindInt && rv.Kind() == value.KindInt {
		li, ri := lv.Int(), rv.Int()
		switch a.Op {
		case Add:
			return value.NewInt(li + ri), nil
		case Sub:
			return value.NewInt(li - ri), nil
		case Mul:
			return value.NewInt(li * ri), nil
		case Div:
			if ri == 0 {
				return value.Null, fmt.Errorf("expr: integer division by zero")
			}
			return value.NewInt(li / ri), nil
		}
	}
	lf, _ := lv.AsFloat()
	rf, _ := rv.AsFloat()
	switch a.Op {
	case Add:
		return value.NewFloat(lf + rf), nil
	case Sub:
		return value.NewFloat(lf - rf), nil
	case Mul:
		return value.NewFloat(lf * rf), nil
	case Div:
		if rf == 0 {
			return value.Null, fmt.Errorf("expr: division by zero")
		}
		return value.NewFloat(lf / rf), nil
	}
	return value.Null, fmt.Errorf("expr: unknown arithmetic op")
}

// Shift implements Expr.
func (a Arith) Shift(offset int) Expr { return Shift(a, offset) }

// String implements Expr.
func (a Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L.String(), a.Op, a.R.String())
}

// Eq is shorthand for an equality comparison between two columns.
func Eq(l, r Expr) Cmp { return Cmp{Op: EQ, L: l, R: r} }

// ColConst recognizes "column op constant" in either operand order. It
// returns the column, the operator normalised to read column-first
// (5 < col ≡ col > 5), and the constant side as written: a literal or a
// bound parameter, whose planning-time value k.Eval(nil) yields without
// error. The expression is returned rather than the value because an
// index lookup resolves a Param at Open, not at plan time.
func ColConst(c Cmp) (col Col, op CmpOp, k Expr, ok bool) {
	isConst := func(e Expr) bool {
		switch x := e.(type) {
		case Lit:
			return true
		case Param:
			return x.Has
		default:
			// Columns and compound expressions are row-dependent.
			return false
		}
	}
	if l, isCol := c.L.(Col); isCol && isConst(c.R) {
		return l, c.Op, c.R, true
	}
	if r, isCol := c.R.(Col); isCol && isConst(c.L) {
		op = c.Op
		switch c.Op {
		case LT:
			op = GT
		case LE:
			op = GE
		case GT:
			op = LT
		case GE:
			op = LE
		default:
			// EQ and NE are symmetric.
		}
		return r, op, c.L, true
	}
	return Col{}, 0, nil, false
}
