package filterjoin

import (
	"context"
	"fmt"

	"filterjoin/internal/plan"
	"filterjoin/internal/sql"
)

// Session is a lightweight handle onto an Engine. Sessions hold no
// mutable state of their own: any number of them (or concurrent calls
// on one) can run SELECTs in parallel, while catalog-mutating
// statements serialize inside the engine under its epoch lock.
type Session struct {
	eng *Engine
}

// Engine returns the engine this session runs against.
func (s *Session) Engine() *Engine { return s.eng }

// Exec runs one SQL statement with optional bind arguments. DDL and
// INSERT return a nil *Result; SELECT returns rows. Arguments bind to
// `?`/`$n` placeholders in the text; supported Go types are int, int64,
// float64, string, bool, nil, and value.Value.
func (s *Session) Exec(text string, args ...any) (*Result, error) {
	return s.ExecContext(context.Background(), text, args...)
}

// ExecContext is Exec under a caller context: cancellation or deadline
// expiry aborts execution between rows (and between transport retries)
// with the context's error.
func (s *Session) ExecContext(stdctx context.Context, text string, args ...any) (*Result, error) {
	st, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	vals, err := toValues(args)
	if err != nil {
		return nil, err
	}
	return s.eng.execStmt(stdctx, st, vals)
}

// Query runs a SELECT statement and returns its rows.
func (s *Session) Query(text string, args ...any) (*Result, error) {
	return s.QueryContext(context.Background(), text, args...)
}

// QueryContext is Query under a caller context (see ExecContext).
func (s *Session) QueryContext(stdctx context.Context, text string, args ...any) (*Result, error) {
	res, err := s.ExecContext(stdctx, text, args...)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("filterjoin: statement produced no result set")
	}
	return res, nil
}

// ExecScript runs a semicolon-separated sequence of statements,
// discarding SELECT results.
func (s *Session) ExecScript(text string) error {
	sts, err := sql.ParseScript(text)
	if err != nil {
		return err
	}
	for _, st := range sts {
		if _, err := s.eng.execStmt(context.Background(), st, nil); err != nil {
			return err
		}
	}
	return nil
}

// Prepare parses and validates a SELECT statement once for repeated
// execution with different bind arguments. Placeholder syntax is `?`
// (positional, numbered in lexical order) or `$n` (explicit, 1-based);
// the two may mix but the used slots must be contiguous. A prepared
// statement is safe for concurrent use.
func (s *Session) Prepare(text string) (*Stmt, error) {
	sel, err := parseSelect(text)
	if err != nil {
		return nil, err
	}
	n, err := sql.NumParams(sel)
	if err != nil {
		return nil, err
	}
	return &Stmt{sess: s, text: text, sel: sel, n: n}, nil
}

// parseSelect parses text, which must be one SELECT statement.
func parseSelect(text string) (*sql.SelectStmt, error) {
	st, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("filterjoin: expected a SELECT statement, got %T", st)
	}
	return sel, nil
}

// Explain returns the optimized plan for a SELECT rendered as text,
// ending with the plan-cache banner (cache=hit|miss|bypass). The lookup
// both consults and populates the cache, so a subsequent Query of the
// same statement hits.
func (s *Session) Explain(text string, args ...any) (string, error) {
	return s.explain(text, false, plan.AnalyzeOptions{}, args)
}

// ExplainAnalyze optimizes and executes a SELECT, returning the plan
// tree annotated per operator with the optimizer's estimates next to
// the measured rows and cost counters (deterministic: wall times are
// collected in Result.Stats but not printed), plus the plan-cache
// banner.
func (s *Session) ExplainAnalyze(text string, args ...any) (string, error) {
	return s.explain(text, true, plan.AnalyzeOptions{}, args)
}

// ExplainAnalyzeOpts is ExplainAnalyze with rendering options (show
// per-operator wall time, tune the misestimate-flag ratio).
func (s *Session) ExplainAnalyzeOpts(text string, opts plan.AnalyzeOptions, args ...any) (string, error) {
	return s.explain(text, true, opts, args)
}

func (s *Session) explain(text string, analyze bool, opts plan.AnalyzeOptions, args []any) (string, error) {
	st, err := s.Prepare(text)
	if err != nil {
		return "", err
	}
	return st.explain(analyze, opts, args)
}

// Stmt is a prepared SELECT statement: parsed and validated once,
// executed many times with bind arguments. Executions go through the
// engine's plan cache keyed on the statement's normalized text and the
// arguments' selectivity classes, so re-execution with values in the
// same class reuses the plan and a value in a new class re-optimizes.
type Stmt struct {
	sess *Session
	text string
	sel  *sql.SelectStmt
	n    int
}

// Text returns the original statement text.
func (st *Stmt) Text() string { return st.text }

// NumParams returns the number of bind arguments the statement expects.
func (st *Stmt) NumParams() int { return st.n }

// Exec runs the prepared statement with the given bind arguments.
func (st *Stmt) Exec(args ...any) (*Result, error) {
	return st.ExecContext(context.Background(), args...)
}

// ExecContext is Exec under a caller context (see Session.ExecContext).
func (st *Stmt) ExecContext(stdctx context.Context, args ...any) (*Result, error) {
	vals, err := toValues(args)
	if err != nil {
		return nil, err
	}
	return st.sess.eng.serveSelect(stdctx, st.sel, vals)
}

// Explain renders the plan the statement would run with. With all
// arguments bound it is the cached (or cacheable) plan, banner included;
// with no arguments and a parameterized statement it renders the generic
// unbound plan and reports cache=bypass — there is no selectivity class
// to key on without values.
func (st *Stmt) Explain(args ...any) (string, error) {
	return st.explain(false, plan.AnalyzeOptions{}, args)
}

// ExplainAnalyze executes the statement with the given arguments and
// renders the measured plan (all arguments are required).
func (st *Stmt) ExplainAnalyze(args ...any) (string, error) {
	return st.explain(true, plan.AnalyzeOptions{}, args)
}

func (st *Stmt) explain(analyze bool, opts plan.AnalyzeOptions, args []any) (string, error) {
	vals, err := toValues(args)
	if err != nil {
		return "", err
	}
	out, _, err := st.sess.eng.explainSelect(context.Background(), st.sel, vals, analyze, opts, false)
	return out, err
}
