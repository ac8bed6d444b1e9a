// Package expr defines the scalar expression and predicate language shared by
// the parser, the optimizer, the STAR rule engine, and the query evaluator.
//
// Expressions are immutable trees over column references, constants,
// arithmetic, comparisons, and boolean connectives. The package also supplies
// the predicate analysis the paper's Section 4 join STARs depend on:
// classifying an eligible-predicate set P into join predicates (JP), sortable
// predicates (SP), hashable predicates (HP), indexable predicates (XP), and
// inner-only predicates (IP).
package expr

import (
	"slices"
	"sort"
	"strings"

	"stars/internal/datum"
)

// ColID names a column as table.column, where "table" is the quantifier
// (range-variable) name, not necessarily the base table name.
type ColID struct {
	Table string
	Col   string
}

// String renders the column as TABLE.COL.
func (c ColID) String() string { return c.Table + "." + c.Col }

// AppendTo appends the column's String rendering to b.
func (c ColID) AppendTo(b []byte) []byte { return append(append(append(b, c.Table...), '.'), c.Col...) }

// Compare orders ColIDs by table, then column: the order column sets and
// vocabularies are canonical in.
func (c ColID) Compare(o ColID) int {
	if c.Table != o.Table {
		return strings.Compare(c.Table, o.Table)
	}
	return strings.Compare(c.Col, o.Col)
}

// Binding resolves column references to values during evaluation.
type Binding interface {
	// ColValue returns the current value of the column and whether the
	// column is bound at all.
	ColValue(c ColID) (datum.Datum, bool)
}

// MapBinding is a Binding backed by a map; convenient in tests and in the
// executor's simple contexts.
type MapBinding map[ColID]datum.Datum

// ColValue implements Binding.
func (m MapBinding) ColValue(c ColID) (datum.Datum, bool) {
	d, ok := m[c]
	return d, ok
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

// String renders the operator in SQL syntax.
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

// Flip returns the operator with its operands exchanged (a < b  ==  b > a).
func (o CmpOp) Flip() CmpOp {
	switch o {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default:
		return o
	}
}

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

// Expr is a scalar expression tree node. Implementations are Const, Col,
// Arith, Cmp, And, Or, and Not.
type Expr interface {
	// Eval evaluates the expression under b. Unbound columns and
	// type-mismatched operations yield NULL rather than an error, matching
	// SQL's unknown semantics for predicates.
	Eval(b Binding) datum.Datum
	// Key returns a canonical string for the expression, unique up to
	// structural equality; predicate sets are keyed on it.
	Key() string
	// String renders the expression for humans (EXPLAIN, traces).
	String() string
	// AppendTo appends String's rendering to b.
	AppendTo(b []byte) []byte
	// walk calls f on this node and recursively on children.
	walk(f func(Expr))
}

// Const is a literal value.
type Const struct{ Val datum.Datum }

// Eval implements Expr.
func (c *Const) Eval(Binding) datum.Datum { return c.Val }

// Key implements Expr.
func (c *Const) Key() string { return c.Val.String() }

// String implements Expr.
func (c *Const) String() string { return c.Val.String() }

// AppendTo implements Expr.
func (c *Const) AppendTo(b []byte) []byte { return c.Val.AppendTo(b) }

func (c *Const) walk(f func(Expr)) { f(c) }

// Col is a column reference.
type Col struct{ ID ColID }

// C is shorthand for constructing a column reference.
func C(table, col string) *Col { return &Col{ID: ColID{Table: table, Col: col}} }

// Eval implements Expr.
func (c *Col) Eval(b Binding) datum.Datum {
	if b == nil {
		return datum.Null
	}
	if v, ok := b.ColValue(c.ID); ok {
		return v
	}
	return datum.Null
}

// Key implements Expr.
func (c *Col) Key() string { return c.ID.String() }

// String implements Expr.
func (c *Col) String() string { return c.ID.String() }

// AppendTo implements Expr.
func (c *Col) AppendTo(b []byte) []byte { return c.ID.AppendTo(b) }

func (c *Col) walk(f func(Expr)) { f(c) }

// Arith is a binary arithmetic expression.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval implements Expr.
func (a *Arith) Eval(b Binding) datum.Datum {
	lv, lok := a.L.Eval(b).AsFloat()
	rv, rok := a.R.Eval(b).AsFloat()
	if !lok || !rok {
		return datum.Null
	}
	switch a.Op {
	case Add:
		return datum.NewFloat(lv + rv)
	case Sub:
		return datum.NewFloat(lv - rv)
	case Mul:
		return datum.NewFloat(lv * rv)
	case Div:
		if rv == 0 {
			return datum.Null
		}
		return datum.NewFloat(lv / rv)
	default:
		return datum.Null
	}
}

// Key implements Expr.
func (a *Arith) Key() string {
	return "(" + a.L.Key() + a.Op.String() + a.R.Key() + ")"
}

// String implements Expr.
func (a *Arith) String() string { return string(a.AppendTo(nil)) }

// AppendTo implements Expr.
func (a *Arith) AppendTo(b []byte) []byte {
	b = append(a.L.AppendTo(append(b, '(')), ' ')
	return append(a.R.AppendTo(append(append(b, a.Op.String()...), ' ')), ')')
}

func (a *Arith) walk(f func(Expr)) { f(a); a.L.walk(f); a.R.walk(f) }

// Cmp is a comparison predicate.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr. The result is a boolean datum, or NULL when the
// comparison is undefined (NULL operand or incomparable kinds).
func (c *Cmp) Eval(b Binding) datum.Datum {
	lv := c.L.Eval(b)
	rv := c.R.Eval(b)
	cmp, ok := lv.Compare(rv)
	if !ok {
		return datum.Null
	}
	var r bool
	switch c.Op {
	case EQ:
		r = cmp == 0
	case NE:
		r = cmp != 0
	case LT:
		r = cmp < 0
	case LE:
		r = cmp <= 0
	case GT:
		r = cmp > 0
	case GE:
		r = cmp >= 0
	}
	return datum.NewBool(r)
}

// Key implements Expr. Symmetric operators canonicalize operand order so
// that a=b and b=a key identically.
func (c *Cmp) Key() string { return cmpKey(c.Op, c.L.Key(), c.R.Key()) }

func cmpKey(op CmpOp, lk, rk string) string {
	switch op {
	case EQ, NE:
		if rk < lk {
			lk, rk = rk, lk
		}
	case GT, GE:
		op = op.Flip()
		lk, rk = rk, lk
	}
	return "(" + lk + op.String() + rk + ")"
}

// String implements Expr.
func (c *Cmp) String() string { return string(c.AppendTo(nil)) }

// AppendTo implements Expr.
func (c *Cmp) AppendTo(b []byte) []byte {
	b = append(c.L.AppendTo(b), ' ')
	return c.R.AppendTo(append(append(b, c.Op.String()...), ' '))
}

func (c *Cmp) walk(f func(Expr)) { f(c); c.L.walk(f); c.R.walk(f) }

// And is an n-ary conjunction.
type And struct{ Kids []Expr }

// Eval implements Expr using three-valued logic: false dominates NULL.
func (a *And) Eval(b Binding) datum.Datum {
	sawNull := false
	for _, k := range a.Kids {
		v := k.Eval(b)
		if v.IsNull() {
			sawNull = true
			continue
		}
		if v.Kind() == datum.KindBool && !v.Bool() {
			return datum.NewBool(false)
		}
		if v.Kind() != datum.KindBool {
			sawNull = true
		}
	}
	if sawNull {
		return datum.Null
	}
	return datum.NewBool(true)
}

// Key implements Expr; conjunct order is canonicalized.
func (a *And) Key() string {
	keys := make([]string, len(a.Kids))
	for i, k := range a.Kids {
		keys[i] = k.Key()
	}
	sort.Strings(keys)
	return "AND(" + strings.Join(keys, ",") + ")"
}

// String implements Expr.
func (a *And) String() string { return string(a.AppendTo(nil)) }

// AppendTo implements Expr.
func (a *And) AppendTo(b []byte) []byte { return appendJoined(b, a.Kids, " AND ") }

// appendJoined appends the expressions, sep-separated, in parentheses.
func appendJoined(b []byte, kids []Expr, sep string) []byte {
	b = append(b, '(')
	for i, k := range kids {
		if i > 0 {
			b = append(b, sep...)
		}
		b = k.AppendTo(b)
	}
	return append(b, ')')
}

func (a *And) walk(f func(Expr)) {
	f(a)
	for _, k := range a.Kids {
		k.walk(f)
	}
}

// Or is an n-ary disjunction.
type Or struct{ Kids []Expr }

// Eval implements Expr using three-valued logic: true dominates NULL.
func (o *Or) Eval(b Binding) datum.Datum {
	sawNull := false
	for _, k := range o.Kids {
		v := k.Eval(b)
		if v.IsNull() {
			sawNull = true
			continue
		}
		if v.Kind() == datum.KindBool && v.Bool() {
			return datum.NewBool(true)
		}
		if v.Kind() != datum.KindBool {
			sawNull = true
		}
	}
	if sawNull {
		return datum.Null
	}
	return datum.NewBool(false)
}

// Key implements Expr; disjunct order is canonicalized.
func (o *Or) Key() string {
	keys := make([]string, len(o.Kids))
	for i, k := range o.Kids {
		keys[i] = k.Key()
	}
	sort.Strings(keys)
	return "OR(" + strings.Join(keys, ",") + ")"
}

// String implements Expr.
func (o *Or) String() string { return string(o.AppendTo(nil)) }

// AppendTo implements Expr.
func (o *Or) AppendTo(b []byte) []byte { return appendJoined(b, o.Kids, " OR ") }

func (o *Or) walk(f func(Expr)) {
	f(o)
	for _, k := range o.Kids {
		k.walk(f)
	}
}

// Not is logical negation.
type Not struct{ Kid Expr }

// Eval implements Expr.
func (n *Not) Eval(b Binding) datum.Datum {
	v := n.Kid.Eval(b)
	if v.Kind() != datum.KindBool {
		return datum.Null
	}
	return datum.NewBool(!v.Bool())
}

// Key implements Expr.
func (n *Not) Key() string { return "NOT(" + n.Kid.Key() + ")" }

// String implements Expr.
func (n *Not) String() string { return "NOT " + n.Kid.String() }

// AppendTo implements Expr.
func (n *Not) AppendTo(b []byte) []byte { return n.Kid.AppendTo(append(b, "NOT "...)) }

func (n *Not) walk(f func(Expr)) { f(n); n.Kid.walk(f) }

// ShapeKey is Key with every literal rendered as "?": expressions that
// differ only in their constants share it.
func ShapeKey(e Expr) string {
	kids := func(ks []Expr) string {
		keys := make([]string, len(ks))
		for i, k := range ks {
			keys[i] = ShapeKey(k)
		}
		sort.Strings(keys)
		return strings.Join(keys, ",")
	}
	switch n := e.(type) {
	case *Const:
		return "?"
	case *Arith:
		return "(" + ShapeKey(n.L) + n.Op.String() + ShapeKey(n.R) + ")"
	case *Cmp:
		return cmpKey(n.Op, ShapeKey(n.L), ShapeKey(n.R))
	case *And:
		return "AND(" + kids(n.Kids) + ")"
	case *Or:
		return "OR(" + kids(n.Kids) + ")"
	case *Not:
		return "NOT(" + ShapeKey(n.Kid) + ")"
	default:
		return e.Key()
	}
}

// EvalBool evaluates e as a predicate: only a definite true passes, matching
// the WHERE-clause treatment of NULL as not-satisfied.
func EvalBool(e Expr, b Binding) bool {
	v := e.Eval(b)
	return v.Kind() == datum.KindBool && v.Bool()
}

// Columns returns the distinct columns referenced by e, sorted.
func Columns(e Expr) []ColID {
	var out []ColID
	e.walk(func(n Expr) {
		if c, ok := n.(*Col); ok {
			out = append(out, c.ID)
		}
	})
	slices.SortFunc(out, ColID.Compare)
	return slices.Compact(out)
}

// Tables returns the distinct quantifier names referenced by e, sorted.
func Tables(e Expr) []string {
	seen := map[string]bool{}
	e.walk(func(n Expr) {
		if c, ok := n.(*Col); ok {
			seen[c.ID.Table] = true
		}
	})
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// ContainsOr reports whether e contains a disjunction anywhere; the paper
// excludes such predicates from the join-predicate class JP.
func ContainsOr(e Expr) bool {
	found := false
	e.walk(func(n Expr) {
		if _, ok := n.(*Or); ok {
			found = true
		}
	})
	return found
}

// Conjuncts flattens nested conjunctions into a list of conjuncts. A non-AND
// expression is its own single conjunct.
func Conjuncts(e Expr) []Expr {
	if a, ok := e.(*And); ok {
		var out []Expr
		for _, k := range a.Kids {
			out = append(out, Conjuncts(k)...)
		}
		return out
	}
	return []Expr{e}
}
