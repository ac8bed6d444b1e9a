package cost

import (
	"math"

	"stars/internal/expr"
)

// Default selectivities in the System-R tradition [SELI 79], used when
// statistics are missing or the predicate shape is opaque.
const (
	defaultEqSel    = 0.10
	defaultRangeSel = 1.0 / 3.0
	defaultNeSel    = 0.90
	defaultOtherSel = 0.25
)

// Selectivity estimates the fraction of tuples satisfying p. Multi-table
// predicates estimate their join selectivity; when such a predicate is
// applied at a single-table access (sideways information passing binds the
// other side per probe) the same number is the per-probe fraction, so one
// estimator serves both uses.
func (e *Env) Selectivity(p expr.Expr) float64 {
	switch n := p.(type) {
	case *expr.Cmp:
		return e.cmpSelectivity(n)
	case *expr.And:
		s := 1.0
		for _, k := range n.Kids {
			s *= e.Selectivity(k)
		}
		return s
	case *expr.Or:
		s := 0.0
		for _, k := range n.Kids {
			ks := e.Selectivity(k)
			s = s + ks - s*ks
		}
		return s
	case *expr.Not:
		return clampSel(1 - e.Selectivity(n.Kid))
	case *expr.Const:
		if n.Val.Kind() == 0 { // NULL never satisfies
			return 0
		}
		return 1
	default:
		return defaultOtherSel
	}
}

// SetSelectivity multiplies the selectivities of every predicate in ps,
// assuming independence (the System-R convention), in ascending ordinal
// order.
func (e *Env) SetSelectivity(ps expr.PredSet) float64 {
	s := 1.0
	for i := ps.Next(0); i >= 0; i = ps.Next(i + 1) {
		s *= e.conjunctSel(ps, i)
	}
	return s
}

// conjunctSel is the selectivity of ps's conjunct with ordinal i: the number
// Bind stored for it or, in an environment bound to another query or to none
// (lint, tests), an estimate made now.
func (e *Env) conjunctSel(ps expr.PredSet, i int) float64 {
	if u := ps.Universe(); u != e.u {
		return e.Selectivity(u.Conjunct(i))
	}
	return e.Bound.sels[i]
}

func (e *Env) cmpSelectivity(c *expr.Cmp) float64 {
	lc, lok := c.L.(*expr.Col)
	rc, rok := c.R.(*expr.Col)
	switch c.Op {
	case expr.EQ:
		switch {
		case lok && rok:
			// col = col: 1/max(ndv1, ndv2), the classic equijoin rule.
			n1 := e.ndv(lc.ID)
			n2 := e.ndv(rc.ID)
			n := math.Max(n1, n2)
			if n <= 0 {
				return defaultEqSel
			}
			return clampSel(1 / n)
		case lok:
			return e.eqColSel(lc.ID)
		case rok:
			return e.eqColSel(rc.ID)
		default:
			return defaultEqSel
		}
	case expr.NE:
		eq := e.Selectivity(&expr.Cmp{Op: expr.EQ, L: c.L, R: c.R})
		return clampSel(1 - eq)
	case expr.LT, expr.LE, expr.GT, expr.GE:
		// col op const with a known range interpolates linearly.
		if lok && !rok {
			if s, ok := e.rangeSel(lc.ID, c.Op, c.R); ok {
				return s
			}
		}
		if rok && !lok {
			if s, ok := e.rangeSel(rc.ID, c.Op.Flip(), c.L); ok {
				return s
			}
		}
		return defaultRangeSel
	default:
		return defaultOtherSel
	}
}

// eqColSel is the selectivity of col = <non-column expression>: 1/NDV.
func (e *Env) eqColSel(id expr.ColID) float64 {
	n := e.ndv(id)
	if n <= 0 {
		return defaultEqSel
	}
	return clampSel(1 / n)
}

// ndv returns the number of distinct values of the column, or 0 if unknown.
func (e *Env) ndv(id expr.ColID) float64 {
	t := e.BaseTable(id.Table)
	if t == nil {
		return 0
	}
	col := t.Column(id.Col)
	if col == nil || col.NDV <= 0 {
		return 0
	}
	return float64(col.NDV)
}

// rangeSel interpolates col op const within the column's [Lo, Hi] range.
func (e *Env) rangeSel(id expr.ColID, op expr.CmpOp, rhs expr.Expr) (float64, bool) {
	cst, ok := rhs.(*expr.Const)
	if !ok {
		return 0, false
	}
	v, ok := cst.Val.AsFloat()
	if !ok {
		return 0, false
	}
	t := e.BaseTable(id.Table)
	if t == nil {
		return 0, false
	}
	col := t.Column(id.Col)
	if col == nil || col.Lo == nil || col.Hi == nil || *col.Hi <= *col.Lo {
		return 0, false
	}
	frac := (v - *col.Lo) / (*col.Hi - *col.Lo)
	switch op {
	case expr.LT, expr.LE:
		return clampSel(frac), true
	case expr.GT, expr.GE:
		return clampSel(1 - frac), true
	default:
		return 0, false
	}
}

func clampSel(s float64) float64 {
	if s < 1e-9 {
		return 1e-9
	}
	if s > 1 {
		return 1
	}
	return s
}

// indexMatch reports how much of an index's key prefix the given predicates
// exploit: the combined selectivity of the matched prefix and how many
// predicates were matched. A predicate matches a key column when it compares
// that column (by EQ, or by a range as the last matched column) against
// something not on the indexed table — constants or outer-side expressions
// (sideways information passing makes those constants per probe; see
// expr.Vocab.Probes).
func (e *Env) indexMatch(keyCols expr.ColList, ps expr.PredSet) (sel float64, matched int) {
	sel = 1.0
	ords := make([]int, 0, 8) // conjunct ordinals, -1 once matched
	for i := ps.Next(0); i >= 0; i = ps.Next(i + 1) {
		ords = append(ords, i)
	}
	for k := 0; k < keyCols.Len(); k++ {
		foundEq := false
		for j, i := range ords {
			if i < 0 || !e.cols.Probes(i, keyCols.At(k)) {
				continue
			}
			if ps.Universe().Conjunct(i).(*expr.Cmp).Op == expr.EQ {
				ords[j] = -1
				matched++
				sel *= e.conjunctSel(ps, i)
				foundEq = true
				break
			}
			// A range predicate matches but terminates the prefix.
			matched++
			sel *= e.conjunctSel(ps, i)
			return sel, matched
		}
		if !foundEq {
			break
		}
	}
	return sel, matched
}
