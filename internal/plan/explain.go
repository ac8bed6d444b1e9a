package plan

import (
	"math"
	"strconv"
	"time"
)

// Explain renders the plan tree in an indented, Figure-1-like layout: each
// LOLEPOP with its parameters and a one-line property summary.
func Explain(n *Node) string { return string(AppendExplain(nil, n, false)) }

// ExplainVerbose renders the plan with the full property vector of every
// node (experiment E2's output format).
func ExplainVerbose(n *Node) string { return string(AppendExplain(nil, n, true)) }

// AppendExplain appends Explain's rendering of n to b, or ExplainVerbose's
// when verbose is set.
func AppendExplain(b []byte, n *Node, verbose bool) []byte { return appendExplain(b, n, 0, verbose) }

func appendExplain(b []byte, n *Node, depth int, verbose bool) []byte {
	b = n.AppendDescribe(appendIndent(b, depth))
	if n.Props != nil && !verbose {
		b = append(n.Props.AppendSummary(append(b, "   {"...)), '}')
	}
	b = append(b, '\n')
	if verbose && n.Props != nil {
		b = n.Props.AppendDescribe(b, depth)
	}
	for _, in := range n.Inputs {
		b = appendExplain(b, in, depth+1, verbose)
	}
	return b
}

// appendIndent appends two spaces per level of depth.
func appendIndent(b []byte, depth int) []byte {
	for range depth {
		b = append(b, "  "...)
	}
	return b
}

// Describe returns the one-line operator description EXPLAIN and DOT use —
// the operator, flavor, and its load-bearing parameters.
func (n *Node) Describe() string { return string(n.AppendDescribe(nil)) }

// AppendDescribe appends Describe's rendering of n to b.
func (n *Node) AppendDescribe(b []byte) []byte {
	b = append(b, n.Op...)
	if n.Flavor != "" {
		b = append(append(append(b, '('), n.Flavor...), ')')
	}
	// A name renders with its tag unless it is empty.
	if path := n.appendPathName(append(b, " path="...)); len(path) > len(b)+len(" path=") {
		b = path
	}
	if t, name := n.appendTableName(append(b, " table="...)), len(b)+len(" table="); len(t) > name {
		if b = t; n.Quantifier != "" && n.Quantifier != string(t[name:]) {
			b = append(append(b, " as "...), n.Quantifier...)
		}
	}
	if n.Cols.Len() > 0 {
		b = append(n.Cols.AppendTo(append(b, " cols=["...)), ']')
	}
	if n.SortCols.Len() > 0 {
		b = append(n.SortCols.AppendTo(append(b, " key=["...)), ']')
	}
	if n.Op == OpShip {
		if b = append(b, " to="...); n.Site == "" {
			b = append(b, "(query site)"...)
		}
		b = append(b, n.Site...)
	}
	if !n.Preds.Empty() {
		b = append(n.Preds.AppendTo(append(b, " preds=["...), ", "), ']')
	}
	if !n.Residual.Empty() {
		b = append(n.Residual.AppendTo(append(b, " residual=["...), ", "), ']')
	}
	if n.Origin != "" {
		b = append(append(append(b, " «"...), n.Origin...), "»"...)
	}
	return b
}

// Actual is one node's observed execution profile, supplied by the caller
// (this package deliberately does not depend on the evaluator). Rows is the
// total over all opens; Loops is the open count (a nested-loop inner opens
// once per outer row).
type Actual struct {
	// Rows is the observed output cardinality, summed over all loops.
	Rows int64
	// Loops counts how many times the operator was opened.
	Loops int64
	// Cost is the observed cost in the cost model's units.
	Cost float64
	// Elapsed is wall-clock time inside the operator's subtree.
	Elapsed time.Duration
}

// QError is the standard cardinality-estimation error metric: the factor by
// which the estimate is off, max(est/act, act/est), always >= 1. Both sides
// are clamped to one row so empty streams compare sanely.
func QError(est, act float64) float64 {
	est = math.Max(est, 1)
	act = math.Max(act, 1)
	return math.Max(est/act, act/est)
}

// ExplainAnalyze renders the plan tree annotated with estimated versus
// actual cardinality and cost plus the per-node Q-error — the optimizer
// validation view (EXPLAIN ANALYZE). actuals maps a node to its observed
// profile; nodes it does not cover print estimates only.
func ExplainAnalyze(n *Node, actuals func(*Node) (Actual, bool)) string {
	return string(AppendExplainAnalyze(nil, n, actuals))
}

// AppendExplainAnalyze appends ExplainAnalyze's rendering of n to b.
func AppendExplainAnalyze(b []byte, n *Node, actuals func(*Node) (Actual, bool)) []byte {
	return appendAnalyze(b, n, 0, actuals)
}

func appendAnalyze(b []byte, n *Node, depth int, actuals func(*Node) (Actual, bool)) []byte {
	b = append(n.AppendDescribe(appendIndent(b, depth)), '\n')
	var estRows, estCost float64
	if n.Props != nil {
		estRows = n.Props.Card
		estCost = n.Props.Cost.Total
	}
	b = strconv.AppendFloat(append(appendIndent(b, depth), "  (est rows="...), estRows, 'f', 0, 64)
	b = strconv.AppendFloat(append(b, " cost="...), estCost, 'f', 0, 64)
	if a, ok := actuals(n); ok {
		b = strconv.AppendInt(append(b, ") (actual rows="...), a.Rows, 10)
		b = strconv.AppendInt(append(b, " loops="...), a.Loops, 10)
		b = strconv.AppendFloat(append(b, " cost="...), a.Cost, 'f', 0, 64)
		b = append(append(b, " time="...), a.Elapsed.Round(time.Microsecond).String()...)
		b = strconv.AppendFloat(append(b, ") Q-err="...), QError(estRows, float64(a.Rows)), 'f', 2, 64)
		b = append(b, '\n')
	} else {
		b = append(b, ") (never executed)\n"...)
	}
	for _, in := range n.Inputs {
		b = appendAnalyze(b, in, depth+1, actuals)
	}
	return b
}

// Functional renders the plan in the paper's nested-function notation, e.g.
// JOIN(MG, DEPT.DNO = EMP.DNO, SORT(ACCESS(DEPT, ...), ...), GET(...)).
func Functional(n *Node) string { return string(AppendFunctional(nil, n)) }

// AppendFunctional appends Functional's rendering of n to b. GET renders its
// input first, to match Figure 1's notation.
func AppendFunctional(b []byte, n *Node) []byte {
	b = append(append(b, n.Op...), '(')
	args := 0
	if n.Flavor != "" && n.Op == OpJoin {
		name, ok := methodNames[n.Flavor]
		if !ok {
			name = n.Flavor
		}
		b = append(appendArg(b, &args), name...)
	}
	if !n.Preds.Empty() {
		b = n.Preds.AppendTo(appendArg(b, &args), " AND ")
	}
	if n.Op == OpAccess {
		if b = appendArg(b, &args); n.Flavor == FlavorIndex {
			b = n.appendPathName(append(b, "Index "...))
		} else {
			b = n.appendTableName(b)
		}
		if b = appendArg(b, &args); n.Cols.Len() == 0 {
			b = append(b, '*') // a temp's whole COLS, as the rule language writes it
		} else {
			b = append(n.Cols.AppendTo(append(b, '{')), '}')
		}
	}
	if n.SortCols.Len() > 0 {
		b = n.SortCols.AppendTo(appendArg(b, &args))
	}
	if n.Op == OpShip {
		b = append(append(appendArg(b, &args), "site="...), n.Site...)
	}
	for _, in := range n.Inputs {
		b = AppendFunctional(appendArg(b, &args), in)
	}
	if n.Op == OpGet {
		b = append(n.Cols.AppendTo(append(append(append(b, ", "...), n.Table...), ", {"...)), '}')
	}
	return append(b, ')')
}

// methodNames spells out the join methods for Functional.
var methodNames = map[string]string{MethodNL: "nested-loop", MethodMG: "sort-merge", MethodHA: "hash"}

// appendArg appends the separator the args-th argument of a Functional
// call follows, and counts it.
func appendArg(b []byte, args *int) []byte {
	if *args++; *args > 1 {
		b = append(b, ", "...)
	}
	return b
}
