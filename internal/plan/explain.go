package plan

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Explain renders the plan tree in an indented, Figure-1-like layout: each
// LOLEPOP with its parameters and a one-line property summary.
func Explain(n *Node) string {
	var b strings.Builder
	writeExplain(&b, n, 0, false)
	return b.String()
}

// ExplainVerbose renders the plan with the full property vector of every
// node (experiment E2's output format).
func ExplainVerbose(n *Node) string {
	var b strings.Builder
	writeExplain(&b, n, 0, true)
	return b.String()
}

func writeExplain(w io.Writer, n *Node, depth int, verbose bool) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(w, "%s%s", indent, describeNode(n))
	if n.Props != nil && !verbose {
		fmt.Fprintf(w, "   {%s}", n.Props.Summary())
	}
	fmt.Fprintln(w)
	if verbose && n.Props != nil {
		for _, line := range strings.Split(strings.TrimRight(n.Props.Describe(), "\n"), "\n") {
			fmt.Fprintf(w, "%s%s\n", indent, line)
		}
	}
	for _, in := range n.Inputs {
		writeExplain(w, in, depth+1, verbose)
	}
}

// Describe returns the one-line operator description EXPLAIN and DOT use —
// the operator, flavor, and its load-bearing parameters.
func (n *Node) Describe() string { return describeNode(n) }

func describeNode(n *Node) string {
	var parts []string
	head := string(n.Op)
	if n.Flavor != "" {
		head += "(" + n.Flavor + ")"
	}
	parts = append(parts, head)
	if path := n.PathName(); path != "" {
		parts = append(parts, "path="+path)
	}
	if t := n.TableName(); t != "" {
		if n.Quantifier != "" && n.Quantifier != t {
			t += " as " + n.Quantifier
		}
		parts = append(parts, "table="+t)
	}
	if n.Cols.Len() > 0 {
		parts = append(parts, "cols=["+n.Cols.String()+"]")
	}
	if n.SortCols.Len() > 0 {
		parts = append(parts, "key=["+n.SortCols.String()+"]")
	}
	if n.Op == OpShip {
		dest := n.Site
		if dest == "" {
			dest = "(query site)"
		}
		parts = append(parts, "to="+dest)
	}
	if !n.Preds.Empty() {
		ps := make([]string, n.Preds.Len())
		for i, p := range n.Preds.Slice() {
			ps[i] = p.String()
		}
		parts = append(parts, "preds=["+strings.Join(ps, ", ")+"]")
	}
	if !n.Residual.Empty() {
		ps := make([]string, n.Residual.Len())
		for i, p := range n.Residual.Slice() {
			ps[i] = p.String()
		}
		parts = append(parts, "residual=["+strings.Join(ps, ", ")+"]")
	}
	if n.Origin != "" {
		parts = append(parts, "«"+n.Origin+"»")
	}
	return strings.Join(parts, " ")
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
	var b strings.Builder
	writeAnalyze(&b, n, 0, actuals)
	return b.String()
}

func writeAnalyze(w io.Writer, n *Node, depth int, actuals func(*Node) (Actual, bool)) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(w, "%s%s", indent, describeNode(n))
	fmt.Fprintln(w)
	var estRows, estCost float64
	if n.Props != nil {
		estRows = n.Props.Card
		estCost = n.Props.Cost.Total
	}
	if a, ok := actuals(n); ok {
		fmt.Fprintf(w, "%s  (est rows=%.0f cost=%.0f) (actual rows=%d loops=%d cost=%.0f time=%s) Q-err=%.2f\n",
			indent, estRows, estCost, a.Rows, a.Loops, a.Cost,
			a.Elapsed.Round(time.Microsecond), QError(estRows, float64(a.Rows)))
	} else {
		fmt.Fprintf(w, "%s  (est rows=%.0f cost=%.0f) (never executed)\n", indent, estRows, estCost)
	}
	for _, in := range n.Inputs {
		writeAnalyze(w, in, depth+1, actuals)
	}
}

// Functional renders the plan in the paper's nested-function notation, e.g.
// JOIN(MG, DEPT.DNO = EMP.DNO, SORT(ACCESS(DEPT, ...), ...), GET(...)).
func Functional(n *Node) string {
	var b strings.Builder
	writeFunctional(&b, n)
	return b.String()
}

func writeFunctional(b *strings.Builder, n *Node) {
	b.WriteString(string(n.Op))
	b.WriteByte('(')
	var args []string
	if n.Flavor != "" && n.Op == OpJoin {
		name := map[string]string{MethodNL: "nested-loop", MethodMG: "sort-merge", MethodHA: "hash"}[n.Flavor]
		if name == "" {
			name = n.Flavor
		}
		args = append(args, name)
	}
	if !n.Preds.Empty() {
		ps := make([]string, n.Preds.Len())
		for i, p := range n.Preds.Slice() {
			ps[i] = p.String()
		}
		args = append(args, strings.Join(ps, " AND "))
	}
	if n.Op == OpAccess {
		if n.Flavor == FlavorIndex {
			args = append(args, "Index "+n.PathName())
		} else {
			args = append(args, n.TableName())
		}
		if n.Cols.Len() == 0 {
			args = append(args, "*") // a temp's whole COLS, as the rule language writes it
		} else {
			args = append(args, "{"+n.Cols.String()+"}")
		}
	}
	if n.Op == OpGet {
		// Inputs render first for GET to match Figure 1's notation.
	}
	if n.SortCols.Len() > 0 {
		args = append(args, n.SortCols.String())
	}
	if n.Op == OpShip {
		args = append(args, "site="+n.Site)
	}
	b.WriteString(strings.Join(args, ", "))
	for i, in := range n.Inputs {
		if i > 0 || len(args) > 0 {
			b.WriteString(", ")
		}
		writeFunctional(b, in)
	}
	if n.Op == OpGet {
		fmt.Fprintf(b, ", %s, {%s}", n.Table, n.Cols)
	}
	b.WriteByte(')')
}
