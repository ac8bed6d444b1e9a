// Package outerjoin adds the OUTERJOIN LOLEPOP — the paper's own Section 5
// example of a new operator ("Less frequently, we may wish to add a new
// LOLEPOP, e.g. OUTERJOIN") — through the standard three-part recipe: a
// property function, a run-time execution routine, and STARs referencing
// the new operator.
//
// The operator is a left outer join with ON-clause semantics: every left
// (outer) row appears in the result; rows without a qualifying right match
// are padded with NULLs in the right-hand columns. All of the query's
// predicates spanning the two sides act as the join condition.
//
// Because outer joins are not commutative, the extension's root STAR has no
// PermutedJoin step — a nice illustration of how the rule language encodes
// algebraic constraints by construction. The helper Optimize drives it for
// two-table queries; multi-way outer-join ordering (a semantic minefield of
// its own) is out of scope.
package outerjoin

import (
	"fmt"

	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/datum"
	"stars/internal/exec"
	"stars/internal/expr"
	"stars/internal/opt"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/star"
)

// OpOuter is the new LOLEPOP.
const OpOuter plan.Op = "OUTERJOIN"

// RuleText is the extension's STAR: a nested-loop-style outer join whose
// join predicates push into the inner per probe, with no permutation
// alternative (left outer joins do not commute).
const RuleText = `
# Left outer join root: T1 is preserved; all predicates spanning the sides
# form the ON condition. No PermutedJoin — outer joins do not commute.
# lint: root
star OuterJoinRoot(T1, T2, P) =
  OUTERJOIN(Glue(T1, {}), Glue(T2, union(JP, IP)), JP, minus(P, union(JP, IP)))
  where
  JP = joinPreds(P, T1, T2)
  IP = innerPreds(P, T2)
`

// Rules returns the built-in repertoire plus the outer-join root.
func Rules() (*star.RuleSet, error) {
	return star.ParseRules(star.DefaultRuleText + RuleText)
}

// Install wires the extension into optimizer options and points the join
// root at the outer-join STAR.
func Install(o *opt.Options) error {
	rules, err := Rules()
	if err != nil {
		return err
	}
	o.Rules = rules
	o.JoinRoot = "OuterJoinRoot"
	prev := o.Prepare
	o.Prepare = func(en *star.Engine) {
		if prev != nil {
			prev(en)
		}
		en.Register(star.Signature{
			Name:   "OUTERJOIN",
			Args:   []star.ArgKind{star.KindSAP, star.KindSAP, star.KindPreds, star.KindPreds},
			Result: star.KindSAP,
			// Property effect: none — the join preserves the outer's site
			// and order (propertyFunc) and establishes nothing new.
			Produces: nil,
		}, buildNode)
		en.Cost.Register(OpOuter, propertyFunc)
	}
	return nil
}

// Register installs the run-time routine on an executor runtime.
func Register(rt *exec.Runtime) { rt.Register(OpOuter, newIter) }

// Optimize plans a two-table left outer join: the first quantifier of g is
// the preserved side.
func Optimize(cat *catalog.Catalog, g *query.Graph, o opt.Options) (*opt.Result, error) {
	if len(g.Quants) != 2 {
		return nil, fmt.Errorf("outerjoin: exactly two quantifiers required, got %d", len(g.Quants))
	}
	if err := Install(&o); err != nil {
		return nil, err
	}
	return opt.New(cat, o).Optimize(g)
}

// buildNode constructs OUTERJOIN nodes over the cross product of the outer
// and inner SAPs, mirroring the built-in JOIN builder.
func buildNode(en *star.Engine, args []star.Value) (star.Value, error) {
	if len(args) != 4 || args[0].Kind != star.VSAP || args[1].Kind != star.VSAP ||
		args[2].Kind != star.VPreds || args[3].Kind != star.VPreds {
		return star.Null, fmt.Errorf("OUTERJOIN wants (outer plans, inner plans, preds, residual)")
	}
	var out []*plan.Node
	for _, o := range args[0].SAP {
		for _, i := range args[1].SAP {
			if o.Props.Site != i.Props.Site {
				en.Stats.PlansRejected++
				continue
			}
			n := &plan.Node{
				Op:       OpOuter,
				Preds:    args[2].Preds,
				Residual: args[3].Preds,
				Inputs:   []*plan.Node{o, i},
			}
			if err := en.Cost.Price(n); err != nil {
				en.Stats.PlansRejected++
				continue
			}
			en.Stats.PlansBuilt++
			out = append(out, n)
		}
	}
	return star.SAPValue(out), nil
}

// propertyFunc prices OUTERJOIN like a nested-loop join whose output also
// carries one padded row per unmatched outer row; the padded fraction is
// estimated from the per-probe match count.
func propertyFunc(e *cost.Env, n *plan.Node) (*plan.Props, error) {
	outer, inner := n.Inputs[0].Props, n.Inputs[1].Props
	if outer.Site != inner.Site {
		return nil, fmt.Errorf("outerjoin: inputs at different sites")
	}
	matched := outer.Card * inner.Card * e.SetSelectivity(n.Residual)
	unmatchedFrac := 0.0
	if inner.Card < 1 {
		unmatchedFrac = 1 - inner.Card
	}
	p := e.Arena.NewProps(plan.Props{
		Rel: e.InternRel(
			outer.Tables().Union(inner.Tables()),
			outer.Cols().Union(inner.Cols()),
			outer.Preds().Union(inner.Preds()).Union(n.Preds).Union(n.Residual),
		),
		Site:  outer.Site,
		Order: outer.Order,
		Card:  matched + outer.Card*unmatchedFrac,
	})
	probes := outer.Card
	if probes < 1 {
		probes = 1
	}
	delta := plan.Cost{CPU: outer.Card*(1+inner.Card) + p.Card}
	p.Cost = outer.Cost.Add(inner.Cost).Add(inner.Rescan.Scale(probes - 1)).Add(delta)
	p.Rescan = outer.Rescan.Add(inner.Rescan.Scale(probes)).Add(delta)
	return p, nil
}

// newIter is the run-time routine: a nested-loop that pads unmatched outer
// rows with NULLs on the inner side.
func newIter(ec *exec.Ctx, n *plan.Node) (exec.Iterator, error) {
	outer, err := ec.Build(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	inner, err := ec.Build(n.Inputs[1])
	if err != nil {
		return nil, err
	}
	it := &iter{ec: ec, n: n, outer: outer, inner: inner}
	it.schema = append(append([]expr.ColID(nil), outer.Schema()...), inner.Schema()...)
	return it, nil
}

type iter struct {
	ec           *exec.Ctx
	n            *plan.Node
	outer, inner exec.Iterator
	schema       []expr.ColID

	outerBind *exec.RowBinding
	combined  *exec.RowBinding
	outerRow  datum.Row
	matched   bool
	innerOpen bool
}

// Schema implements exec.Iterator.
func (it *iter) Schema() []expr.ColID { return it.schema }

// Open implements exec.Iterator.
func (it *iter) Open(outer expr.Binding) error {
	it.outerBind = exec.NewRowBinding(it.outer.Schema(), outer)
	it.combined = exec.NewRowBinding(it.schema, outer)
	it.outerRow = nil
	it.innerOpen = false
	return it.outer.Open(outer)
}

// Next implements exec.Iterator.
func (it *iter) Next() (datum.Row, bool, error) {
	for {
		if it.outerRow == nil {
			row, ok, err := it.outer.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			it.outerRow = row.Clone()
			it.matched = false
			it.outerBind.SetRow(it.outerRow)
			if it.innerOpen {
				if err := it.inner.Close(); err != nil {
					return nil, false, err
				}
			}
			if err := it.inner.Open(it.outerBind); err != nil {
				return nil, false, err
			}
			it.innerOpen = true
		}
		irow, ok, err := it.inner.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			// Inner exhausted: pad if nothing matched this outer row.
			row := it.outerRow
			wasMatched := it.matched
			it.outerRow = nil
			if wasMatched {
				continue
			}
			out := make(datum.Row, 0, len(it.schema))
			out = append(out, row...)
			for range it.inner.Schema() {
				out = append(out, datum.Null)
			}
			it.ec.Tick()
			return out, true, nil
		}
		out := make(datum.Row, 0, len(it.schema))
		out = append(out, it.outerRow...)
		out = append(out, irow...)
		it.combined.SetRow(out)
		if !exec.EvalPreds(it.n.Residual.Slice(), it.combined) {
			continue
		}
		it.matched = true
		it.ec.Tick()
		return out, true, nil
	}
}

// Close implements exec.Iterator.
func (it *iter) Close() error {
	if it.innerOpen {
		it.innerOpen = false
		if err := it.inner.Close(); err != nil {
			it.outer.Close()
			return err
		}
	}
	return it.outer.Close()
}
