package xform

import (
	"fmt"

	"stars/internal/expr"
	"stars/internal/plan"
)

// Lower converts a fully annotated logical tree into a priced physical plan
// using the same LOLEPOP conventions as the STAR rules: predicates push into
// scans (join predicates via sideways information passing for nested-loop
// inners), merge joins add SORT veneers when inputs lack the order, hashable
// predicates stay residual. A nil plan (without error) means the annotation
// combination is infeasible.
//
// Note what Lower does NOT do, deliberately: it shares no subplans and
// memoizes nothing across complete plans — each is derived and priced from
// scratch, which is the re-derivation cost of transformational systems the
// paper contrasts with the building-blocks approach (Section 6).
func (o *Optimizer) Lower(n *LNode) (*plan.Node, error) {
	return o.lower(n, expr.PredSet{})
}

func (o *Optimizer) lower(n *LNode, push expr.PredSet) (*plan.Node, error) {
	if n.Kind == LScan {
		return o.lowerScan(n, push)
	}
	t1 := n.L.TableSet(o.Graph.Universe())
	t2 := n.R.TableSet(o.Graph.Universe())
	p := o.Graph.NewlyEligible(t1, t2).Union(push)
	jp := expr.JoinPreds(p, t1, t2)
	sp := expr.SortablePreds(p, t1, t2)
	hp := expr.HashablePreds(p, t1, t2)
	ip := expr.InnerPreds(p, t2)

	switch n.Method {
	case plan.MethodNL:
		outer, err := o.lower(n.L, expr.PredSet{})
		if err != nil || outer == nil {
			return nil, err
		}
		inner, err := o.lowerInner(n.R, jp.Union(ip))
		if err != nil || inner == nil {
			return nil, err
		}
		return o.price(&plan.Node{
			Op: plan.OpJoin, Flavor: plan.MethodNL,
			Preds:    jp,
			Residual: p.Minus(jp.Union(ip)),
			Inputs:   []*plan.Node{outer, inner},
		})
	case plan.MethodMG:
		if sp.Empty() {
			return nil, nil
		}
		outer, err := o.lowerOrdered(n.L, expr.PredSet{}, o.Env.Vocab().SortColsFor(sp, t1, o.Env.Arena))
		if err != nil || outer == nil {
			return nil, err
		}
		inner, err := o.lowerOrdered(n.R, ip, o.Env.Vocab().SortColsFor(sp, t2, o.Env.Arena))
		if err != nil || inner == nil {
			return nil, err
		}
		return o.price(&plan.Node{
			Op: plan.OpJoin, Flavor: plan.MethodMG,
			Preds:    sp,
			Residual: p.Minus(ip.Union(sp)),
			Inputs:   []*plan.Node{outer, inner},
		})
	case plan.MethodHA:
		if hp.Empty() {
			return nil, nil
		}
		outer, err := o.lower(n.L, expr.PredSet{})
		if err != nil || outer == nil {
			return nil, err
		}
		inner, err := o.lower(n.R, ip)
		if err != nil || inner == nil {
			return nil, err
		}
		return o.price(&plan.Node{
			Op: plan.OpJoin, Flavor: plan.MethodHA,
			Preds:    hp,
			Residual: p.Minus(ip),
			Inputs:   []*plan.Node{outer, inner},
		})
	default:
		return nil, fmt.Errorf("xform: unknown join method %q", n.Method)
	}
}

// lowerInner lowers a nested-loop inner with the pushed (possibly bound)
// predicates: scans take them directly (the whole scan re-executes per
// probe); composite inners take a FILTER above the subplan.
func (o *Optimizer) lowerInner(n *LNode, push expr.PredSet) (*plan.Node, error) {
	if n.Kind == LScan {
		return o.lowerScan(n, push)
	}
	sub, err := o.lower(n, expr.PredSet{})
	if err != nil || sub == nil {
		return nil, err
	}
	if push.Empty() {
		return sub, nil
	}
	return o.price(&plan.Node{Op: plan.OpFilter, Preds: push, Inputs: []*plan.Node{sub}})
}

// lowerOrdered lowers a merge-join input and sorts it when its natural
// order does not satisfy the requirement.
func (o *Optimizer) lowerOrdered(n *LNode, push expr.PredSet, order expr.ColList) (*plan.Node, error) {
	var sub *plan.Node
	var err error
	if n.Kind == LScan {
		sub, err = o.lowerScan(n, push)
	} else {
		sub, err = o.lowerInner(n, push)
	}
	if err != nil || sub == nil {
		return nil, err
	}
	if order.Len() == 0 || plan.OrderSatisfies(sub.Props.Order, order) {
		return sub, nil
	}
	return o.price(&plan.Node{Op: plan.OpSort, SortCols: order, Inputs: []*plan.Node{sub}})
}

// lowerScan lowers a scan with its chosen access path, applying the
// quantifier's base predicates plus the pushed ones.
func (o *Optimizer) lowerScan(n *LNode, push expr.PredSet) (*plan.Node, error) {
	q := o.Graph.Quant(n.Quant)
	if q == nil {
		return nil, fmt.Errorf("xform: unknown quantifier %q", n.Quant)
	}
	t := o.Cat.Table(q.Table)
	preds := o.Graph.BasePreds(n.Quant).Union(push)
	cols := o.Env.Needed(n.Quant)

	if n.Access == "seq" {
		flavor := plan.FlavorHeap
		if t.StorageKindOrDefault() != "heap" {
			flavor = plan.FlavorBTreeStore
		}
		return o.price(&plan.Node{
			Op: plan.OpAccess, Flavor: flavor,
			Table: t.Name, Quantifier: n.Quant,
			Cols: cols, Preds: preds,
		})
	}
	path, pt := o.Cat.Path(n.Access)
	if path == nil || pt.Name != t.Name {
		return nil, fmt.Errorf("xform: access path %q not on table %q", n.Access, t.Name)
	}
	keyCols := o.Env.Path(n.Quant, path.Name).Cols
	matched := expr.MatchIndexPrefix(preds, keyCols)
	probeCols := o.Env.TID(n.Quant).Concat(keyCols, o.Env.Arena)
	probe, err := o.price(&plan.Node{
		Op: plan.OpAccess, Flavor: plan.FlavorIndex,
		Table: t.Name, Quantifier: n.Quant, Path: path.Name,
		Cols: probeCols, Preds: matched,
	})
	if err != nil || probe == nil {
		return nil, err
	}
	fetch := cols.Set().Minus(probe.Props.Cols())
	rest := preds.Minus(matched)
	if fetch.Empty() && rest.Empty() {
		return probe, nil
	}
	return o.price(&plan.Node{
		Op: plan.OpGet, Table: t.Name, Quantifier: n.Quant,
		Cols: fetch.List(o.Env.Arena), Preds: rest, Inputs: []*plan.Node{probe},
	})
}

// price prices one freshly built node (children already priced); pricing
// rejections drop the plan silently (nil, nil).
func (o *Optimizer) price(n *plan.Node) (*plan.Node, error) {
	if err := o.Env.Price(n); err != nil {
		return nil, nil
	}
	return n, nil
}
