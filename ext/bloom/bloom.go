// Package bloom is a worked example of the paper's Section 5 extensibility
// story: it adds a Bloom-join-style semijoin reducer [BABB 79, MACK 86] to
// the optimizer entirely through the public extension points —
//
//  1. a property function (how BLOOM changes the property vector and cost),
//  2. a run-time routine (how the evaluator executes BLOOM), and
//  3. rule text referencing the new LOLEPOP (the repertoire change is data).
//
// No optimizer code is touched, which is experiment E10's claim.
//
// BLOOM(inner, outer, HP) filters the inner stream against a filter built
// from the outer side's join-column values, before the inner is shipped or
// joined. It is conservative: rows that might join pass; the join itself
// still applies HP (the default rules keep hashable predicates residual), so
// results are unchanged and the reducer only saves work.
package bloom

import (
	"fmt"
	"math"
	"strings"

	"stars/internal/cost"
	"stars/internal/datum"
	"stars/internal/exec"
	"stars/internal/expr"
	"stars/internal/glue"
	"stars/internal/opt"
	"stars/internal/plan"
	"stars/internal/star"
)

// OpBloom is the new LOLEPOP.
const OpBloom plan.Op = "BLOOM"

// filterBytes is the size of the shipped filter: 16 KiB ≈ 10+ bits per key
// at the build-side scales exercised here, which standard Bloom-filter math
// puts near fpRate false positives.
const filterBytes = 16 * 1024

// fpRate is the modeled false-positive fraction of the filter; surviving
// non-matching rows are shipped and then rejected by the residual hashable
// predicates at the join.
const fpRate = 0.005

// AlternativeText is the JMeth alternative the extension appends to the
// built-in rule file: a hash join whose inner stream is reduced *at its home
// site* by a filter built from the outer's join-column values, before being
// shipped to the join site — the Bloomjoin of [MACK 86]. BLOOM receives the
// raw stream (not a Glue reference) because the whole point is to apply the
// filter below the accumulated SHIP; the builder invokes Glue itself without
// the site requirement and re-achieves the requirement above the filter.
// The reduction pays when the join predicate is selective against the inner
// and the inner would otherwise ship wholesale; the cost model decides.
const AlternativeText = `
  | JOIN('HA', Glue(T1, {}), BLOOM(T2, IP, Glue(T1, {}), HP),
         HP, minus(P, IP)) if nonempty(HP)
`

// Rules returns the built-in repertoire with the Bloom alternative spliced
// into JMeth — the "edit the rule file" workflow of a Database Customizer.
func Rules() (*star.RuleSet, error) {
	text := star.DefaultRuleText
	// The JMeth rule's alternatives block closes at "] where"; splice the
	// new alternative right before it.
	marker := "] where"
	i := strings.LastIndex(text, marker)
	if i < 0 {
		return nil, fmt.Errorf("bloom: cannot locate JMeth alternatives block")
	}
	text = text[:i] + AlternativeText + text[i:]
	return star.ParseRules(text)
}

// Install wires the extension into optimizer options: the spliced rules,
// the BLOOM builder for the rule engine, and the property function. Callers
// executing plans must also call Register on their runtime.
func Install(o *opt.Options) error {
	rules, err := Rules()
	if err != nil {
		return err
	}
	o.Rules = rules
	prev := o.Prepare
	o.Prepare = func(en *star.Engine) {
		if prev != nil {
			prev(en)
		}
		en.Register(star.Signature{
			Name:   "BLOOM",
			Args:   []star.ArgKind{star.KindStream, star.KindPreds, star.KindSAP, star.KindPreds},
			Result: star.KindSAP,
			// Property effect: none. The output keeps the probe stream's
			// properties (propertyFunc clones them); the site requirement
			// re-achieved above the filter comes from the SHIP veneer Glue
			// injects, not from BLOOM itself.
			Produces: nil,
		}, buildNode)
		en.Cost.Register(OpBloom, propertyFunc)
	}
	return nil
}

// Register installs the run-time routine on an executor runtime.
func Register(rt *exec.Runtime) { rt.Register(OpBloom, newIter) }

// buildNode is the rule-engine builder for BLOOM(T2, IP, outerPlans, HP):
//
//  1. Glue T2's stream with the pushed IP but *without* the accumulated
//     site/temp requirements (plans at the inner's home site),
//  2. reduce it with a BLOOM node whose filter source is the cheapest outer
//     alternative (building from every alternative would square the plan
//     count for no information), and
//  3. re-achieve the stripped requirements (SHIP to the required site,
//     STORE when a temp was dictated) above the filter.
func buildNode(en *star.Engine, args []star.Value) (star.Value, error) {
	if len(args) != 4 || args[0].Kind != star.VStream || args[1].Kind != star.VPreds ||
		args[2].Kind != star.VSAP || args[3].Kind != star.VPreds {
		return star.Null, fmt.Errorf("BLOOM wants (stream, preds, outer plans, preds)")
	}
	sv := args[0].Stream
	if len(args[2].SAP) == 0 || args[3].Preds.Empty() {
		return star.Null, fmt.Errorf("BLOOM needs a filter source and hashable predicates")
	}
	homeReq := sv.Req
	homeReq.Site = nil
	homeReq.Temp = false
	inner, err := en.Glue(&star.GlueRequest{Tables: sv.Tables, Push: args[1].Preds, Req: homeReq})
	if err != nil {
		return star.Null, err
	}
	build := glue.CheapestOf(args[2].SAP)
	price := func(n *plan.Node) (*plan.Node, bool) {
		if err := en.Cost.Price(n); err != nil {
			en.Stats.PlansRejected++
			return nil, false
		}
		en.Stats.PlansBuilt++
		return n, true
	}
	var out []*plan.Node
	for _, in := range inner {
		n, ok := price(&plan.Node{
			Op:     OpBloom,
			Preds:  args[3].Preds,
			Inputs: []*plan.Node{in, build},
		})
		if !ok {
			continue
		}
		if sv.Req.Site != nil && n.Props.Site != *sv.Req.Site {
			if n, ok = price(&plan.Node{Op: plan.OpShip, Site: *sv.Req.Site, Inputs: []*plan.Node{n}}); !ok {
				continue
			}
		}
		if sv.Req.Temp && !n.Props.Temp {
			if n, ok = price(&plan.Node{Op: plan.OpStore, Inputs: []*plan.Node{n}}); !ok {
				continue
			}
		}
		out = append(out, n)
	}
	return star.SAPValue(out), nil
}

// propertyFunc is BLOOM's property function: the output keeps the probe
// stream's properties with cardinality reduced to the rows whose join key
// appears on the build side; cost adds per-row hashing plus one small
// message when the filter crosses sites. The build subplan's own cost is
// not charged here: the same plan feeds the join and is shared in the DAG.
func propertyFunc(e *cost.Env, n *plan.Node) (*plan.Props, error) {
	probe, build := n.Inputs[0].Props, n.Inputs[1].Props
	sel := e.SetSelectivity(n.Preds)
	kept := math.Min(1, build.Card*sel*(1+fpRate))
	p := probe.Clone()
	p.Card = probe.Card * kept
	delta := plan.Cost{CPU: probe.Card + build.Card}
	if probe.Site != build.Site {
		delta.Msg = 1
		delta.Bytes = filterBytes
	}
	p.Cost = probe.Cost.Add(delta)
	p.Rescan = probe.Rescan.Add(delta)
	return p, nil
}

// newIter is the run-time routine: build a value-hash set from the build
// side of the hashable predicates, then stream the probe side through it. A
// hash set has no false positives; real Bloom bitmaps admit a few, which the
// residual predicates at the join absorb identically.
func newIter(ec *exec.Ctx, n *plan.Node) (exec.Iterator, error) {
	probe, err := ec.Build(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	build, err := ec.Build(n.Inputs[1])
	if err != nil {
		return nil, err
	}
	it := &iter{ec: ec, probe: probe, build: build}
	if n.Inputs[0].Props != nil && n.Inputs[1].Props != nil {
		it.crossSite = n.Inputs[0].Props.Site != n.Inputs[1].Props.Site
	}
	probeIdx := map[expr.ColID]bool{}
	for _, c := range probe.Schema() {
		probeIdx[c] = true
	}
	for _, p := range n.Preds.Slice() {
		c, ok := p.(*expr.Cmp)
		if !ok || c.Op != expr.EQ {
			return nil, fmt.Errorf("bloom: non-equality predicate %s", p)
		}
		if sideIn(c.L, probeIdx) {
			it.probeExprs = append(it.probeExprs, c.L)
			it.buildExprs = append(it.buildExprs, c.R)
		} else if sideIn(c.R, probeIdx) {
			it.probeExprs = append(it.probeExprs, c.R)
			it.buildExprs = append(it.buildExprs, c.L)
		} else {
			return nil, fmt.Errorf("bloom: predicate %s does not reach the probe side", p)
		}
	}
	return it, nil
}

func sideIn(e expr.Expr, idx map[expr.ColID]bool) bool {
	cols := expr.Columns(e)
	if len(cols) == 0 {
		return false
	}
	for _, c := range cols {
		if !idx[c] {
			return false
		}
	}
	return true
}

type iter struct {
	ec           *exec.Ctx
	probe, build exec.Iterator
	probeExprs   []expr.Expr
	buildExprs   []expr.Expr
	probeBind    *exec.RowBinding
	buildBind    *exec.RowBinding
	set          map[uint64]bool
	crossSite    bool
}

// Schema implements exec.Iterator.
func (it *iter) Schema() []expr.ColID { return it.probe.Schema() }

// Open implements exec.Iterator: the build phase fills the filter.
func (it *iter) Open(outer expr.Binding) error {
	it.probeBind = exec.NewRowBinding(it.probe.Schema(), outer)
	it.buildBind = exec.NewRowBinding(it.build.Schema(), outer)
	it.set = map[uint64]bool{}
	if err := it.build.Open(outer); err != nil {
		return err
	}
	for {
		row, ok, err := it.build.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		it.buildBind.SetRow(row)
		if h, ok := valueHash(it.buildExprs, it.buildBind); ok {
			it.set[h] = true
		}
		it.ec.Tick()
	}
	if err := it.build.Close(); err != nil {
		return err
	}
	// Shipping the filter between sites is one message of filterBytes.
	if it.crossSite {
		it.ec.Runtime().Cluster.Ship(0, filterBytes)
	}
	return it.probe.Open(outer)
}

// Next implements exec.Iterator.
func (it *iter) Next() (datum.Row, bool, error) {
	for {
		row, ok, err := it.probe.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		it.probeBind.SetRow(row)
		h, hok := valueHash(it.probeExprs, it.probeBind)
		it.ec.Tick()
		if !hok || !it.set[h] {
			continue
		}
		return row, true, nil
	}
}

// Close implements exec.Iterator.
func (it *iter) Close() error {
	it.set = nil
	return it.probe.Close()
}

func valueHash(exprs []expr.Expr, b expr.Binding) (uint64, bool) {
	h := uint64(1469598103934665603)
	for _, e := range exprs {
		v := e.Eval(b)
		if v.IsNull() {
			return 0, false
		}
		h ^= v.Hash()
		h *= 1099511628211
	}
	return h, true
}
