// Package semijoin adds the classic R* semijoin reducer [BERN 81] as a
// Database-Customizer extension, the companion of ext/bloom: the paper's
// Section 4 lists "filtration methods such as semi-joins and Bloom-joins"
// among the STARs omitted for brevity, and Section 5 prescribes how to add
// them — a property function, a run-time routine, and rule text.
//
// SEMIJOIN(inner, IP, outer, HP) reduces the inner stream at its home site
// to the tuples whose join-column values appear in the outer's *exact*
// distinct value list. Unlike the Bloom filter (a fixed-size bitmap with
// false positives), the value list is exact but its shipped size grows with
// the outer's distinct values — which is precisely the trade-off [MACK 86]
// measured, reproduced by experiment E13.
package semijoin

import (
	"fmt"
	"math"
	"strings"

	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/datum"
	"stars/internal/exec"
	"stars/internal/expr"
	"stars/internal/glue"
	"stars/internal/opt"
	"stars/internal/plan"
	"stars/internal/star"
)

// OpSemi is the new LOLEPOP.
const OpSemi plan.Op = "SEMIJOIN"

// AlternativeText is the JMeth alternative the extension appends: a hash
// join whose inner is semijoin-reduced at its home site before shipping.
const AlternativeText = `
  | JOIN('HA', Glue(T1, {}), SEMIJOIN(T2, IP, Glue(T1, {}), HP),
         HP, minus(P, IP)) if nonempty(HP)
`

// Rules returns the built-in repertoire with the semijoin alternative
// spliced into JMeth.
func Rules() (*star.RuleSet, error) {
	text := star.DefaultRuleText
	marker := "] where"
	i := strings.LastIndex(text, marker)
	if i < 0 {
		return nil, fmt.Errorf("semijoin: cannot locate JMeth alternatives block")
	}
	text = text[:i] + AlternativeText + text[i:]
	return star.ParseRules(text)
}

// Install wires the extension into optimizer options.
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
			Name:   "SEMIJOIN",
			Args:   []star.ArgKind{star.KindStream, star.KindPreds, star.KindSAP, star.KindPreds},
			Result: star.KindSAP,
			// Property effect: none — the reduced inner keeps its own
			// properties; any site movement is the SHIP veneer's doing.
			Produces: nil,
		}, buildNode)
		en.Cost.Register(OpSemi, propertyFunc)
	}
	return nil
}

// Register installs the run-time routine on an executor runtime.
func Register(rt *exec.Runtime) { rt.Register(OpSemi, newIter) }

// buildNode mirrors ext/bloom's builder: glue the inner at its home site
// (without the accumulated site/temp requirements), reduce it, then
// re-achieve the stripped requirements above the reducer.
func buildNode(en *star.Engine, args []star.Value) (star.Value, error) {
	if len(args) != 4 || args[0].Kind != star.VStream || args[1].Kind != star.VPreds ||
		args[2].Kind != star.VSAP || args[3].Kind != star.VPreds {
		return star.Null, fmt.Errorf("SEMIJOIN wants (stream, preds, outer plans, preds)")
	}
	sv := args[0].Stream
	if len(args[2].SAP) == 0 || args[3].Preds.Empty() {
		return star.Null, fmt.Errorf("SEMIJOIN needs a value source and hashable predicates")
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
			Op:     OpSemi,
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

// propertyFunc prices SEMIJOIN: like BLOOM's, but the reduction is exact
// (no false-positive fudge) and shipping the value list between sites costs
// the build side's *distinct value bytes* instead of a fixed bitmap.
func propertyFunc(e *cost.Env, n *plan.Node) (*plan.Props, error) {
	probe, build := n.Inputs[0].Props, n.Inputs[1].Props
	sel := e.SetSelectivity(n.Preds)
	kept := math.Min(1, build.Card*sel)
	p := probe.Clone()
	p.Card = probe.Card * kept
	delta := plan.Cost{CPU: probe.Card + build.Card}
	if probe.Site != build.Site {
		// The value list: one entry per build row (an upper bound on its
		// distinct join values), at the width of the join columns.
		bytes := build.Card * valueWidth(e, n.Preds.Slice(), build)
		delta.Msg = math.Ceil(bytes/catalog.PageSize) + 1
		delta.Bytes = bytes
	}
	p.Cost = probe.Cost.Add(delta)
	p.Rescan = probe.Rescan.Add(delta)
	return p, nil
}

// valueWidth estimates the byte width of the build side's join-column
// values per row.
func valueWidth(e *cost.Env, preds []expr.Expr, build *plan.Props) float64 {
	var cols []expr.ColID
	for _, p := range preds {
		for _, c := range expr.Columns(p) {
			if build.Tables().Contains(c.Table) {
				cols = append(cols, c)
			}
		}
	}
	if len(cols) == 0 {
		return 8
	}
	return e.RowWidth(cols)
}

// newIter is the run-time routine: collect the build side's exact value set,
// ship it when sites differ, then filter the probe side.
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
			return nil, fmt.Errorf("semijoin: non-equality predicate %s", p)
		}
		if sideIn(c.L, probeIdx) {
			it.probeExprs = append(it.probeExprs, c.L)
			it.buildExprs = append(it.buildExprs, c.R)
		} else if sideIn(c.R, probeIdx) {
			it.probeExprs = append(it.probeExprs, c.R)
			it.buildExprs = append(it.buildExprs, c.L)
		} else {
			return nil, fmt.Errorf("semijoin: predicate %s does not reach the probe side", p)
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
	set          map[string]bool
	crossSite    bool
}

// Schema implements exec.Iterator.
func (it *iter) Schema() []expr.ColID { return it.probe.Schema() }

// Open implements exec.Iterator: collect the exact value set, then open the
// probe.
func (it *iter) Open(outer expr.Binding) error {
	it.probeBind = exec.NewRowBinding(it.probe.Schema(), outer)
	it.buildBind = exec.NewRowBinding(it.build.Schema(), outer)
	it.set = map[string]bool{}
	var bytes int64
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
		if key, keyBytes, ok := valueKey(it.buildExprs, it.buildBind); ok {
			if !it.set[key] {
				it.set[key] = true
				bytes += keyBytes
			}
		}
		it.ec.Tick()
	}
	if err := it.build.Close(); err != nil {
		return err
	}
	if it.crossSite {
		it.ec.Runtime().Cluster.Ship(int64(len(it.set)), bytes)
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
		key, _, kok := valueKey(it.probeExprs, it.probeBind)
		it.ec.Tick()
		if !kok || !it.set[key] {
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

// valueKey renders the joined expressions' values as an exact set key; ok is
// false when any value is NULL (NULL keys never match).
func valueKey(exprs []expr.Expr, b expr.Binding) (key string, bytes int64, ok bool) {
	var sb strings.Builder
	for i, e := range exprs {
		v := e.Eval(b)
		if v.IsNull() {
			return "", 0, false
		}
		if i > 0 {
			sb.WriteByte('|')
		}
		sb.WriteString(v.String())
		bytes += int64(v.Width())
	}
	return sb.String(), bytes, true
}
