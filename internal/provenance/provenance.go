// Package provenance turns an optimization's observability stream into an
// interrogable model of the optimizer's reasoning: the full derivation DAG
// of the run — every plan a STAR alternative built, every Glue veneer, and
// every dominance decision with the identity of victim and dominator — plus
// causal queries over it.
//
// The paper's pitch is that strategy alternatives are inspectable *data*;
// STAR expansion is grammar derivation, so the search space is literally a
// parse forest. After PR 1 the event stream recorded that forest only as
// counts. This package reconstructs it:
//
//	res, _ := stars.Optimize(cat, g, stars.Options{Obs: stars.NewSink()})
//	dag, _ := provenance.FromResult(res)
//	fmt.Println(dag.Why("best"))        // why was this plan chosen
//	fmt.Println(dag.WhyNot(fp))         // why was this alternative rejected
//	dag.WriteDOT(f)                     // render the search space
//	provenance.Diff(dagA, dagB)         // what did an ablation change
//
// Plans are identified by plan.Node.Fingerprint() (the hex of Node.ID, which
// is what events and Build carry), which is stable across
// runs and processes, so fingerprints printed by one run address plans in
// another (that is what makes Diff and the CLI's -whynot usable).
package provenance

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"stars/internal/glue"
	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/plan"
)

// Plan is one node of the derivation DAG: a plan the optimizer built, keyed
// by structural fingerprint.
type Plan struct {
	// FP is the stable structural fingerprint (plan.Node.Fingerprint).
	FP string `json:"fp"`
	// Desc is the one-line operator description ("JOIN(MG) preds=[...]").
	Desc string `json:"desc"`
	// Origin is the STAR alternative that built the node ("JMeth#2"), or
	// "Glue" for veneer operators.
	Origin string `json:"origin,omitempty"`
	// Tables is the canonical quantifier-set key the plan covers.
	Tables string `json:"tables,omitempty"`
	// Cost and Card are the estimated total cost and cardinality.
	Cost float64 `json:"cost"`
	Card float64 `json:"card,omitempty"`
	// Inputs are the fingerprints of the streams the operator consumes.
	Inputs []string `json:"inputs,omitempty"`
	// Retained reports the plan survived in the final plan table (or as a
	// subplan of a surviving plan).
	Retained bool `json:"retained,omitempty"`
	// Best marks the winning plan's derivation chain.
	Best bool `json:"best,omitempty"`
	// Veneer marks operators Glue injected to satisfy required properties.
	Veneer bool `json:"veneer,omitempty"`
	// PrunedBy is the fingerprint of the dominating plan when this plan
	// lost a dominance decision (and was not retained elsewhere);
	// PrunedByCost is the dominator's cost at that decision.
	PrunedBy     string  `json:"pruned_by,omitempty"`
	PrunedByCost float64 `json:"pruned_by_cost,omitempty"`
	// Evicted distinguishes an existing plan evicted by a later arrival
	// (true) from an incoming plan rejected on arrival (false).
	Evicted bool `json:"evicted,omitempty"`
	// BoundedBy is the fingerprint of the plan that kept Glue from building
	// veneers over this one — the cheapest plan already satisfying the
	// reference's requirement, at BoundedByCost, below this plan's own cost
	// (glue.skip records one such candidate per reference, the cheapest).
	BoundedBy     string  `json:"bounded_by,omitempty"`
	BoundedByCost float64 `json:"bounded_by_cost,omitempty"`
}

// Rejection is one STAR alternative whose condition of applicability failed
// during the run — a branch of the grammar that never derived plans.
type Rejection struct {
	// Rule is the STAR's name; Alt the 1-based alternative ordinal.
	Rule string `json:"rule"`
	Alt  int    `json:"alt"`
	// Cond is the failing condition in DSL syntax (or the OTHERWISE
	// explanation).
	Cond string `json:"cond,omitempty"`
	// Depth is the rule-reference nesting depth.
	Depth int `json:"depth,omitempty"`
}

// DAG is the reconstructed derivation DAG of one optimization run. It is
// immutable after Build, so all queries and exporters are safe for
// concurrent use.
type DAG struct {
	// BestFP is the winning plan's fingerprint ("" when the run kept no
	// best plan).
	BestFP string
	// Plans maps fingerprint to node.
	Plans map[string]*Plan
	// Rejections lists every alternative rejected by its condition.
	Rejections []Rejection
	// Reused and Bounded total what Glue found instead of building: candidates
	// an earlier reference had already veneered, and candidates whose own cost
	// was already above the cheapest satisfying plan.
	Reused, Bounded int64
}

// FromResult builds the derivation DAG of an optimization. The run must
// have recorded the search-step events (Options.Obs with a tracing sink).
func FromResult(res *opt.Result) (*DAG, error) {
	if res == nil {
		return nil, errors.New("provenance: nil result")
	}
	if !res.Obs.Tracing() {
		return nil, errors.New("provenance: the optimization ran without a tracing sink; set Options.Obs = stars.NewSink()")
	}
	return Build(res.Table, res.Best, res.Obs.Events())
}

// Build reconstructs the DAG from the final plan table, the chosen plan, and
// the event stream. The table and best plan supply structure (edges) for
// everything that survived; the events supply the identities, costs, and
// dominators of everything that did not. Plans and events both name a plan by
// its 64-bit identity; the fingerprint the DAG is keyed on is rendered once
// per distinct plan.
func Build(table *glue.PlanTable, best *plan.Node, events []obs.Event) (*DAG, error) {
	if len(events) == 0 {
		return nil, errors.New("provenance: empty event stream (non-tracing sink? use stars.NewSink)")
	}
	b := builder{d: &DAG{Plans: map[string]*Plan{}}, byID: map[uint64]*Plan{}}

	// Structure pass: walk every retained plan's subtree; interior nodes
	// are retained too (they are part of surviving plans).
	if table != nil {
		table.ForEachPlan(func(p *plan.Node) { b.addTree(p) })
	}
	if best != nil {
		b.d.BestFP = b.addTree(best).FP
		b.markBest(best)
	}

	// Event pass: pruned victims, veneers, rejected alternatives.
	for _, e := range events {
		switch e.Name {
		case obs.EvPlanOffer:
			n := b.ensure(e.P1)
			if n.Desc == "" {
				n.Origin, n.Desc = splitDetail(e.A3)
			}
			if n.Tables == "" {
				n.Tables = e.A1
			}
			if n.Cost == 0 {
				n.Cost, n.Card = e.F1, e.F2
			}
		case obs.EvPlanPrune:
			n := b.ensure(e.P1)
			if n.Tables == "" {
				n.Tables = e.A1
			}
			if n.Cost == 0 {
				n.Cost = e.F1
			}
			// The dominator exists even if later evicted.
			dom := b.ensure(e.P2)
			// A plan pruned in one entry may be retained in another;
			// the final table is authoritative.
			if !n.Retained {
				n.PrunedBy = dom.FP
				n.PrunedByCost = e.F2
				n.Evicted = e.N1 == 1
			}
		case obs.EvVeneer:
			n := b.ensure(e.P1)
			n.Veneer = true
			if n.Desc == "" {
				n.Desc = e.A1
			}
			if n.Cost == 0 {
				n.Cost = e.F1
			}
			if len(n.Inputs) == 0 && e.P2 != 0 {
				// The input was itself offered or veneered: this finds it.
				n.Inputs = []string{b.ensure(e.P2).FP}
			}
		case obs.EvGlueSkip:
			b.d.Reused += e.N1
			b.d.Bounded += e.N2
			if e.P1 != 0 {
				n := b.ensure(e.P1)
				if n.Cost == 0 {
					n.Cost = e.F1
				}
				n.BoundedBy, n.BoundedByCost = b.ensure(e.P2).FP, e.F2
			}
		case obs.EvAltRejected:
			if e.Kind == obs.KindInstant {
				b.d.Rejections = append(b.d.Rejections, Rejection{
					Rule: e.A1, Alt: int(e.N1), Cond: e.A2, Depth: int(e.Depth),
				})
			}
		}
	}
	return b.d, nil
}

// builder is Build's working state: the DAG under construction plus its
// nodes indexed by plan identity.
type builder struct {
	d    *DAG
	byID map[uint64]*Plan
}

// ensure returns the node for the plan identity, creating a stub if unseen.
func (b *builder) ensure(id uint64) *Plan {
	n := b.byID[id]
	if n == nil {
		n = &Plan{FP: plan.FormatID(id)}
		b.byID[id] = n
		b.d.Plans[n.FP] = n
	}
	return n
}

// addTree records a plan node and its whole subtree as retained, with edges.
func (b *builder) addTree(p *plan.Node) *Plan {
	n := b.ensure(p.ID())
	if n.Retained {
		return n
	}
	n.Retained = true
	n.Desc = p.Describe()
	n.Origin = p.Origin
	if p.Origin != "" {
		// Describe embeds the origin as its trailing «...» part; the DAG
		// keeps the two separate so reports control the rendering.
		n.Desc = strings.TrimSuffix(n.Desc, " «"+p.Origin+"»")
	}
	n.Veneer = n.Veneer || p.Origin == "Glue"
	if p.Props != nil {
		n.Tables = p.Props.Tables().Key()
		n.Cost = p.Props.Cost.Total
		n.Card = p.Props.Card
	}
	n.Inputs = n.Inputs[:0]
	for _, in := range p.Inputs {
		n.Inputs = append(n.Inputs, b.addTree(in).FP)
	}
	return n
}

// markBest flags the winning derivation chain.
func (b *builder) markBest(p *plan.Node) {
	n := b.byID[p.ID()]
	if n == nil || n.Best {
		return
	}
	n.Best = true
	for _, in := range p.Inputs {
		b.markBest(in)
	}
}

// splitDetail undoes the plantable.offer "origin desc" packing.
func splitDetail(s string) (origin, desc string) {
	if i := strings.IndexByte(s, ' '); i >= 0 {
		return s[:i], s[i+1:]
	}
	return "", s
}

// Status classifies a node for reports and diffs: "best", "retained",
// "pruned", or "derived" (seen but neither kept nor pruned).
func (n *Plan) Status() string {
	switch {
	case n.Best:
		return "best"
	case n.Retained:
		return "retained"
	case n.PrunedBy != "":
		return "pruned"
	default:
		return "derived"
	}
}

// label renders a node's one-line identity for reports.
func (n *Plan) label() string {
	var b strings.Builder
	b.WriteString(n.Desc)
	if n.Origin != "" {
		fmt.Fprintf(&b, " «%s»", n.Origin)
	}
	fmt.Fprintf(&b, " cost=%.1f", n.Cost)
	if n.Tables != "" {
		fmt.Fprintf(&b, " {%s}", n.Tables)
	}
	fmt.Fprintf(&b, " fp=%s", n.FP)
	return b.String()
}

// Resolve maps "best" (or a fingerprint) to a fingerprint.
func (d *DAG) Resolve(fpOrBest string) string {
	if fpOrBest == "best" {
		return d.BestFP
	}
	return fpOrBest
}

// Why answers "why is this plan in the search space, and how was it built":
// the plan's status followed by its full derivation chain — each operator
// with the STAR alternative (or Glue veneer) that produced it. Pass "best"
// for the winning plan.
func (d *DAG) Why(fpOrBest string) (string, error) {
	fp := d.Resolve(fpOrBest)
	n := d.Plans[fp]
	if n == nil {
		return "", fmt.Errorf("provenance: no plan with fingerprint %q was derived (try WhyNot)", fp)
	}
	var b strings.Builder
	switch n.Status() {
	case "best":
		fmt.Fprintf(&b, "WHY %s: chosen as the winning plan (cost=%.1f)\n", fp, n.Cost)
	case "retained":
		fmt.Fprintf(&b, "WHY %s: retained in the plan table for {%s} but not chosen (cost=%.1f)\n", fp, n.Tables, n.Cost)
	case "pruned":
		fmt.Fprintf(&b, "WHY %s: derived but pruned (cost=%.1f); see WhyNot for the dominance chain\n", fp, n.Cost)
	default:
		fmt.Fprintf(&b, "WHY %s: derived (cost=%.1f)\n", fp, n.Cost)
	}
	b.WriteString("derivation:\n")
	d.writeChain(&b, n, 1, map[string]bool{})
	if len(d.Rejections) > 0 {
		fmt.Fprintf(&b, "(%d alternative(s) elsewhere were rejected by their conditions of applicability; see WhyNot / the trace)\n",
			len(d.Rejections))
	}
	return b.String(), nil
}

// writeChain renders the derivation tree below n, one operator per line.
func (d *DAG) writeChain(b *strings.Builder, n *Plan, depth int, onPath map[string]bool) {
	indent := strings.Repeat("  ", depth)
	origin := n.Origin
	switch origin {
	case "Glue":
		origin = "Glue veneer"
	case "":
		origin = "?"
	}
	fmt.Fprintf(b, "%s%s  «%s»  cost=%.1f  fp=%s\n", indent, n.Desc, origin, n.Cost, n.FP)
	if onPath[n.FP] {
		return // shared subplan guard (plans are DAGs, not trees)
	}
	onPath[n.FP] = true
	for _, in := range n.Inputs {
		if c := d.Plans[in]; c != nil {
			d.writeChain(b, c, depth+1, onPath)
		} else {
			fmt.Fprintf(b, "%s  (input %s not recorded)\n", indent, in)
		}
	}
	delete(onPath, n.FP)
}

// WhyNot answers "why was this alternative rejected" as a causal chain:
// pruned plans name their dominator (and the dominator's own fate, followed
// transitively), retained-but-unchosen plans cite the winning plan for the
// same table set with the cost delta, and unknown fingerprints report
// never-derived along with the conditions of applicability that closed off
// branches of the grammar.
func (d *DAG) WhyNot(fp string) string {
	fp = d.Resolve(fp)
	n := d.Plans[fp]
	var b strings.Builder
	if n == nil {
		fmt.Fprintf(&b, "WHYNOT %s: never derived — no STAR alternative built a plan with this fingerprint.\n", fp)
		if d.Bounded > 0 {
			fmt.Fprintf(&b, "Glue left %d candidate(s) unveneered in this run: their own cost was already above the cheapest plan satisfying the requirement.\n", d.Bounded)
		}
		if len(d.Rejections) > 0 {
			b.WriteString("conditions of applicability that closed off branches during this run:\n")
			for _, r := range dedupeRejections(d.Rejections) {
				fmt.Fprintf(&b, "  %s alt#%d: %s\n", r.Rule, r.Alt, r.Cond)
			}
		}
		return b.String()
	}
	switch n.Status() {
	case "best":
		fmt.Fprintf(&b, "WHYNOT %s: it was not rejected — this is the chosen plan (cost=%.1f).\n", fp, n.Cost)
	case "pruned":
		fmt.Fprintf(&b, "WHYNOT %s: %s\n", fp, n.label())
		d.writePruneChain(&b, n, 1, map[string]bool{})
	case "retained":
		fmt.Fprintf(&b, "WHYNOT %s: %s\n", fp, n.label())
		if w := d.bestFor(n.Tables); w != nil && w.FP != n.FP {
			fmt.Fprintf(&b, "  survived dominance pruning for {%s}, but the winning derivation used\n  %s\n  (cost %.1f vs %.1f, delta %+.1f)\n",
				n.Tables, w.label(), n.Cost, w.Cost, n.Cost-w.Cost)
		} else {
			fmt.Fprintf(&b, "  survived in the plan table for {%s} but the winning derivation never referenced it\n", n.Tables)
		}
	default:
		fmt.Fprintf(&b, "WHYNOT %s: %s\n  derived but neither retained nor recorded as pruned (superseded by an identical plan)\n", fp, n.label())
	}
	if n.BoundedBy != "" {
		fmt.Fprintf(&b, "  Glue veneers over it for {%s} were not built: base cost %.1f already above cheapest satisfying %.1f (%s)\n",
			n.Tables, n.Cost, n.BoundedByCost, n.BoundedBy)
	}
	return b.String()
}

// writePruneChain follows dominated-by links until a surviving plan.
func (d *DAG) writePruneChain(b *strings.Builder, n *Plan, depth int, seen map[string]bool) {
	if seen[n.FP] {
		return
	}
	seen[n.FP] = true
	indent := strings.Repeat("  ", depth)
	verb := "rejected on arrival: dominated by"
	if n.Evicted {
		verb = "evicted from the plan table: dominated by"
	}
	dom := d.Plans[n.PrunedBy]
	if dom == nil {
		fmt.Fprintf(b, "%s%s %s (cost %.1f ≥ %.1f) in entry {%s}\n",
			indent, verb, n.PrunedBy, n.Cost, n.PrunedByCost, n.Tables)
		return
	}
	fmt.Fprintf(b, "%s%s %s (cost %.1f ≥ %.1f) in entry {%s}\n",
		indent, verb, dom.label(), n.Cost, n.PrunedByCost, n.Tables)
	switch dom.Status() {
	case "best":
		fmt.Fprintf(b, "%sthe dominator is the chosen plan\n", indent)
	case "retained":
		fmt.Fprintf(b, "%sthe dominator survived in the plan table\n", indent)
	case "pruned":
		fmt.Fprintf(b, "%sthe dominator was itself later pruned:\n", indent)
		d.writePruneChain(b, dom, depth+1, seen)
	}
}

// bestFor returns a best-chain plan covering the table-set key, preferring
// the one whose cost the comparison should cite (the cheapest).
func (d *DAG) bestFor(tables string) *Plan {
	var out *Plan
	for _, n := range d.sorted() {
		if n.Best && n.Tables == tables && (out == nil || n.Cost < out.Cost) {
			out = n
		}
	}
	return out
}

// sorted returns the nodes ordered by fingerprint for deterministic output.
func (d *DAG) sorted() []*Plan {
	out := make([]*Plan, 0, len(d.Plans))
	for _, n := range d.Plans {
		out = append(out, n)
	}
	slices.SortFunc(out, func(a, b *Plan) int { return strings.Compare(a.FP, b.FP) })
	return out
}

// Pruned returns the pruned nodes, ordered by fingerprint.
func (d *DAG) Pruned() []*Plan {
	var out []*Plan
	for _, n := range d.sorted() {
		if n.Status() == "pruned" {
			out = append(out, n)
		}
	}
	return out
}

// Summary is a one-line census of the DAG.
func (d *DAG) Summary() string {
	counts := map[string]int{}
	for _, n := range d.Plans {
		counts[n.Status()]++
	}
	return fmt.Sprintf("provenance: %d plans (%d on the winning chain, %d retained, %d pruned), %d rejected alternatives",
		len(d.Plans), counts["best"], counts["retained"], counts["pruned"], len(d.Rejections))
}

// dedupeRejections collapses repeated (rule, alt) rejections, keeping first
// occurrence order.
func dedupeRejections(rs []Rejection) []Rejection {
	seen := map[string]bool{}
	var out []Rejection
	for _, r := range rs {
		k := fmt.Sprintf("%s#%d", r.Rule, r.Alt)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}
