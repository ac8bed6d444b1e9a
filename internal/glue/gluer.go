package glue

import (
	"fmt"
	"math"

	"stars/internal/expr"
	"stars/internal/obs"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/star"
)

// Stats counts Glue activity.
type Stats struct {
	// Calls counts Glue references.
	Calls int64
	// Hits counts references satisfied from the plan table.
	Hits int64
	// Misses counts references that re-referenced access STARs or
	// retrofitted predicates.
	Misses int64
	// Veneers counts Glue operators injected.
	Veneers int64
	// VeneersByOp splits Veneers by operator, in VeneerOps order.
	VeneersByOp [len(VeneerOps)]int64
	// Reused and Bounded count candidates a reference did not veneer: an
	// earlier one with the same requirement already had (the mark), or their
	// own cost was already above the cheapest satisfying plan (the bound).
	Reused, Bounded int64
}

// VeneerOps lists the operators Glue injects, in Stats.VeneersByOp order.
var VeneerOps = [...]plan.Op{plan.OpShip, plan.OpSort, plan.OpStore, plan.OpBuildIndex, plan.OpAccess, plan.OpFilter}

// Add accumulates another run's counters (mirrors star.Stats.Add).
func (s *Stats) Add(o Stats) {
	s.Calls += o.Calls
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Veneers += o.Veneers
	for i, n := range o.VeneersByOp {
		s.VeneersByOp[i] += n
	}
	s.Reused += o.Reused
	s.Bounded += o.Bounded
}

// Gluer is the Glue mechanism wired to a STAR engine, a query, and a plan
// table.
type Gluer struct {
	// Engine evaluates access STARs on plan-table misses and prices
	// veneer nodes.
	Engine *star.Engine
	// Graph is the query being optimized.
	Graph *query.Graph
	// Table is the plan table.
	Table *PlanTable
	// KeepAll makes Glue return every satisfying plan instead of only the
	// cheapest (the paper's optional mode; an ablation benchmark flips
	// it).
	KeepAll bool
	// Stats accumulates counters.
	Stats Stats
	// built is the scratch list of plans one reference or retrofit offers.
	built []*plan.Node
}

// AccessRootRule names the STAR Glue references when no plans exist for a
// single table's relational properties.
const AccessRootRule = "AccessRoot"

// Glue implements star.GlueFn. See the package comment for the three steps.
func (g *Gluer) Glue(req *star.GlueRequest) (result []*plan.Node, err error) {
	g.Stats.Calls++
	var sp obs.Span
	if g.Engine.Obs.Enabled() {
		// The span's arguments are rendered for the begin/end records only:
		// its histogram and profile entry are label-free.
		tables, reqd := "", ""
		if g.Engine.Obs.Tracing() {
			tables, reqd = req.Tables.Key(), req.Req.String()
		}
		sp = g.Engine.Obs.StartSpan(obs.EvGlue, tables, reqd, 0)
		defer func() { sp.End(int64(len(result))) }()
	}
	base := g.Graph.EligibleWithin(req.Tables)
	// Pushed predicates split into static ones (columns within the table
	// set; applicable once) and bound ones (columns referencing the outer
	// side; re-evaluated per probe via sideways information passing).
	// Bound predicates must never sink below a materialization: a temp's
	// contents cannot depend on the current outer tuple.
	static := req.Push.Within(req.Tables)
	bound := req.Push.Minus(static)
	materialize := req.Req.Temp || req.Req.PathCols.Len() > 0

	lookup := base.Union(static)
	if !materialize {
		lookup = lookup.Union(bound)
	}
	cands, err := g.ensurePlans(req.Tables, lookup)
	if err != nil {
		return nil, err
	}
	full := base.Union(static).Union(bound)
	target := g.Table.Lookup(req.Tables, full)

	// Find before building (package comment): the mark passes over candidates
	// an earlier reference of this job dealt with, the bound over those
	// already dearer than the cheapest plan satisfying the requirement.
	all := g.KeepAll || req.All
	k := markKey{req.Tables.Mask(), lookup.Hash64(), full.Hash64(), req.Req.Hash64(), all}
	m := g.Table.markOf(k)
	var best *plan.Node
	limit := math.Inf(1)
	if !all {
		if best = target.cheapest(req.Req); best != nil {
			limit = best.Props.Cost.Total
		}
	}
	sameCell := lookup.Equal(full)
	var reused, bounded int64
	var skipped *plan.Node // the cheapest candidate the bound passed over
	built := g.built[:0]
	for half, e := range cands {
		i := e.fresh(m[half])
		reused += int64(i)
		for _, cand := range e.plans[i:] {
			if cand.Props.Cost.Total > limit {
				bounded++
				if skipped == nil || cand.Props.Cost.Total < skipped.Props.Cost.Total {
					skipped = cand.Node
				}
				continue
			}
			v, err := g.veneer(cand.Node, req.Req, full)
			if err != nil {
				return nil, err
			}
			if v == cand.Node && sameCell {
				continue // needs nothing and already sits where it would be offered
			}
			built = append(built, v)
			if !all && v.Props.Cost.Total < limit && req.Req.SatisfiedBy(v.Props) {
				limit = v.Props.Cost.Total
			}
		}
	}
	g.Stats.Reused += reused
	g.Stats.Bounded += bounded
	if len(built) > 0 {
		// Newly veneered plans join the table so later references find them
		// (Figure 3's third plan came from an earlier Glue reference).
		g.Table.Insert(req.Tables, full, built)
		cands, target = g.Table.Lookup(req.Tables, lookup), g.Table.Lookup(req.Tables, full)
		if !all {
			best = target.cheapest(req.Req)
		}
	}
	g.built = built[:0]
	// Where candidates and veneers share a cell this passes the new veneers
	// too: they already satisfy what they were built for.
	if now := (mark{cands[0].seq, cands[1].seq}); now != m {
		g.Table.marks[k] = now
	}

	if best != nil {
		result = g.Engine.SAP(best)
	} else if all {
		for _, e := range target {
			for _, p := range e.plans {
				if req.Req.SatisfiedBy(p.Props) {
					result = append(result, p.Node)
				}
			}
		}
	}
	if len(result) == 0 {
		return nil, fmt.Errorf("glue: no plan for {%s} satisfies %s", req.Tables.Key(), req.Req) //obsguard:ignore error path
	}
	if g.Engine.Obs.Tracing() && reused+bounded > 0 {
		// One record per reference, never per candidate. When the bound
		// skipped any: the cheapest of them, and the plan it could not beat.
		e := obs.Event{Name: obs.EvGlueSkip, A1: req.Tables.Key(), N1: reused, N2: bounded}
		if skipped != nil {
			e.P1, e.F1 = skipped.ID(), skipped.Props.Cost.Total
			e.P2, e.F2 = best.ID(), best.Props.Cost.Total
		}
		g.Engine.Obs.Emit(e)
	}
	return result, nil
}

// ensurePlans returns the (tables, preds) cell, filling it on a miss:
// single tables re-reference the top-most access STAR with the full
// predicate set (so index plans can exploit pushed join predicates rather
// than retrofitting a FILTER — Section 4.4); composites retrofit the
// missing predicates onto the enumerated entry. A single-table cell is found
// only once seeded: veneers a materializing reference put there do not count.
func (g *Gluer) ensurePlans(tables expr.TableSet, preds expr.PredSet) (Cell, error) {
	q, single := tables.Only()
	if c := g.Table.Lookup(tables, preds); single && (c[0].seeded || c[1].seeded) || !single && c.Len() > 0 {
		g.Stats.Hits++
		if g.Engine.Obs.Tracing() {
			g.Engine.Obs.Emit(obs.Event{Name: obs.EvGlueHit, A1: tables.Key(), N1: int64(c.Len())})
		}
		return c, nil
	}
	g.Stats.Misses++
	if g.Engine.Obs.Tracing() {
		g.Engine.Obs.Emit(obs.Event{Name: obs.EvGlueMiss, A1: tables.Key()})
	}
	if single {
		seeded := false
		err := g.Engine.Eval(AccessRootRule, []star.Value{
			star.StreamValue(tables),
			star.ColsValue(g.Engine.Cost.Needed(q)),
			star.PredsValue(preds),
		}, func(sap []*plan.Node) {
			if seeded = len(sap) > 0; seeded {
				g.Table.Seed(tables, preds, sap)
			}
		})
		if err != nil {
			return Cell{}, fmt.Errorf("glue: access plans for %s: %w", q, err)
		}
		if !seeded {
			return Cell{}, fmt.Errorf("glue: no access plans for %s", q)
		}
		return g.Table.Lookup(tables, preds), nil
	}
	// Composite: the enumeration inserted plans under the eligible
	// predicate set; add the missing predicates as a FILTER veneer.
	base := g.Graph.EligibleWithin(tables)
	cands := g.Table.Lookup(tables, base)
	if cands.Len() == 0 {
		return Cell{}, fmt.Errorf("glue: no plans exist for composite {%s} (enumeration order violated?)", tables.Key()) //obsguard:ignore error path
	}
	missing := preds.Minus(base)
	out := g.built[:0]
	for _, e := range cands {
		for _, c := range e.plans {
			f, err := g.addFilter(c.Node, missing)
			if err != nil {
				return Cell{}, err
			}
			out = append(out, f)
		}
	}
	g.Table.Insert(tables, preds, out)
	g.built = out[:0]
	return g.Table.Lookup(tables, preds), nil
}

// veneer augments one plan with Glue operators until it satisfies the
// requirements, applying any still-missing predicates of full above every
// materialization. A plan that needs nothing is returned as it is.
func (g *Gluer) veneer(cur *plan.Node, req plan.Reqd, full expr.PredSet) (_ *plan.Node, err error) {
	// 1. Move to the required site (shipping first puts any temp at the
	// destination, as condition C1 of Section 4.3 intends).
	if req.Site != nil && cur.Props.Site != *req.Site {
		if cur, err = g.addVeneer(cur, plan.Node{Op: plan.OpShip, Site: *req.Site}); err != nil {
			return nil, err
		}
	}
	// 2. Achieve the required order (before STORE, so the temp inherits
	// it).
	if !plan.OrderSatisfies(cur.Props.Order, req.Order) {
		if cur, err = g.addVeneer(cur, plan.Node{Op: plan.OpSort, SortCols: req.Order}); err != nil {
			return nil, err
		}
	}
	// 3. Materialize when required.
	if (req.Temp || req.PathCols.Len() > 0) && !cur.Props.Temp {
		if cur, err = g.addVeneer(cur, plan.Node{Op: plan.OpStore}); err != nil {
			return nil, err
		}
	}
	// 4. Create the required index and probe it with the per-probe
	// predicates (Section 4.5.3).
	if req.PathCols.Len() > 0 {
		if cur, err = g.dynamicIndex(cur, req.PathCols, full); err != nil {
			return nil, err
		}
	}
	// 5. Any predicates of the target set the plan still has not applied
	// go above everything as a per-probe FILTER.
	return g.addFilter(cur, full.Minus(cur.Props.Preds()))
}

// dynamicIndex ensures an index on ixCols exists on the materialized stream
// and replaces the stream with an index probe applying the matching pushed
// predicates.
func (g *Gluer) dynamicIndex(cur *plan.Node, ixCols expr.ColList, full expr.PredSet) (_ *plan.Node, err error) {
	if cur.Props.PathOn(ixCols) == nil {
		ix := plan.Node{Op: plan.OpBuildIndex, SortCols: ixCols}
		if cur, err = g.addVeneer(cur, ix); err != nil {
			return nil, err
		}
	}
	path := cur.Props.PathOn(ixCols)
	missing := full.Minus(cur.Props.Preds())
	// The probe lists no columns: it carries the temp's COLS.
	return g.addVeneer(cur, plan.Node{
		Op: plan.OpAccess, Flavor: plan.FlavorIndex,
		Preds:    expr.MatchIndexPrefix(missing, path.Cols),
		SortCols: path.Cols,
	})
}

func (g *Gluer) addFilter(cur *plan.Node, preds expr.PredSet) (*plan.Node, error) {
	if preds.Empty() {
		return cur, nil
	}
	return g.addVeneer(cur, plan.Node{Op: plan.OpFilter, Preds: preds})
}

// addVeneer puts the Glue operator n over in: a node from the optimization's
// arena, priced and counted.
func (g *Gluer) addVeneer(in *plan.Node, op plan.Node) (*plan.Node, error) {
	op.Origin = "Glue"
	n := g.Engine.Cost.Arena.NewNode(op, in)
	if err := g.Engine.Cost.Price(n); err != nil {
		return nil, fmt.Errorf("glue: pricing %s veneer: %w", n.Op, err)
	}
	g.Stats.Veneers++
	for i, op := range VeneerOps {
		if op == n.Op {
			g.Stats.VeneersByOp[i]++
			break
		}
	}
	if g.Engine.Obs.Tracing() {
		g.Engine.Obs.Emit(obs.Event{Name: obs.EvVeneer, A1: string(n.Op), P1: n.ID(), P2: in.ID(), N1: 1,
			F1: n.Props.Cost.Total})
	}
	return n, nil
}

// PlanSites implements the engine's PlanSites probe: the sites of existing
// plans, falling back to catalog placement for single tables.
func (g *Gluer) PlanSites(tables expr.TableSet) []string {
	if sites := g.Table.Sites(tables); len(sites) > 0 {
		return sites
	}
	if name, ok := tables.Only(); ok {
		if q := g.Graph.Quant(name); q != nil {
			return []string{g.Engine.Cost.Cat.SiteOf(q.Table)}
		}
	}
	return nil
}
