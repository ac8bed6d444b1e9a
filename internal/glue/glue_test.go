package glue

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/datum"
	"stars/internal/expr"
	"stars/internal/obs"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/star"
)

// fixture wires a catalog, query graph, engine, and gluer for DEPT/EMP with
// DEPT remote.
func fixture(t *testing.T) (*Gluer, *star.Engine, *query.Graph) {
	t.Helper()
	cat := catalog.New()
	cat.Sites = []string{"LA", "NY"}
	cat.QuerySite = "LA"
	cat.AddTable(&catalog.Table{
		Name: "DEPT", Site: "NY",
		Cols: []*catalog.Column{
			{Name: "DNO", Type: datum.KindInt, NDV: 100},
			{Name: "MGR", Type: datum.KindString, NDV: 90},
		},
		Card: 5000,
		Paths: []*catalog.AccessPath{
			{Name: "DEPTDNO", Table: "DEPT", Cols: []string{"DNO"}},
		},
	})
	cat.AddTable(&catalog.Table{
		Name: "EMP", Site: "LA",
		Cols: []*catalog.Column{
			{Name: "DNO", Type: datum.KindInt, NDV: 100},
			{Name: "NAME", Type: datum.KindString, NDV: 9000},
		},
		Card: 10000,
	})
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	// DEPT joins EMP; E2, a second range variable over EMP, exists so that a
	// predicate can be bound from outside the DEPT-EMP composite.
	g := query.MustNew(
		[]query.Quantifier{{Name: "DEPT", Table: "DEPT"}, {Name: "EMP", Table: "EMP"}, {Name: "E2", Table: "EMP"}},
		deptEmpJoin, empE2Join,
	)
	g.Select = []expr.ColID{{Table: "DEPT", Col: "MGR"}, {Table: "EMP", Col: "NAME"}}
	env := cost.NewEnv(cat, cost.DefaultWeights)
	env.Bind(g)
	en := star.NewEngine(star.DefaultRules(), env)
	en.QueryTables = g.QuantNames()
	table := NewPlanTable()
	gl := &Gluer{Engine: en, Graph: g, Table: table}
	en.Glue = gl.Glue
	en.PlanSites = gl.PlanSites
	return gl, en, g
}

// The fixture query's conjuncts.
var (
	deptEmpJoin = &expr.Cmp{Op: expr.EQ, L: expr.C("DEPT", "DNO"), R: expr.C("EMP", "DNO")}
	empE2Join   = &expr.Cmp{Op: expr.EQ, L: expr.C("EMP", "NAME"), R: expr.C("E2", "NAME")}
)

// tables names a table set of the fixture query.
func tables(g *query.Graph, names ...string) expr.TableSet { return g.Universe().Tables(names...) }

// keyU is the universe of the plan-table unit tests, which need no query:
// one table set and three distinct predicate sets standing in for keys.
var keyU = func() *expr.Universe {
	u, err := expr.NewUniverse([]string{"DEPT"}, []expr.Expr{
		&expr.Cmp{Op: expr.EQ, L: expr.C("DEPT", "DNO"), R: expr.C("DEPT", "MGR")},
		&expr.Cmp{Op: expr.GT, L: expr.C("DEPT", "DNO"), R: expr.C("DEPT", "MGR")},
		&expr.Cmp{Op: expr.LT, L: expr.C("DEPT", "DNO"), R: expr.C("DEPT", "MGR")},
	})
	if err != nil {
		panic(err)
	}
	return u
}()

func deptSet() expr.TableSet { return keyU.All() }

// keyV is the column vocabulary of hand-built plans over keyU: DNO, MGR, the
// names TestBoundSkipsOnlyStrictlyDearerCandidates orders by, and C0 to C15.
var keyV = func() *expr.Vocab {
	var ids []expr.ColID
	for _, c := range []string{"DNO", "MGR", "tie", "temp", "dear"} {
		ids = append(ids, expr.ColID{Table: "DEPT", Col: c})
	}
	for i := 0; i < 16; i++ {
		ids = append(ids, expr.ColID{Table: "DEPT", Col: fmt.Sprint("C", i)})
	}
	return expr.NewVocab(keyU, ids)
}()

// keyCols lists the named DEPT columns of keyV.
func keyCols(names ...string) expr.ColList {
	ids := make([]expr.ColID, len(names))
	for i, n := range names {
		ids[i] = expr.ColID{Table: "DEPT", Col: n}
	}
	return keyV.List(ids...)
}

// queryCols lists columns of the query gl optimizes.
func queryCols(gl *Gluer, ids ...expr.ColID) expr.ColList { return gl.Engine.Cost.Vocab().List(ids...) }

var (
	predsK     = keyU.PredSet(keyU.Preds().Slice()[0])
	predsOther = keyU.PredSet(keyU.Preds().Slice()[1])
	predsP     = keyU.PredSet(keyU.Preds().Slice()[2])
)

func TestPlanTableInsertLookupAndPruning(t *testing.T) {
	pt := NewPlanTable()
	ts := deptSet()
	cheap := &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorHeap, Table: "DEPT",
		Props: &plan.Props{Cost: plan.Cost{Total: 5}}}
	pricey := &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorBTreeStore, Table: "DEPT",
		Props: &plan.Props{Cost: plan.Cost{Total: 50}}}
	ordered := &plan.Node{Op: plan.OpSort, SortCols: keyCols("DNO"),
		Inputs: []*plan.Node{cheap},
		Props: &plan.Props{Cost: plan.Cost{Total: 80},
			Order: keyCols("DNO")}}

	pt.Insert(ts, predsK, []*plan.Node{pricey, cheap, ordered})
	if got := plansOf(pt.Lookup(ts, predsK)); len(got) != 2 {
		t.Fatalf("retained = %d, want 2 (pricey dominated; ordered shielded)", len(got))
	}
	if pt.Pruned != 1 {
		t.Errorf("pruned = %d", pt.Pruned)
	}
	if pt.Lookup(ts, predsK).Len() != 2 || pt.Lookup(ts, predsOther).Len() != 0 {
		t.Error("lookup keys")
	}
	if best := CheapestOf(pt.Entry(ts)); best == nil || best.Props.Cost.Total != 5 {
		t.Error("best")
	}
	if pt.Size() != 2 {
		t.Error("size")
	}
	// Re-inserting an identical plan is a no-op.
	pt.Insert(ts, predsK, []*plan.Node{cheap})
	if pt.Size() != 2 {
		t.Error("idempotent insert")
	}
}

// TestPlanTablePruneForensics checks the enriched event stream: every offer
// carries the plan's fingerprint and cost, and every prune decision names
// victim and dominator with costs and the correct direction (0 = incoming
// rejected on arrival, 1 = existing evicted by a later arrival).
func TestPlanTablePruneForensics(t *testing.T) {
	pt := NewPlanTable()
	pt.Obs = obs.NewSink()
	ts := deptSet()
	pricey := &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorBTreeStore, Table: "DEPT",
		Origin: "TableAccess#2", Props: &plan.Props{Cost: plan.Cost{Total: 50}}}
	cheap := &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorHeap, Table: "DEPT",
		Origin: "TableAccess#1", Props: &plan.Props{Cost: plan.Cost{Total: 5}}}

	// pricey arrives first and is later evicted by cheap.
	pt.Insert(ts, predsK, []*plan.Node{pricey})
	pt.Insert(ts, predsK, []*plan.Node{cheap})

	var offers, prunes []obs.Event
	for _, e := range pt.Obs.Events() {
		switch e.Name {
		case obs.EvPlanOffer:
			offers = append(offers, e)
		case obs.EvPlanPrune:
			prunes = append(prunes, e)
		}
	}
	if len(offers) != 2 {
		t.Fatalf("offers = %d, want 2", len(offers))
	}
	for _, e := range offers {
		if e.A1 != "DEPT" || e.P1 == 0 || e.F1 == 0 {
			t.Errorf("offer lacks key/fingerprint/cost: %+v", e)
		}
	}
	if offers[0].A3 != "TableAccess#2 ACCESS(btree)" {
		t.Errorf("offer detail = %q", offers[0].A3)
	}
	if len(prunes) != 1 {
		t.Fatalf("prunes = %d, want 1", len(prunes))
	}
	e := prunes[0]
	if e.N1 != 1 {
		t.Errorf("direction = %d, want 1 (existing plan evicted)", e.N1)
	}
	if w := obs.Wire("", e); w.A2 != pricey.Fingerprint() || w.A3 != cheap.Fingerprint() {
		t.Errorf("victim/dominator = %q/%q, want %q/%q", w.A2, w.A3,
			pricey.Fingerprint(), cheap.Fingerprint())
	}
	if e.F1 != 50 || e.F2 != 5 {
		t.Errorf("victim/dominator costs = %.1f/%.1f, want 50/5", e.F1, e.F2)
	}

	// The reverse order: the incoming plan is rejected on arrival.
	pt2 := NewPlanTable()
	pt2.Obs = obs.NewSink()
	cheap2 := &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorHeap, Table: "DEPT",
		Props: &plan.Props{Cost: plan.Cost{Total: 5}}}
	pricey2 := &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorBTreeStore, Table: "DEPT",
		Props: &plan.Props{Cost: plan.Cost{Total: 50}}}
	pt2.Insert(ts, predsK, []*plan.Node{cheap2})
	pt2.Insert(ts, predsK, []*plan.Node{pricey2})
	for _, e := range pt2.Obs.Events() {
		if e.Name != obs.EvPlanPrune {
			continue
		}
		if e.N1 != 0 {
			t.Errorf("direction = %d, want 0 (incoming rejected)", e.N1)
		}
		if e.P1 != pricey2.ID() || e.P2 != cheap2.ID() {
			t.Errorf("victim/dominator = %x/%x", e.P1, e.P2)
		}
	}
}

func TestPlanTablePruneDisabled(t *testing.T) {
	pt := NewPlanTable()
	pt.PruneDisabled = true
	ts := deptSet()
	a := &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorHeap, Table: "A",
		Props: &plan.Props{Cost: plan.Cost{Total: 5}}}
	b := &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorHeap, Table: "B",
		Props: &plan.Props{Cost: plan.Cost{Total: 50}}}
	pt.Insert(ts, predsK, []*plan.Node{a, b, a}) // duplicate a
	if pt.Size() != 2 {
		t.Fatalf("size = %d (dedup by key, no dominance)", pt.Size())
	}
}

func TestGlueMissReferencesAccessRoot(t *testing.T) {
	gl, en, g := fixture(t)
	plans, err := gl.Glue(&star.GlueRequest{Tables: tables(g, "DEPT")})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 {
		t.Fatalf("cheapest-only returns 1, got %d", len(plans))
	}
	if gl.Stats.Misses != 1 || en.Stats.RuleRefs == 0 {
		t.Error("the miss must have referenced AccessRoot")
	}
	// Second reference hits the table.
	if _, err := gl.Glue(&star.GlueRequest{Tables: tables(g, "DEPT")}); err != nil {
		t.Fatal(err)
	}
	if gl.Stats.Hits == 0 {
		t.Error("second reference must hit")
	}
}

func TestGlueSatisfiesOrderAndSite(t *testing.T) {
	gl, _, g := fixture(t)
	la := "LA"
	req := plan.Reqd{
		Site:  &la,
		Order: queryCols(gl, expr.ColID{Table: "DEPT", Col: "DNO"}),
	}
	plans, err := gl.Glue(&star.GlueRequest{Tables: tables(g, "DEPT"), Req: req})
	if err != nil {
		t.Fatal(err)
	}
	p := plans[0]
	if !req.SatisfiedBy(p.Props) {
		t.Fatalf("requirements unmet:\n%s", plan.Explain(p))
	}
	if gl.Stats.Veneers == 0 {
		t.Error("veneers must have been injected")
	}
}

func TestGlueBoundPredsStayAboveStore(t *testing.T) {
	gl, _, g := fixture(t)
	// Push the (bound) join predicate while requiring a temp: the
	// predicate must appear above the STORE, never below it.
	jp := deptEmpJoin
	plans, err := gl.Glue(&star.GlueRequest{
		Tables: tables(g, "DEPT"),
		Push:   g.Universe().PredSet(jp),
		Req:    plan.Reqd{Temp: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := plans[0]
	// Find the STORE; everything beneath it must not reference EMP.
	var store *plan.Node
	p.Walk(func(n *plan.Node) {
		if n.Op == plan.OpStore && store == nil {
			store = n
		}
	})
	if store == nil {
		t.Fatalf("no STORE in temp-required plan:\n%s", plan.Explain(p))
	}
	store.Walk(func(n *plan.Node) {
		for _, pr := range n.Preds.Slice() {
			for _, c := range expr.Columns(pr) {
				if c.Table == "EMP" {
					t.Fatalf("bound predicate sank below STORE:\n%s", plan.Explain(p))
				}
			}
		}
	})
	// And the full plan must still apply it somewhere.
	if !p.Props.Preds().Contains(jp) {
		t.Fatalf("bound predicate not applied:\n%s", plan.Explain(p))
	}
}

func TestGlueDynamicIndexVeneer(t *testing.T) {
	gl, _, g := fixture(t)
	jp := deptEmpJoin
	// Require an index on EMP.DNO (EMP has no catalog index): Glue must
	// STORE, BUILDINDEX, and probe.
	plans, err := gl.Glue(&star.GlueRequest{
		Tables: tables(g, "EMP"),
		Push:   g.Universe().PredSet(jp),
		Req:    plan.Reqd{PathCols: queryCols(gl, expr.ColID{Table: "EMP", Col: "DNO"})},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := plans[0]
	var ops []string
	for n := p; n != nil; {
		ops = append(ops, string(n.Op))
		if len(n.Inputs) == 0 {
			break
		}
		n = n.Inputs[0]
	}
	chain := strings.Join(ops, "<")
	if !strings.Contains(chain, "ACCESS<BUILDINDEX<STORE") {
		t.Fatalf("expected probe over dynamic index over temp, got %s:\n%s", chain, plan.Explain(p))
	}
	if p.Op != plan.OpAccess || p.Flavor != plan.FlavorIndex {
		t.Fatalf("top must be the index probe:\n%s", plan.Explain(p))
	}
	if p.Preds.Empty() {
		t.Error("the probe must carry the bound join predicate")
	}
}

func TestGlueAllReturnsEverySatisfying(t *testing.T) {
	gl, _, g := fixture(t)
	plans, err := gl.Glue(&star.GlueRequest{Tables: tables(g, "DEPT"), All: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 2 {
		t.Fatalf("All must return the alternatives, got %d", len(plans))
	}
}

func TestGlueCompositeRetrofitsFilter(t *testing.T) {
	gl, en, g := fixture(t)
	// Seed a composite entry by building the join through the engine.
	both := tables(g, "DEPT", "EMP")
	sap, err := en.EvalRule("JoinRoot", []star.Value{
		star.StreamValue(tables(g, "DEPT")),
		star.StreamValue(tables(g, "EMP")),
		star.PredsValue(g.NewlyEligible(tables(g, "DEPT"), tables(g, "EMP"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	gl.Table.Insert(both, g.EligibleWithin(both), sap)
	// Pushing a predicate bound from outside the composite retrofits a
	// FILTER onto the enumerated entry.
	extra := empE2Join
	plans, err := gl.Glue(&star.GlueRequest{Tables: both, Push: g.Universe().PredSet(extra)})
	if err != nil {
		t.Fatal(err)
	}
	if !plans[0].Props.Preds().Contains(extra) {
		t.Fatalf("pushed predicate not applied:\n%s", plan.Explain(plans[0]))
	}
}

func TestGlueCompositeWithoutEntryFails(t *testing.T) {
	gl, _, g := fixture(t)
	_, err := gl.Glue(&star.GlueRequest{Tables: tables(g, "DEPT", "EMP")})
	if err == nil || !strings.Contains(err.Error(), "no plans exist") {
		t.Fatalf("err = %v", err)
	}
}

func TestPlanSitesFallsBackToCatalog(t *testing.T) {
	gl, _, g := fixture(t)
	sites := gl.PlanSites(tables(g, "DEPT"))
	if len(sites) != 1 || sites[0] != "NY" {
		t.Fatalf("sites = %v (catalog fallback)", sites)
	}
	// After plans exist, their sites win.
	if _, err := gl.Glue(&star.GlueRequest{Tables: tables(g, "DEPT")}); err != nil {
		t.Fatal(err)
	}
	sites = gl.PlanSites(tables(g, "DEPT"))
	if len(sites) == 0 {
		t.Fatal("plan sites after population")
	}
}

func TestCheapestOf(t *testing.T) {
	if CheapestOf(nil) != nil {
		t.Error("empty slice")
	}
	a := &plan.Node{Props: &plan.Props{Cost: plan.Cost{Total: 2}}}
	b := &plan.Node{Props: &plan.Props{Cost: plan.Cost{Total: 1}}}
	if CheapestOf([]*plan.Node{a, b}) != b {
		t.Error("cheapest")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Calls: 1, Hits: 2, Misses: 3, Veneers: 4}
	a.VeneersByOp[1] = 4
	b := Stats{Calls: 10, Hits: 20, Misses: 30, Veneers: 40}
	b.VeneersByOp[1], b.VeneersByOp[5] = 30, 10
	a.Add(b)
	want := Stats{Calls: 11, Hits: 22, Misses: 33, Veneers: 44}
	want.VeneersByOp[1], want.VeneersByOp[5] = 34, 10
	if a != want {
		t.Errorf("Stats.Add = %+v", a)
	}
}

// TestPruneTally: dominance decisions are tallied by the origins of victim
// and dominator on any enabled sink — without an event on a non-tracing one —
// survive Absorb, and are not kept at all without a sink. The overlay reports
// into the base's sink, as a tracing run's worker does.
func TestPruneTally(t *testing.T) {
	ts := deptSet()
	mk := func(origin string, total float64) *plan.Node {
		return &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorHeap, Table: "DEPT", Path: origin,
			Origin: origin, Props: &plan.Props{Cost: plan.Cost{Total: total}}}
	}
	tally := func(pt *PlanTable) map[[2]string]int64 {
		out := map[[2]string]int64{}
		pt.ForEachPrune(func(v, d string, n int64) { out[[2]string{v, d}] += n })
		return out
	}
	for _, sink := range []*obs.Sink{obs.NewSink(), obs.NewMetricsSink(), nil} {
		base := NewPlanTable()
		base.Obs = sink
		base.Insert(ts, predsK, []*plan.Node{mk("R#1", 50)})
		ov := newOverlay(base)
		ov.Obs = sink
		ov.Insert(ts, predsK, []*plan.Node{mk("R#2", 90), mk("R#3", 5)}) // R#2 rejected by the base's R#1
		base.Absorb(ov)                                                  // R#3 evicts R#1 on replay
		got := tally(base)
		if sink == nil {
			if len(got) != 0 {
				t.Errorf("nil sink kept a prune tally: %v", got)
			}
			continue
		}
		want := map[[2]string]int64{{"R#2", "R#1"}: 1, {"R#1", "R#3"}: 1}
		if !reflect.DeepEqual(got, want) || base.Pruned != 2 {
			t.Errorf("tracing=%v: prune tally %v (Pruned %d), want %v", sink.Tracing(), got, base.Pruned, want)
		}
		events := 0
		for _, e := range sink.Events() {
			if e.Name == obs.EvPlanPrune {
				events++
			}
		}
		if wantEvents := map[bool]int{true: 2, false: 0}[sink.Tracing()]; events != wantEvents || (!sink.Tracing() && sink.Len() != 0) {
			t.Errorf("tracing=%v: %d prune events, Len %d", sink.Tracing(), events, sink.Len())
		}
	}
}

// TestOverlayIsolation pins the overlay contract the parallel enumeration
// relies on: reads fall through to the frozen base, writes stay local, base
// plans can reject (but never be evicted by) overlay offers, and Absorb
// replays the deferred decisions into the base.
func TestOverlayIsolation(t *testing.T) {
	base := NewPlanTable()
	ts := deptSet()
	cheap := &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorHeap, Table: "DEPT",
		Props: &plan.Props{Cost: plan.Cost{Total: 5}}}
	base.Insert(ts, predsP, []*plan.Node{cheap})

	ov := newOverlay(base)
	// Reads fall through.
	if got := plansOf(ov.Lookup(ts, predsP)); len(got) != 1 || got[0] != cheap {
		t.Fatalf("overlay lookup = %v", got)
	}
	// A dominated offer is rejected by the base plan without touching base.
	dominated := &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorBTreeStore, Table: "DEPT",
		Props: &plan.Props{Cost: plan.Cost{Total: 50}}}
	ov.Insert(ts, predsP, []*plan.Node{dominated})
	if out := plansOf(ov.Lookup(ts, predsP)); len(out) != 1 || out[0] != cheap {
		t.Fatalf("combined view after dominated offer = %v", out)
	}
	if ov.Pruned != 1 || base.Pruned != 0 {
		t.Fatalf("pruned: overlay %d base %d", ov.Pruned, base.Pruned)
	}
	// A dominating offer is retained locally; the dominated base plan
	// survives until Absorb (the base is frozen while tasks run).
	winner := &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorHeap, Table: "DEPT",
		Props: &plan.Props{Cost: plan.Cost{Total: 1}}}
	ov.Insert(ts, predsP, []*plan.Node{winner})
	if out := plansOf(ov.Lookup(ts, predsP)); len(out) != 2 || out[0] != cheap || out[1] != winner {
		t.Fatalf("combined view after dominating offer = %v (base plans first)", out)
	}
	if got := plansOf(base.Lookup(ts, predsP)); len(got) != 1 || got[0] != cheap {
		t.Fatalf("base mutated while overlay live: %v", got)
	}
	// Absorb replays the overlay's writes: the winner evicts the base plan.
	base.Absorb(ov)
	if got := plansOf(base.Lookup(ts, predsP)); len(got) != 1 || got[0] != winner {
		t.Fatalf("base after absorb = %v", got)
	}
	// Counters fold: overlay offers (2, one rejected) plus the replayed
	// insert (1 offer, evicting cheap) on top of the base's original one.
	if base.Inserted != 1+2+1 || base.Pruned != 1+1 {
		t.Fatalf("counters after absorb: inserted %d pruned %d", base.Inserted, base.Pruned)
	}
	if base.Size() != 1 {
		t.Fatalf("base size = %d", base.Size())
	}
}

// TestOverlayPruneDisabled pins the ablation path: with pruning off, an
// overlay still dedupes identical plans against the frozen base by key.
func TestOverlayPruneDisabled(t *testing.T) {
	base := NewPlanTable()
	base.PruneDisabled = true
	ts := deptSet()
	a := &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorHeap, Table: "DEPT",
		Props: &plan.Props{Cost: plan.Cost{Total: 5}}}
	base.Insert(ts, predsP, []*plan.Node{a})

	ov := newOverlay(base)
	if !ov.PruneDisabled {
		t.Fatal("overlay must inherit PruneDisabled")
	}
	dup := &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorHeap, Table: "DEPT",
		Props: &plan.Props{Cost: plan.Cost{Total: 5}}}
	worse := &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorBTreeStore, Table: "DEPT",
		Props: &plan.Props{Cost: plan.Cost{Total: 50}}}
	ov.Insert(ts, predsP, []*plan.Node{dup, worse})
	if out := plansOf(ov.Lookup(ts, predsP)); len(out) != 2 {
		t.Fatalf("combined view = %d plans (dup must dedupe, worse must stay)", len(out))
	}
	base.Absorb(ov)
	if got := base.Lookup(ts, predsP).Len(); got != 2 {
		t.Fatalf("base after absorb holds %d plans", got)
	}
}

// TestLookupAcrossEqualUniverses: the table keys on the sets' words, not on
// which Universe value they came from, so a caller that rebuilds the same
// query (the experiments do) still finds the entries.
func TestLookupAcrossEqualUniverses(t *testing.T) {
	gl, _, g := fixture(t)
	if _, err := gl.Glue(&star.GlueRequest{Tables: tables(g, "DEPT")}); err != nil {
		t.Fatal(err)
	}
	_, _, again := fixture(t)
	dept := tables(again, "DEPT")
	if !gl.Table.HasEntry(dept) || len(gl.Table.Entry(dept)) == 0 ||
		gl.Table.Lookup(dept, again.EligibleWithin(dept)).Len() == 0 {
		t.Error("an equal table set of a rebuilt query must find the entry")
	}
}

// plansOf copies a cell's plans out, base half first.
func plansOf(c Cell) []*plan.Node { return c[1].appendTo(c[0].appendTo(nil)) }

// newOverlay returns an empty overlay table over base: it inherits base's
// pruning mode and keeps its own counters, which Absorb folds back.
func newOverlay(base *PlanTable) *PlanTable {
	pt := NewPlanTable()
	pt.Reset(base)
	return pt
}
