package opt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/expr"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/workload"
)

// nameResolvedWidth is a row width summed the way pricing did before widths
// were bound: each column's quantifier resolved to its table by name through
// the query, the table through the catalog, the column by a name scan.
func nameResolvedWidth(cat *catalog.Catalog, g *query.Graph, cols []expr.ColID) float64 {
	w := 0.0
	for _, c := range cols {
		if c.Col == plan.TIDCol {
			w += 8
			continue
		}
		name := c.Table
		if q := g.Quant(c.Table); q != nil {
			name = q.Table
		}
		if t := cat.Table(name); t != nil {
			if col := t.Column(c.Col); col != nil {
				w += float64(col.AvgWidth())
				continue
			}
		}
		w += 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// checkBoundNumbers asserts, bit for bit, that what res's pricing read from
// its binding is what the name-resolved computation gives: the width of every
// Rel the optimization interned, in every workspace; the selectivity of every
// conjunct; SetSelectivity of random conjunct subsets against the one-by-one
// product; and the widths of the detached best plan.
func checkBoundNumbers(t *testing.T, label string, cat *catalog.Catalog, g *query.Graph, res *Result) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	rels := 0
	for _, ws := range res.spaces {
		ws.arena.EachRel(func(r *plan.Rel) {
			rels++
			if want := nameResolvedWidth(cat, g, r.Cols.List(nil).IDs()); !same(r.Width, want) {
				t.Errorf("%s: Rel %v has width %v, the name-resolved sum is %v", label, r.Cols, r.Width, want)
			}
		})
	}
	if rels == 0 {
		t.Fatalf("%s: no interned Rel found in the workspaces", label)
	}

	bound := res.Engine.Cost
	ref := cost.NewEnv(cat, cost.DefaultWeights)
	ref.Bind(g)
	u := g.Universe()
	n := u.Preds().Len()
	for i := 0; i < n; i++ {
		p := u.Conjunct(i)
		if got, want := bound.SetSelectivity(u.PredSet(p)), ref.Selectivity(p); !same(got, want) {
			t.Errorf("%s: conjunct %s bound at selectivity %v, Selectivity gives %v", label, p, got, want)
		}
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for k := 0; k < 64; k++ {
		var members []expr.Expr
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				members = append(members, u.Conjunct(i))
			}
		}
		ps := u.PredSet(members...)
		want := 1.0
		ps.ForEach(func(p expr.Expr, _ string) { want *= ref.Selectivity(p) })
		if got := bound.SetSelectivity(ps); !same(got, want) {
			t.Errorf("%s: SetSelectivity(%s) = %v, the product one by one is %v", label, ps, got, want)
		}
	}

	var walk func(a, b *plan.Node)
	walk = func(a, b *plan.Node) {
		if !same(a.Props.Rel.Width, b.Props.Rel.Width) {
			t.Errorf("%s: detached %s has width %v, the original %v", label, b.Op, b.Props.Rel.Width, a.Props.Rel.Width)
		}
		for i := range a.Inputs {
			walk(a.Inputs[i], b.Inputs[i])
		}
	}
	walk(res.Best, plan.Detach(res.Best))
}

// TestBoundNumbersMatchNameResolution: the numbers pricing binds once per
// query — each interned Rel's row width, each conjunct's selectivity — are
// bit-identical to resolving names per operator, over the workload corpus and
// chain, star and clique points, serially and rank-parallel, on workspaces
// never used before and on workspaces another query has just filled.
func TestBoundNumbersMatchNameResolution(t *testing.T) {
	type point struct {
		name string
		cat  *catalog.Catalog
		g    func() *query.Graph
	}
	var points []point
	for _, e := range workload.Corpus() {
		points = append(points, point{e.Name, e.Cat, func() *query.Graph { return e.Query }})
	}
	points = append(points,
		point{"chain6", workload.ChainCatalog(6, chainCards...), func() *query.Graph { return workload.ChainQuery(6) }},
		point{"star5", workload.StarCatalog(5, 100000, 500), func() *query.Graph { return workload.StarQuery(5) }},
		point{"clique4", workload.ChainCatalog(4, chainCards...), func() *query.Graph { return cliqueQuery(4) }},
	)
	dirtyCat := workload.StarCatalog(4, 100000, 1000)
	dirty := func() *query.Graph { return workload.StarQuery(4) }
	for _, par := range []int{1, 2} {
		for _, pt := range points {
			for _, state := range []string{"fresh", "dirtied"} {
				spares.Lock()
				spares.list = nil // the next checkouts build new workspaces
				spares.Unlock()
				if state == "dirtied" {
					// pt's own run must not be what the workspaces hold.
					res, _ := optimizeAt(t, dirtyCat, dirty, Options{}, par)
					res.Release()
				}
				g := pt.g()
				res, _ := optimizeAt(t, pt.cat, func() *query.Graph { return g }, Options{}, par)
				checkBoundNumbers(t, fmt.Sprintf("%s/par%d/%s", pt.name, par, state), pt.cat, g, res)
				res.Release()
			}
		}
	}
}

// TestBindingIsPerQuery: the binding is made per optimization, not cached —
// a column's NDV changed in the catalog between two optimizations on one
// Optimizer (the flight-recorder scenario) is seen by the second, which plans
// exactly as a new Optimizer on the changed catalog does.
func TestBindingIsPerQuery(t *testing.T) {
	cat := workload.EmpDept()
	g := workload.Figure1Query()
	o := New(cat, Options{Parallelism: 1})
	optimize := func(o *Optimizer) (float64, float64, string) {
		res, err := o.Optimize(g)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Release()
		return res.Best.Props.Card, res.Best.Props.Cost.Total, res.Best.Fingerprint()
	}
	card0, cost0, _ := optimize(o)
	cat.Table("DEPT").Column("MGR").NDV = 1 // MGR = 'Haas' now keeps every department
	card1, cost1, fp1 := optimize(o)
	if card1 == card0 {
		t.Fatalf("after the NDV change the best plan still estimates %v rows", card1)
	}
	if got, want := card1, card0*90; math.Abs(got-want) > 1e-9*want {
		t.Errorf("best plan estimates %v rows, want %v (MGR's selectivity went from 1/90 to 1)", got, want)
	}
	fcard, fcost, ffp := optimize(New(cat, Options{Parallelism: 1}))
	if card1 != fcard || cost1 != fcost || fp1 != ffp {
		t.Errorf("the reused Optimizer plans %s at %v (%v rows), a new one %s at %v (%v rows)", fp1, cost1, card1, ffp, fcost, fcard)
	}
	if cost1 == cost0 {
		t.Errorf("the best cost did not move with the statistics (%v)", cost1)
	}
}
