package opt

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/datum"
	"stars/internal/expr"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/star"
	"stars/internal/workload"
)

// TestRetainedPlansRederive: every plan the optimizer retains carries the
// properties its tree derives from scratch. Each retained plan — and the best
// plan — is rebuilt as fresh node literals (no Props, no cached identity,
// shared subplans still shared), priced bottom-up in a new pricing
// environment bound to the query, and compared node by node with what the
// optimizer built: identity, rendered names, the relational part (tables,
// columns, predicates, width) and every physical and estimated property. The
// points cover the workload corpus, chain and star queries, and a SELECT *
// over a table of 70 columns (so the column vocabulary spills past one word),
// under the built-in repertoire and the dynamic-index one (so temps and
// dynamic indexes are retained), serially and rank-parallel, on new
// workspaces and on workspaces another query has just filled.
func TestRetainedPlansRederive(t *testing.T) {
	type point struct {
		name string
		cat  *catalog.Catalog
		g    *query.Graph
	}
	var points []point
	for _, e := range workload.Corpus() {
		points = append(points, point{e.Name, e.Cat, e.Query})
	}
	for n := 3; n <= 6; n++ {
		points = append(points,
			point{fmt.Sprintf("chain%d", n), workload.ChainCatalog(n), workload.ChainQuery(n)},
			point{fmt.Sprintf("star%d", n), workload.StarCatalog(n, 100000, 1000), workload.StarQuery(n)})
	}
	points = append(points, point{"wide3", wideCatalog(), wideQuery()})
	dirtyCat := workload.StarCatalog(4, 100000, 1000)
	checked := 0
	for _, rep := range []struct {
		name  string
		rules *star.RuleSet
	}{{"builtin", nil}, {"dynamic-index", DynamicIndexRules()}} {
		for _, par := range []int{1, 2} {
			for _, state := range []string{"fresh", "dirtied"} {
				for _, pt := range points {
					spares.Lock()
					spares.list = nil // the next checkouts build new workspaces
					spares.Unlock()
					opts := Options{Parallelism: par, Rules: rep.rules}
					if state == "dirtied" {
						// pt's own run must not be what the workspaces hold.
						dirty, err := New(dirtyCat, opts).Optimize(workload.StarQuery(4))
						if err != nil {
							t.Fatal(err)
						}
						dirty.Release()
					}
					res, err := New(pt.cat, opts).Optimize(pt.g)
					if err != nil {
						t.Fatalf("%s/%s: %v", pt.name, rep.name, err)
					}
					where := fmt.Sprintf("%s/%s/par%d/%s", pt.name, rep.name, par, state)
					env := cost.NewEnv(pt.cat, cost.DefaultWeights)
					env.Bind(pt.g)
					fresh := map[*plan.Node]*plan.Node{}
					compared := map[*plan.Node]bool{}
					verify := func(p *plan.Node) {
						q := rebuild(p, fresh)
						if err := env.PriceTree(q); err != nil {
							t.Fatalf("%s: re-pricing %s: %v\n%s", where, p.Fingerprint(), err, plan.Explain(p))
						}
						compareDerived(t, where, p, q, compared)
						checked++
					}
					res.Table.ForEachPlan(verify)
					verify(res.Best)
					res.Release()
					if t.Failed() {
						return
					}
				}
			}
		}
	}
	t.Logf("%d retained plans re-derived", checked)
}

// rebuild copies p's tree as new node literals with no properties and no
// cached identity, mapping each node once so shared subplans stay shared.
func rebuild(n *plan.Node, fresh map[*plan.Node]*plan.Node) *plan.Node {
	if m, ok := fresh[n]; ok {
		return m
	}
	var inputs []*plan.Node
	for _, in := range n.Inputs {
		inputs = append(inputs, rebuild(in, fresh))
	}
	m := &plan.Node{
		Op: n.Op, Flavor: n.Flavor,
		Table: n.Table, Quantifier: n.Quantifier, Path: n.Path,
		Cols: n.Cols, Preds: n.Preds, Residual: n.Residual, SortCols: n.SortCols,
		Site: n.Site, Inputs: inputs, Origin: n.Origin,
	}
	fresh[n] = m
	return m
}

// compareDerived walks the optimizer's tree got and its re-derived copy want
// in step and reports every property on which a node differs. Nodes in
// compared were checked with an earlier plan and are not walked again.
func compareDerived(t *testing.T, where string, got, want *plan.Node, compared map[*plan.Node]bool) {
	t.Helper()
	var diffs []string
	var walk func(g, w *plan.Node)
	walk = func(g, w *plan.Node) {
		if compared[g] {
			return
		}
		compared[g] = true
		gp, wp := g.Props, w.Props
		check := func(what string, a, b any) {
			if fmt.Sprint(a) != fmt.Sprint(b) {
				diffs = append(diffs, fmt.Sprintf("%s %s: optimizer %v, re-derived %v", g.Op, what, a, b))
			}
		}
		check("ID", g.Fingerprint(), w.Fingerprint())
		check("table name", g.TableName(), w.TableName())
		check("path name", g.PathName(), w.PathName())
		check("TABLES", gp.Tables().Key(), wp.Tables().Key())
		check("COLS", gp.Cols(), wp.Cols())
		check("PREDS", gp.Preds().Key(), wp.Preds().Key())
		if gp.Rel.Width != wp.Rel.Width {
			check("width", gp.Rel.Width, wp.Rel.Width)
		}
		check("ORDER", gp.Order, wp.Order)
		check("SITE", gp.Site, wp.Site)
		check("TEMP", gp.Temp, wp.Temp)
		check("PATHS", renderPaths(gp.Paths), renderPaths(wp.Paths))
		if gp.Card != wp.Card {
			check("CARD", gp.Card, wp.Card)
		}
		if gp.Cost != wp.Cost {
			check("COST", gp.Cost, wp.Cost)
		}
		if gp.Rescan != wp.Rescan {
			check("RESCAN", gp.Rescan, wp.Rescan)
		}
		if !maps.Equal(gp.Extra, wp.Extra) {
			check("Extra", gp.Extra, wp.Extra)
		}
		for i := range g.Inputs {
			walk(g.Inputs[i], w.Inputs[i])
		}
	}
	walk(got, want)
	if len(diffs) > 0 {
		t.Errorf("%s: plan %s does not re-derive (%d differences):\n%s\n%s",
			where, got.Fingerprint(), len(diffs), strings.Join(slices.Compact(diffs), "\n"), plan.ExplainVerbose(got))
	}
}

// renderPaths renders a PATHS list with each dynamic index's key width.
func renderPaths(paths []plan.PathInfo) string {
	var b strings.Builder
	for _, p := range paths {
		fmt.Fprintf(&b, "%s/%v/%v ", p.String(), p.Clustered, p.KeyWidth)
	}
	return b.String()
}

// wideCatalog holds W, a table of 70 columns with indexes on two column lists,
// and the dimensions D1 and D2 it references.
func wideCatalog() *catalog.Catalog {
	cat := catalog.New()
	w := &catalog.Table{Name: "W", Card: 20000, Paths: []*catalog.AccessPath{
		{Name: "W_A01", Table: "W", Cols: []string{"A01"}},
		{Name: "W_A03_A04", Table: "W", Cols: []string{"A03", "A04"}},
	}}
	for i := 0; i < 70; i++ {
		c := &catalog.Column{Name: fmt.Sprintf("A%02d", i), Type: datum.KindInt, NDV: int64(10 + 50*i)}
		if i%7 == 6 {
			c.Type, c.Width = datum.KindString, 24
		}
		w.Cols = append(w.Cols, c)
	}
	cat.AddTable(w)
	for _, d := range []string{"D1", "D2"} {
		cat.AddTable(&catalog.Table{Name: d, Card: 300, Cols: []*catalog.Column{
			{Name: "ID", Type: datum.KindInt, NDV: 300},
			{Name: "NAME", Type: datum.KindString, NDV: 300, Width: 20},
		}})
	}
	if err := cat.Validate(); err != nil {
		panic(err)
	}
	return cat
}

// wideQuery is SELECT * FROM W, D1, D2 WHERE W.A01 = D1.ID AND
// W.A02 = D2.ID AND W.A03 = 5.
func wideQuery() *query.Graph {
	return query.MustNew(
		[]query.Quantifier{{Name: "W", Table: "W"}, {Name: "D1", Table: "D1"}, {Name: "D2", Table: "D2"}},
		&expr.Cmp{Op: expr.EQ, L: expr.C("W", "A01"), R: expr.C("D1", "ID")},
		&expr.Cmp{Op: expr.EQ, L: expr.C("W", "A02"), R: expr.C("D2", "ID")},
		&expr.Cmp{Op: expr.EQ, L: expr.C("W", "A03"), R: &expr.Const{Val: datum.NewInt(5)}},
	)
}
