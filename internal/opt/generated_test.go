package opt

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/sqlparse"
	"stars/internal/star"
	"stars/internal/workload"
)

// inclusiveSitedJoin is the SitedJoin the built-in repertoire carried before
// it became a bare JMeth reference: an inclusive alternative that also joins a
// composite or must-move inner as a temp. TestGeneratedBestCosts runs it beside
// the built-in text, so the golden shows every point where it still finds a
// cheaper plan.
const inclusiveSitedJoin = `
star SitedJoin(T1, T2, P) = [
  | JMeth(T1, T2[temp], P) if isComposite(T2) or siteDiffers(T2)
  | JMeth(T1, T2, P)
]
`

// inclusiveRules is the built-in repertoire with SitedJoin replaced by
// inclusiveSitedJoin.
func inclusiveRules(t testing.TB) *star.RuleSet {
	t.Helper()
	alt, err := star.ParseRules(inclusiveSitedJoin)
	if err != nil {
		t.Fatal(err)
	}
	rules := star.DefaultRules()
	rules.Add(alt.Get("SitedJoin"))
	return rules
}

// genPoint is one generated optimization: a query in SQL over its catalog.
type genPoint struct {
	name string
	cat  *catalog.Catalog
	sql  string
}

func (p genPoint) graph(t testing.TB) *query.Graph {
	t.Helper()
	g, err := sqlparse.Parse(p.sql, p.cat)
	if err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	return g
}

// serveWideCatalog is the merged catalog of the serving benchmark, built from
// the same workload pieces: the two-site EMP/DEPT, the chain tables T1..T14
// with chainCards cycled, and the star tables F, D1..D8.
func serveWideCatalog() *catalog.Catalog {
	cat := workload.DistributedEmpDept()
	for _, t := range workload.ChainCatalog(14, chainCards...).Tables {
		cat.AddTable(t)
	}
	for _, t := range workload.StarCatalog(8, 100000, 500).Tables {
		cat.AddTable(t)
	}
	return cat
}

// chainSQL is the chain T<lo>..T<lo+n-1> with one more conjunct, as the
// serving benchmark writes its ORDER BY variants: the first and last ID
// selected, ordered on the first.
func chainSQL(lo, n int, pred string) string {
	var from, where []string
	for i := lo; i < lo+n; i++ {
		from = append(from, fmt.Sprintf("T%d", i))
		if i > lo {
			where = append(where, fmt.Sprintf("T%d.K = T%d.J", i-1, i))
		}
	}
	return fmt.Sprintf("SELECT T%d.ID, T%d.ID FROM %s WHERE %s AND %s ORDER BY T%d.ID", lo, lo+n-1,
		strings.Join(from, ", "), strings.Join(where, " AND "), pred, lo)
}

// generatedPoints is a seeded set of chain, star and clique joins of up to
// eight tables with random per-table cardinalities, a third of them spread
// over three sites, some with a local selection or an ORDER BY, plus the
// serving benchmark's chain templates whose winning plans once held a temp
// inner.
func generatedPoints() []genPoint {
	rng := rand.New(rand.NewSource(1))
	card := func() int64 { return int64(math.Pow(10, 1+4.3*rng.Float64())) }
	var pts []genPoint
	for i := 0; i < 102; i++ {
		var cat *catalog.Catalog
		var sql, shape string
		var tables []string
		switch i % 3 {
		case 0, 1: // chain (3..8 tables) or clique (3..5)
			n, kind := 3+rng.Intn(6), "chain"
			if i%3 == 1 {
				n, kind = 3+rng.Intn(3), "clique"
			}
			cards := make([]int64, n)
			for j := range cards {
				cards[j] = card()
			}
			cat = workload.ChainCatalog(n, cards...)
			var from, where []string
			for a := 1; a <= n; a++ {
				from = append(from, fmt.Sprintf("T%d", a))
				for b := 1; b < a; b++ {
					if i%3 == 1 || b == a-1 {
						where = append(where, fmt.Sprintf("T%d.K = T%d.J", b, a))
					}
				}
			}
			if rng.Intn(2) == 0 {
				where = append(where, fmt.Sprintf("T%d.J = %d", 1+rng.Intn(n), rng.Intn(40)))
			}
			shape, tables = fmt.Sprintf("%s%d", kind, n), from
			sql = fmt.Sprintf("SELECT T1.ID, T%d.ID FROM %s WHERE %s", n, strings.Join(from, ", "), strings.Join(where, " AND "))
			if rng.Intn(4) == 0 {
				sql += " ORDER BY T1.ID"
			}
		case 2: // star (2..5 dimensions)
			k := 2 + rng.Intn(4)
			cat = workload.StarCatalog(k, card()*10, 500)
			sel, from, where := []string{"F.ID"}, []string{"F"}, []string(nil)
			for d := 1; d <= k; d++ {
				c := card()
				dim := cat.Table(fmt.Sprintf("D%d", d))
				dim.Card, dim.Cols[0].NDV, dim.Cols[1].NDV = c, c, max(c/2, 1)
				cat.Table("F").Cols[1+d].NDV = c
				sel = append(sel, fmt.Sprintf("D%d.ATTR", d))
				from = append(from, fmt.Sprintf("D%d", d))
				where = append(where, fmt.Sprintf("F.FK%d = D%d.ID", d, d))
			}
			if rng.Intn(2) == 0 {
				where = append(where, fmt.Sprintf("D%d.ID < %d", 1+rng.Intn(k), rng.Intn(100)))
			}
			shape, tables = fmt.Sprintf("star%d", k), from
			sql = fmt.Sprintf("SELECT %s FROM %s WHERE %s", strings.Join(sel, ", "), strings.Join(from, ", "), strings.Join(where, " AND "))
			if rng.Intn(4) == 0 {
				sql += " ORDER BY F.ID"
			}
		}
		if i%3 == i/3%3 { // spread a third of the points over three sites
			cat.Sites = []string{"S1", "S2", "S3"}
			cat.QuerySite = cat.Sites[rng.Intn(3)]
			for _, tn := range tables {
				cat.Table(tn).Site = cat.Sites[rng.Intn(3)]
			}
			shape += "@3sites"
		}
		if err := cat.Validate(); err != nil {
			panic(err)
		}
		pts = append(pts, genPoint{fmt.Sprintf("g%03d-%s", i, shape), cat, sql})
	}
	wide := serveWideCatalog()
	for _, w := range []struct {
		lo, n int
		pred  string
	}{
		{5, 8, "T8.J = 21"},
		{6, 7, "T8.J = 15"},
		{3, 7, "T8.J = 32"},
		{6, 7, "T7.PAD = 'v223'"},
	} {
		pts = append(pts, genPoint{fmt.Sprintf("serve_wide-chain%d-T%d-%s", w.n, w.lo, strings.Fields(w.pred)[0]),
			wide, chainSQL(w.lo, w.n, w.pred)})
	}
	return pts
}

// TestGeneratedBestCosts holds the best cost of every generated point to
// testdata/golden/generated_best_costs.txt, serially, and to the same cost at
// Parallelism 2. A line that also reads inclusive=<cost> is a point where the
// built-in repertoire with inclusiveSitedJoin in place of its SitedJoin finds
// another best cost: that is recorded, not gated.
func TestGeneratedBestCosts(t *testing.T) {
	pts := generatedPoints()
	if len(pts) < 100 {
		t.Fatalf("%d generated points, want at least 100", len(pts))
	}
	incl := inclusiveRules(t)
	best := func(p genPoint, opts Options) string {
		res, err := New(p.cat, opts).Optimize(p.graph(t))
		if err != nil {
			t.Fatalf("%s: %v\n%s", p.name, err, p.sql)
		}
		defer res.Release()
		return fmt.Sprintf("%.6f", res.Best.Props.Cost.Total)
	}
	var b strings.Builder
	for _, p := range pts {
		cost := best(p, Options{Parallelism: 1})
		if par2 := best(p, Options{Parallelism: 2}); par2 != cost {
			t.Errorf("%s: best cost %s at Parallelism 2, %s serially", p.name, par2, cost)
		}
		fmt.Fprintf(&b, "%s %s", p.name, cost)
		if ic := best(p, Options{Parallelism: 1, Rules: incl}); ic != cost {
			fmt.Fprintf(&b, " inclusive=%s", ic)
			t.Logf("%s: inclusive SitedJoin finds %s, the built-in %s\n%s", p.name, ic, cost, p.sql)
		}
		b.WriteString("\n")
	}
	checkGolden(t, "generated_best_costs.txt", b.String(), nil)
}

// TestDominanceIsSound: a plan the table prunes must never have been the
// cheaper input to any parent. With pruning off every plan of every cell is
// kept; over the generated points, for each pair of plans in one cell where
// plan.Dominates(a, b), a SORT and a STORE priced over a must cost no more
// than over b. Both read the row width, which a GET's TID column widens.
func TestDominanceIsSound(t *testing.T) {
	pairs := 0
	for _, p := range generatedPoints() {
		g := p.graph(t)
		res, err := New(p.cat, Options{Parallelism: 1, DisablePruning: true}).Optimize(g)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		env := cost.NewEnv(p.cat, cost.DefaultWeights)
		env.Bind(g)
		sortCols := env.Vocab().List(g.Select[0])
		// above is what a parent over n costs: a SORT and a STORE.
		type above struct {
			n           *plan.Node
			sort, store float64
		}
		cells := map[string][]above{}
		res.Table.ForEach(func(tk, pk string, n *plan.Node) {
			s := &plan.Node{Op: plan.OpSort, SortCols: sortCols, Inputs: []*plan.Node{n}}
			st := &plan.Node{Op: plan.OpStore, Inputs: []*plan.Node{n}}
			if err := env.Price(s); err != nil {
				t.Fatal(err)
			}
			if err := env.Price(st); err != nil {
				t.Fatal(err)
			}
			cells[tk+" "+pk] = append(cells[tk+" "+pk], above{n, s.Props.Cost.Total, st.Props.Cost.Total})
		})
		unsound := 0
		for key, ps := range cells {
			for _, a := range ps {
				for _, b := range ps {
					if a.n == b.n || !plan.Dominates(a.n.Props, b.n.Props) {
						continue
					}
					pairs++
					if a.sort <= b.sort*(1+1e-12) && a.store <= b.store*(1+1e-12) {
						continue
					}
					if unsound++; unsound == 1 {
						t.Errorf("%s, cell %s: %s dominates %s, but SORT over them costs %.4f vs %.4f, STORE %.4f vs %.4f\n%s\n%s",
							p.name, key, a.n.Fingerprint(), b.n.Fingerprint(), a.sort, b.sort, a.store, b.store,
							plan.Explain(a.n), plan.Explain(b.n))
					}
				}
			}
		}
		if unsound > 1 {
			t.Errorf("%s: %d unsound dominations in all", p.name, unsound)
		}
		res.Release()
	}
	if pairs == 0 {
		t.Fatal("no plan dominates another")
	}
}
