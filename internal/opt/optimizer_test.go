package opt

import (
	"strings"
	"testing"

	"stars/internal/catalog"
	"stars/internal/datum"
	"stars/internal/expr"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/workload"
)

// figure1Catalog is the paper's Section 2.1 schema: DEPT and EMP with an
// index on EMP.DNO.
func figure1Catalog() *catalog.Catalog {
	cat := catalog.New()
	cat.AddTable(&catalog.Table{
		Name: "DEPT",
		Cols: []*catalog.Column{
			{Name: "DNO", Type: datum.KindInt, NDV: 100},
			{Name: "MGR", Type: datum.KindString, NDV: 90, Width: 12},
			{Name: "BUDGET", Type: datum.KindFloat},
		},
		Card: 100,
	})
	cat.AddTable(&catalog.Table{
		Name: "EMP",
		Cols: []*catalog.Column{
			{Name: "ENO", Type: datum.KindInt, NDV: 10000},
			{Name: "DNO", Type: datum.KindInt, NDV: 100},
			{Name: "NAME", Type: datum.KindString, NDV: 9000, Width: 16},
			{Name: "ADDRESS", Type: datum.KindString, NDV: 9500, Width: 24},
			{Name: "SAL", Type: datum.KindFloat},
		},
		Card: 10000,
		Paths: []*catalog.AccessPath{
			{Name: "EMPDNO", Table: "EMP", Cols: []string{"DNO"}},
		},
	})
	if err := cat.Validate(); err != nil {
		panic(err)
	}
	return cat
}

// figure1Query is DEPT ⋈ EMP on DNO with MGR = 'Haas' on DEPT, projecting
// the columns Figure 1 shows.
func figure1Query() *query.Graph {
	g := query.MustNew(
		[]query.Quantifier{
			{Name: "DEPT", Table: "DEPT"},
			{Name: "EMP", Table: "EMP"},
		},
		&expr.Cmp{Op: expr.EQ, L: expr.C("DEPT", "DNO"), R: expr.C("EMP", "DNO")},
		&expr.Cmp{Op: expr.EQ, L: expr.C("DEPT", "MGR"), R: &expr.Const{Val: datum.NewString("Haas")}},
	)
	g.Select = []expr.ColID{
		{Table: "DEPT", Col: "DNO"}, {Table: "DEPT", Col: "MGR"},
		{Table: "EMP", Col: "NAME"}, {Table: "EMP", Col: "ADDRESS"},
	}
	return g
}

func TestOptimizeFigure1(t *testing.T) {
	o, g := New(figure1Catalog(), Options{}), figure1Query()
	res, err := o.Optimize(g)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if res.Best == nil {
		t.Fatal("no best plan")
	}
	out := plan.Explain(res.Best)
	t.Logf("best plan:\n%s", out)
	t.Logf("stats: %+v", res.Stats)
	if res.Best.Props.Cost.Total <= 0 {
		t.Fatalf("non-positive cost: %v", res.Best.Props.Cost)
	}
	if !res.Best.Props.Tables().Equal(g.TableSet()) {
		t.Fatalf("best plan tables = %v", res.Best.Props.Tables().Slice())
	}
	// The plan must apply both predicates somewhere.
	if res.Best.Props.Preds().Len() != 2 {
		t.Fatalf("best plan applies %d preds, want 2:\n%s", res.Best.Props.Preds().Len(), out)
	}
	if !strings.Contains(out, "JOIN") {
		t.Fatalf("no JOIN in plan:\n%s", out)
	}
}

// TestPinnedEnumerationFixtures pins the chosen plan and the search effort of
// an 8-table chain and an 8-dimension star — subsets visited (including the
// ones with nothing to join, which build no task state), pairs, Glue
// references, veneers and plans retained. A change to the cost model, the
// repertoire or the enumeration that moves any of them must move these
// constants deliberately.
func TestPinnedEnumerationFixtures(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cat         *catalog.Catalog
		g           *query.Graph
		fingerprint string
		subsets     int64
		pairs       int64
		glueCalls   int64
		veneers     int64
		retained    int64
		slow        bool
	}{
		{name: "chain8", cat: workload.ChainCatalog(8, chainCards...), g: workload.ChainQuery(8),
			fingerprint: "ddebc1f51ee39cf2", subsets: 247, pairs: 84, glueCalls: 1345, veneers: 1999, retained: 993},
		{name: "star8", cat: workload.StarCatalog(8, 100000, 500), g: workload.StarQuery(8),
			fingerprint: "9a3a5181ad4c8c69", subsets: 502, pairs: 1024, glueCalls: 16385, veneers: 31424, retained: 25433, slow: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("star8 takes seconds")
			}
			res, err := New(tc.cat, Options{Parallelism: 1}).Optimize(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Best.Fingerprint(); got != tc.fingerprint {
				t.Errorf("best fingerprint %s, want %s", got, tc.fingerprint)
			}
			st := res.Stats
			if st.Subsets != tc.subsets || st.Pairs != tc.pairs || st.Glue.Calls != tc.glueCalls ||
				st.Glue.Veneers != tc.veneers || st.PlansRetained != tc.retained {
				t.Errorf("effort: %d subsets, %d pairs, %d Glue calls, %d veneers, %d plans retained; want %d, %d, %d, %d, %d",
					st.Subsets, st.Pairs, st.Glue.Calls, st.Glue.Veneers, st.PlansRetained,
					tc.subsets, tc.pairs, tc.glueCalls, tc.veneers, tc.retained)
			}
		})
	}
}
