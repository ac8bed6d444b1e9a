package outerjoin_test

import (
	"sort"
	"strings"
	"testing"

	"stars"
	"stars/ext/outerjoin"
	"stars/internal/datum"
	"stars/internal/expr"
	"stars/internal/plan"
	"stars/internal/query"
)

func twoTables() *stars.Catalog {
	cat := stars.NewCatalog()
	cat.AddTable(&stars.Table{
		Name: "L",
		Cols: []*stars.Column{
			{Name: "ID", Type: datum.KindInt, NDV: 100},
			{Name: "K", Type: datum.KindInt, NDV: 10},
		},
		Card: 100,
	})
	cat.AddTable(&stars.Table{
		Name: "R",
		Cols: []*stars.Column{
			{Name: "J", Type: datum.KindInt, NDV: 10},
			{Name: "V", Type: datum.KindInt, NDV: 100},
		},
		Card: 100,
	})
	if err := cat.Validate(); err != nil {
		panic(err)
	}
	return cat
}

func outerQuery() *query.Graph {
	g := query.MustNew(
		[]query.Quantifier{{Name: "L", Table: "L"}, {Name: "R", Table: "R"}},
		&expr.Cmp{Op: expr.EQ, L: expr.C("L", "K"), R: expr.C("R", "J")},
	)
	g.Select = []expr.ColID{
		{Table: "L", Col: "ID"}, {Table: "L", Col: "K"}, {Table: "R", Col: "V"},
	}
	return g
}

func TestOuterJoinPlansWithoutPermutation(t *testing.T) {
	cat, g := twoTables(), outerQuery()
	res, err := outerjoin.Optimize(cat, g, stars.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain(res.Best)
	if !strings.Contains(out, "OUTERJOIN") {
		t.Fatalf("plan:\n%s", out)
	}
	// The preserved side must be the outer input: L's scan first.
	if res.Best.Outer() == nil || !res.Best.Outer().Props.Tables().Contains("L") {
		t.Fatalf("L must be the preserved (outer) input:\n%s", out)
	}
	// No permutation alternative exists: every retained OUTERJOIN plan has
	// L as the outer.
	for _, p := range res.Table.Entry(g.TableSet()) {
		if p.Op == outerjoin.OpOuter && !p.Outer().Props.Tables().Contains("L") {
			t.Fatal("outer join permuted — it must not commute")
		}
	}
}

func TestOuterJoinExecutesWithPadding(t *testing.T) {
	cat := twoTables()
	cluster := stars.NewCluster()
	st := cluster.Store("")
	l := st.CreateTable("L", []string{"ID", "K"}, 16)
	r := st.CreateTable("R", []string{"J", "V"}, 16)
	// L: ids 1..4 with K = 1,1,2,9; R: J = 1 (twice), 2. K=9 is unmatched.
	rows := [][2]int64{{1, 1}, {2, 1}, {3, 2}, {4, 9}}
	for _, x := range rows {
		l.Heap.Insert(datum.Row{datum.NewInt(x[0]), datum.NewInt(x[1])}, nil)
	}
	rrows := [][2]int64{{1, 100}, {1, 101}, {2, 200}}
	for _, x := range rrows {
		r.Heap.Insert(datum.Row{datum.NewInt(x[0]), datum.NewInt(x[1])}, nil)
	}

	g := outerQuery()
	res, err := outerjoin.Optimize(cat, g, stars.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt := stars.NewRuntime(cluster, cat)
	outerjoin.Register(rt)
	er, err := rt.Run(res.Best)
	if err != nil {
		t.Fatalf("execute:\n%s\nerror: %v", plan.Explain(res.Best), err)
	}
	var got []string
	for _, row := range stars.Project(er, g.SelectCols(cat)) {
		got = append(got, strings.Join(row, "|"))
	}
	sort.Strings(got)
	want := []string{
		"1|1|100", "1|1|101",
		"2|1|100", "2|1|101",
		"3|2|200",
		"4|9|NULL", // the padded, unmatched outer row
	}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("got %v\nwant %v", got, want)
	}
}

func TestOuterJoinCardEstimateCoversPadding(t *testing.T) {
	// A join with 0.01-per-probe matches: nearly every outer row pads, so
	// the estimate must stay near the outer cardinality rather than
	// collapsing toward zero.
	cat := twoTables()
	cat.Table("R").Card = 10
	cat.Table("R").Column("J").NDV = 1000
	cat.Table("L").Column("K").NDV = 1000
	res, err := outerjoin.Optimize(cat, outerQuery(), stars.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Props.Card < 90 {
		t.Fatalf("card = %v; padded rows forgotten", res.Best.Props.Card)
	}
}

func TestOptimizeRejectsNonBinary(t *testing.T) {
	cat := twoTables()
	g := outerQuery()
	g.Quants = g.Quants[:1]
	if _, err := outerjoin.Optimize(cat, g, stars.Options{}); err == nil {
		t.Fatal("one quantifier must be rejected")
	}
}
