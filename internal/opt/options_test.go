package opt

import (
	"strings"
	"testing"

	"stars/internal/datum"
	"stars/internal/expr"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/star"
	"stars/internal/workload"
)

func TestSingleTableQuery(t *testing.T) {
	cat := workload.EmpDept()
	g := query.MustNew([]query.Quantifier{{Name: "DEPT", Table: "DEPT"}})
	g.Select = []expr.ColID{{Table: "DEPT", Col: "MGR"}}
	res, err := New(cat, Options{}).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Op != plan.OpAccess {
		t.Fatalf("single-table best:\n%s", plan.Explain(res.Best))
	}
	if res.Stats.Pairs != 0 {
		t.Error("no join pairs for one table")
	}
}

func TestOrderByAddsRootRequirement(t *testing.T) {
	cat := workload.EmpDept()
	g := workload.Figure1Query()
	g.OrderBy = []expr.ColID{{Table: "EMP", Col: "NAME"}}
	res, err := New(cat, Options{}).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.OrderSatisfies(res.Best.Props.Order, res.Engine.Cost.Vocab().List(g.OrderBy...)) {
		t.Fatalf("ORDER BY unmet:\n%s", plan.Explain(res.Best))
	}
	// An order the data naturally has does not force a SORT; this one must.
	if !strings.Contains(plan.Explain(res.Best), "SORT") {
		t.Fatalf("expected a SORT veneer:\n%s", plan.Explain(res.Best))
	}
}

func TestDistributedRootComesHome(t *testing.T) {
	cat := workload.EmpDept()
	cat.Sites = []string{"HQ", "NY"}
	cat.QuerySite = "HQ"
	cat.Table("EMP").Site = "NY"
	res, err := New(cat, Options{}).Optimize(workload.Figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Props.Site != "HQ" {
		t.Fatalf("result must be delivered at the query site, got %q", res.Best.Props.Site)
	}
}

func TestDisconnectedGraphNeedsCartesian(t *testing.T) {
	cat := workload.ChainCatalog(2, 10, 20)
	g := query.MustNew([]query.Quantifier{{Name: "T1", Table: "T1"}, {Name: "T2", Table: "T2"}}) // no join predicate at all
	g.Select = []expr.ColID{{Table: "T1", Col: "ID"}}
	// Even without the option, the final join admits a Cartesian pair so
	// the query still plans (Section 2.3's fallback).
	res, err := New(cat, Options{}).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Props.Card != 200 {
		t.Errorf("cross product card = %v", res.Best.Props.Card)
	}
}

func TestUnknownQuantifierFails(t *testing.T) {
	cat := workload.EmpDept()
	g := query.MustNew([]query.Quantifier{{Name: "X", Table: "NOPE"}})
	if _, err := New(cat, Options{}).Optimize(g); err == nil {
		t.Fatal("unknown table must fail")
	}
}

func TestBadRulesFailValidation(t *testing.T) {
	rules, err := star.ParseRules(`star AccessRoot(T, C, P) = Bogus(T)`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(workload.EmpDept(), Options{Rules: rules}).Optimize(workload.Figure1Query())
	if err == nil || !strings.Contains(err.Error(), "Bogus") {
		t.Fatalf("err = %v", err)
	}
}

func TestJoinRootOverride(t *testing.T) {
	// A custom root that skips permutation: still correct, just fewer
	// alternatives.
	text := star.DefaultRuleText + `
star OneWayJoin(T1, T2, P) = SitedJoin(T1, T2, P)
`
	rules, err := star.ParseRules(text)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(workload.EmpDept(), Options{Rules: rules, JoinRoot: "OneWayJoin"}).
		Optimize(workload.Figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(workload.EmpDept(), Options{}).Optimize(workload.Figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Props.Cost.Total < full.Best.Props.Cost.Total*0.999 {
		t.Error("a restricted root cannot beat the full repertoire")
	}
}

func TestTraceIsCaptured(t *testing.T) {
	res, err := New(workload.EmpDept(), Options{Trace: true}).Optimize(workload.Figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("trace empty")
	}
	text := star.FormatTrace(res.Trace)
	for _, want := range []string{"JoinRoot", "JMeth", "AccessRoot"} {
		if !strings.Contains(text, want) {
			t.Errorf("trace missing %s", want)
		}
	}
}

func TestStatsArepopulated(t *testing.T) {
	res, err := New(workload.EmpDept(), Options{}).Optimize(workload.Figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Star.RuleRefs == 0 || s.Glue.Calls == 0 || s.Pairs != 1 ||
		s.Subsets != 1 || s.PlansRetained == 0 || s.Elapsed <= 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestEveryPredicateApplied(t *testing.T) {
	// The chosen plan must apply every query predicate exactly where the
	// rules say; none may be dropped.
	for n := 2; n <= 5; n++ {
		cat := workload.ChainCatalog(n, 300, 100, 50, 200, 80)
		g := workload.ChainQuery(n)
		res, err := New(cat, Options{}).Optimize(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range g.Preds.Slice() {
			if !res.Best.Props.Preds().Contains(p) {
				t.Fatalf("n=%d: predicate %s not applied:\n%s", n, p, plan.Explain(res.Best))
			}
		}
	}
}

func TestTIDSortAlternativeWins(t *testing.T) {
	// A large table with an unclustered, unselective index: fetching ten
	// thousand TIDs in random order costs one page each, while SORTing the
	// TIDs first makes the fetches sequential (Section 4's first omitted
	// STAR, included in the built-in repertoire).
	cat := workload.ChainCatalog(1, 500000)
	// Make the indexed column unselective (10k matches) so random fetches
	// dominate the plain index plan.
	cat.Table("T1").Column("J").NDV = 50
	g := query.MustNew([]query.Quantifier{{Name: "T1", Table: "T1"}},
		&expr.Cmp{Op: expr.EQ,
			L: expr.C("T1", "J"), R: &expr.Const{Val: datum.NewInt(3)}})
	g.Select = []expr.ColID{{Table: "T1", Col: "ID"}, {Table: "T1", Col: "PAD"}}
	res, err := New(cat, Options{}).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain(res.Best)
	if !strings.Contains(out, plan.TIDCol) || !strings.Contains(out, "SORT") {
		t.Fatalf("expected the TID-sorted index plan to win:\n%s", out)
	}
}

func TestTooManyQuantifiers(t *testing.T) {
	cat := workload.ChainCatalog(2, 10)
	var quants []query.Quantifier
	for i := 0; i < 31; i++ {
		quants = append(quants, query.Quantifier{Name: string(rune('a' + i)), Table: "T1"})
	}
	_, err := New(cat, Options{}).Optimize(query.MustNew(quants))
	if err == nil || !strings.Contains(err.Error(), "exceeds the enumeration limit") {
		t.Fatalf("31 quantifiers must be rejected by the enumerator, got %v", err)
	}
}
