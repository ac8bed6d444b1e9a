package exec_test

import (
	"testing"

	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/datum"
	"stars/internal/exec"
	"stars/internal/expr"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/storage"
)

// miniSetup builds a one-table catalog + cluster with known rows, plus a
// priced scan node factory, for driving operators directly.
func miniSetup(t *testing.T) (*catalog.Catalog, *storage.Cluster, *cost.Env, func(preds ...expr.Expr) *plan.Node) {
	t.Helper()
	cat := catalog.New()
	cat.Sites = []string{"A", "B"}
	cat.AddTable(&catalog.Table{
		Name: "T",
		Cols: []*catalog.Column{
			{Name: "X", Type: datum.KindInt, NDV: 10},
		},
		Card: 10,
	})
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	cluster := storage.NewCluster("A", "B")
	td := cluster.Store("").CreateTable("T", []string{"X"}, 8)
	for i := int64(0); i < 10; i++ {
		td.Heap.Insert(datum.Row{datum.NewInt(i)}, nil)
	}
	env := cost.NewEnv(cat, cost.DefaultWeights)
	g := query.MustNew([]query.Quantifier{{Name: "T", Table: "T"}}, lessThan(3), atLeast(7))
	env.Bind(g)
	u := g.Universe()
	mk := func(preds ...expr.Expr) *plan.Node {
		n := &plan.Node{
			Op: plan.OpAccess, Flavor: plan.FlavorHeap, Table: "T", Quantifier: "T",
			Cols:  env.Vocab().List(expr.ColID{Table: "T", Col: "X"}),
			Preds: u.PredSet(preds...),
		}
		if err := env.PriceTree(n); err != nil {
			t.Fatal(err)
		}
		return n
	}
	return cat, cluster, env, mk
}

func lessThan(v int64) expr.Expr {
	return &expr.Cmp{Op: expr.LT, L: expr.C("T", "X"), R: &expr.Const{Val: datum.NewInt(v)}}
}

func atLeast(v int64) expr.Expr {
	return &expr.Cmp{Op: expr.GE, L: expr.C("T", "X"), R: &expr.Const{Val: datum.NewInt(v)}}
}

func TestUnionOperator(t *testing.T) {
	cat, cluster, env, mk := miniSetup(t)
	u := &plan.Node{Op: plan.OpUnion, Inputs: []*plan.Node{mk(lessThan(3)), mk(atLeast(7))}}
	if err := env.PriceTree(u); err != nil {
		t.Fatal(err)
	}
	er, err := exec.NewRuntime(cluster, cat).Run(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(er.Rows) != 6 { // 0,1,2 and 7,8,9
		t.Fatalf("union rows = %d, want 6", len(er.Rows))
	}
	// UNION ALL keeps duplicates.
	u2 := &plan.Node{Op: plan.OpUnion, Inputs: []*plan.Node{mk(lessThan(3)), mk(lessThan(3))}}
	if err := env.PriceTree(u2); err != nil {
		t.Fatal(err)
	}
	er2, err := exec.NewRuntime(cluster, cat).Run(u2)
	if err != nil {
		t.Fatal(err)
	}
	if len(er2.Rows) != 6 {
		t.Fatalf("union all must keep duplicates: %d", len(er2.Rows))
	}
}

func TestShipAccountingMatchesEstimate(t *testing.T) {
	cat, cluster, env, mk := miniSetup(t)
	ship := &plan.Node{Op: plan.OpShip, Site: "B", Inputs: []*plan.Node{mk()}}
	if err := env.PriceTree(ship); err != nil {
		t.Fatal(err)
	}
	er, err := exec.NewRuntime(cluster, cat).Run(ship)
	if err != nil {
		t.Fatal(err)
	}
	if er.Stats.Messages != int64(ship.Props.Cost.Msg) {
		t.Errorf("messages: actual %d vs estimated %.0f", er.Stats.Messages, ship.Props.Cost.Msg)
	}
	if er.Stats.BytesShipped == 0 {
		t.Error("bytes must be counted")
	}
	// Estimated bytes use catalog widths; actual uses datum widths (ints:
	// 8B each way) — they agree here.
	if float64(er.Stats.BytesShipped) != ship.Props.Cost.Bytes {
		t.Errorf("bytes: actual %d vs estimated %.0f", er.Stats.BytesShipped, ship.Props.Cost.Bytes)
	}
}

func TestIndexAndPricingErrors(t *testing.T) {
	cat, _, env, mk := miniSetup(t)
	_ = cat
	a := mk(lessThan(3))
	shipped := &plan.Node{Op: plan.OpShip, Site: "B", Inputs: []*plan.Node{mk(lessThan(3))}}
	if err := env.PriceTree(shipped); err != nil {
		t.Fatal(err)
	}
	cross := &plan.Node{Op: plan.OpIndexAnd, Inputs: []*plan.Node{a, shipped}}
	if err := env.Price(cross); err == nil {
		t.Error("IXAND across sites must be rejected")
	}
}
