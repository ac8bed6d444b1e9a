package xform

import (
	"testing"

	"stars/internal/cost"
	"stars/internal/expr"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/workload"
)

func fixture(t *testing.T) *Optimizer {
	t.Helper()
	cat := workload.ChainCatalog(3, 300, 100, 50)
	return New(cat, workload.ChainQuery(3), cost.DefaultWeights)
}

func applyAt(o *Optimizer, root *LNode, ruleName string, pick func(*LNode) bool) []*LNode {
	var out []*LNode
	var rule *Rule
	for _, r := range o.Rules {
		if r.Name == ruleName {
			rule = r
		}
	}
	root.nodes(func(cur *LNode, replace func(*LNode) *LNode) {
		if pick != nil && !pick(cur) {
			return
		}
		out = append(out, rule.Apply(o, cur, replace)...)
	})
	return out
}

func TestInitialIsLeftDeepFromOrder(t *testing.T) {
	o := fixture(t)
	init := o.Initial()
	if init.Key() != "((T1*T2)*T3)" {
		t.Fatalf("initial = %s", init.Key())
	}
	if init.complete() {
		t.Error("initial plan must be unannotated")
	}
}

func TestCommuteRule(t *testing.T) {
	o := fixture(t)
	outs := applyAt(o, o.Initial(), "commute", func(n *LNode) bool {
		return n.Kind == LJoin && n.L.Kind == LScan // inner join T1*T2? no: pick joins whose left is... pick all joins
	})
	_ = outs
	all := applyAt(o, o.Initial(), "commute", nil)
	keys := map[string]bool{}
	for _, n := range all {
		keys[n.Key()] = true
	}
	if !keys["(T3*(T1*T2))"] || !keys["((T2*T1)*T3)"] {
		t.Fatalf("commute outputs = %v", keys)
	}
}

func TestAssociateRules(t *testing.T) {
	o := fixture(t)
	left := applyAt(o, o.Initial(), "assoc-left", nil)
	if len(left) != 1 || left[0].Key() != "(T1*(T2*T3))" {
		t.Fatalf("assoc-left = %v", keysOf(left))
	}
	// assoc-right inverts assoc-left.
	right := applyAt(o, left[0], "assoc-right", nil)
	found := false
	for _, n := range right {
		if n.Key() == o.Initial().Key() {
			found = true
		}
	}
	if !found {
		t.Fatalf("assoc-right must invert: %v", keysOf(right))
	}
}

func keysOf(ns []*LNode) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Key()
	}
	return out
}

func TestImplementationRulesGateOnPredicates(t *testing.T) {
	o := fixture(t)
	methods := applyAt(o, o.Initial(), "impl-join-method", func(n *LNode) bool {
		return n.Kind == LJoin && n.L.Kind == LScan
	})
	// T1–T2 are equi-joined: NL, MG, and HA all apply.
	if len(methods) != 3 {
		t.Fatalf("methods = %v", keysOf(methods))
	}
	// With an inequality join, only NL applies.
	o = New(o.Cat, query.MustNew(o.Graph.Quants,
		&expr.Cmp{Op: expr.LT, L: expr.C("T1", "K"), R: expr.C("T2", "J")},
		&expr.Cmp{Op: expr.EQ, L: expr.C("T2", "K"), R: expr.C("T3", "J")},
	), cost.DefaultWeights)
	methods = applyAt(o, o.Initial(), "impl-join-method", func(n *LNode) bool {
		return n.Kind == LJoin && n.L.Kind == LScan
	})
	if len(methods) != 1 {
		t.Fatalf("inequality join methods = %v", keysOf(methods))
	}
}

func TestAccessPathRule(t *testing.T) {
	o := fixture(t)
	outs := applyAt(o, o.Initial(), "impl-access-path", func(n *LNode) bool {
		return n.Kind == LScan && n.Quant == "T1"
	})
	// seq + the T1_J index.
	if len(outs) != 2 {
		t.Fatalf("access choices = %d", len(outs))
	}
}

func TestLowerProducesValidPricedPlans(t *testing.T) {
	o := fixture(t)
	tree := o.Initial()
	// Annotate fully: NL everywhere, seq scans.
	var annotate func(n *LNode)
	annotate = func(n *LNode) {
		if n.Kind == LScan {
			n.Access = "seq"
			return
		}
		n.Method = plan.MethodNL
		annotate(n.L)
		annotate(n.R)
	}
	annotate(tree)
	if !tree.complete() {
		t.Fatal("annotation incomplete")
	}
	p, err := o.Lower(tree)
	if err != nil || p == nil {
		t.Fatalf("lower: %v", err)
	}
	if p.Props == nil || p.Props.Cost.Total <= 0 {
		t.Fatal("lowered plan must be priced")
	}
	// Every query predicate applied somewhere.
	for _, pr := range o.Graph.Preds.Slice() {
		if !p.Props.Preds().Contains(pr) {
			t.Fatalf("predicate %s dropped:\n%s", pr, plan.Explain(p))
		}
	}
	errs := 0
	p.Walk(func(n *plan.Node) {
		if err := n.Validate(); err != nil {
			errs++
		}
	})
	if errs > 0 {
		t.Fatalf("%d invalid nodes", errs)
	}
}

func TestLowerMergeAddsSorts(t *testing.T) {
	o := fixture(t)
	tree := &LNode{Kind: LJoin, Method: plan.MethodMG,
		L: &LNode{Kind: LScan, Quant: "T1", Access: "seq"},
		R: &LNode{Kind: LScan, Quant: "T2", Access: "seq"},
	}
	p, err := o.Lower(tree)
	if err != nil || p == nil {
		t.Fatalf("lower: %v", err)
	}
	sorts := 0
	p.Walk(func(n *plan.Node) {
		if n.Op == plan.OpSort {
			sorts++
		}
	})
	if sorts != 2 {
		t.Fatalf("merge join over heaps needs 2 sorts, got %d", sorts)
	}
}

func TestTruncationReturnsBestSoFar(t *testing.T) {
	cat := workload.ChainCatalog(5, 100, 100, 100, 100, 100)
	o := New(cat, workload.ChainQuery(5), cost.DefaultWeights)
	o.MaxPlans = 3000
	res, err := o.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("n=5 at 3000 plans must truncate")
	}
	if res.Best == nil {
		t.Fatal("a truncated search must still return its best plan")
	}
}

func TestRemoteQueryRejected(t *testing.T) {
	cat := workload.ChainCatalog(2, 10, 10)
	cat.Sites = []string{"A"}
	cat.QuerySite = ""
	cat.Table("T1").Site = "A"
	o := New(cat, workload.ChainQuery(2), cost.DefaultWeights)
	if _, err := o.Optimize(); err == nil {
		t.Fatal("the baseline covers local queries only")
	}
}

func TestStatsCountWork(t *testing.T) {
	o := fixture(t)
	res, err := o.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Attempts == 0 || s.Matches == 0 || s.PlansExplored == 0 || s.CompletePlans == 0 {
		t.Errorf("stats = %+v", s)
	}
	if s.Attempts < s.Matches {
		t.Error("attempts ≥ matches")
	}
}
