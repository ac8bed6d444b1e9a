package star

import (
	"testing"

	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/datum"
	"stars/internal/expr"
	"stars/internal/plan"
	"stars/internal/query"
)

// builderEngine wires an engine over EMP/DEPT-like tables for exercising
// the real LOLEPOP builders directly.
func builderEngine(t testing.TB) *Engine {
	t.Helper()
	cat := catalog.New()
	cat.AddTable(&catalog.Table{
		Name: "DEPT",
		Cols: []*catalog.Column{
			{Name: "DNO", Type: datum.KindInt, NDV: 100},
			{Name: "MGR", Type: datum.KindString, NDV: 90},
		},
		Card: 100,
	})
	cat.AddTable(&catalog.Table{
		Name: "EMP", StMgr: catalog.BTreeStore,
		Cols: []*catalog.Column{
			{Name: "DNO", Type: datum.KindInt, NDV: 100},
			{Name: "NAME", Type: datum.KindString, NDV: 9000},
		},
		Card:  10000,
		Order: []string{"DNO"},
		Paths: []*catalog.AccessPath{
			{Name: "EMPDNO", Table: "EMP", Cols: []string{"DNO"}},
		},
	})
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	env := cost.NewEnv(cat, cost.DefaultWeights)
	env.Bind(deptEmpG)
	en := NewEngine(NewRuleSet(), env)
	en.QueryTables = []string{"DEPT", "EMP"}
	return en
}

// The builder tests' query: DEPT joins EMP on DNO, with DEPT.DNO = 1.
var (
	deptDNO1    = &expr.Cmp{Op: expr.EQ, L: expr.C("DEPT", "DNO"), R: &expr.Const{Val: datum.NewInt(1)}}
	deptEmpJoin = &expr.Cmp{Op: expr.EQ, L: expr.C("DEPT", "DNO"), R: expr.C("EMP", "DNO")}
	deptEmpG    = selfNamed([]string{"DEPT", "EMP"}, deptDNO1, deptEmpJoin)
	deptEmpU    = deptEmpG.Universe()
)

// selfNamed builds the query whose quantifiers range over the tables they
// are named after.
func selfNamed(quants []string, conjuncts ...expr.Expr) *query.Graph {
	qs := make([]query.Quantifier, len(quants))
	for i, q := range quants {
		qs[i] = query.Quantifier{Name: q, Table: q}
	}
	return query.MustNew(qs, conjuncts...)
}

func deptStream() Value { return StreamValue(deptEmpU.Tables("DEPT")) }
func empStream() Value  { return StreamValue(deptEmpU.Tables("EMP")) }
func noPreds() Value    { return PredsValue(expr.PredSet{}) }

// mustSAP returns a closure unwrapping a builder's (Value, error) result
// into its plan slice, failing the test on error or non-SAP values.
func mustSAP(t *testing.T) func(Value, error) []*plan.Node {
	return func(v Value, err error) []*plan.Node {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if v.Kind != VSAP {
			t.Fatalf("want SAP, got %s", v.Kind)
		}
		return v.SAP
	}
}

func TestAccessBuilderHeapAndBTree(t *testing.T) {
	en := builderEngine(t)
	heap := mustSAP(t)(biAccess(en, []Value{
		StrValue("heap"), deptStream(), AllColsValue, noPreds(),
	}))
	if len(heap) != 1 || heap[0].Flavor != plan.FlavorHeap || heap[0].Table != "DEPT" {
		t.Fatalf("heap = %+v", heap)
	}
	if heap[0].Cols.Len() != 2 {
		t.Errorf("'*' must resolve to the needed columns: %v", heap[0].Cols)
	}
	bt := mustSAP(t)(biAccess(en, []Value{
		StrValue("btree"), empStream(), AllColsValue, noPreds(),
	}))
	if bt[0].Flavor != plan.FlavorBTreeStore {
		t.Fatal("btree flavor")
	}
	if bt[0].Props.Order.Len() == 0 {
		t.Error("a btree-organized table yields its stored order")
	}
}

func TestAccessBuilderIndex(t *testing.T) {
	en := builderEngine(t)
	cols := ColsValue(en.Cost.Vocab().List(col("EMP", plan.TIDCol), col("EMP", "DNO")))
	sap := mustSAP(t)(biAccess(en, []Value{StrValue("index"), StrValue("EMPDNO"), cols, noPreds()}))
	n := sap[0]
	if n.Flavor != plan.FlavorIndex || n.Path != "EMPDNO" || n.Quantifier != "EMP" {
		t.Fatalf("index access = %+v", n)
	}
	if _, err := biAccess(en, []Value{StrValue("index"), StrValue("NOPE"), cols, noPreds()}); err == nil {
		t.Error("unknown path must error")
	}
	if _, err := biAccess(en, []Value{StrValue("warp"), deptStream(), AllColsValue, noPreds()}); err == nil {
		t.Error("unknown flavor must error")
	}
}

func TestGetBuilderFetchesMissingColsOnly(t *testing.T) {
	en := builderEngine(t)
	cols := ColsValue(en.Cost.Vocab().List(col("EMP", plan.TIDCol), col("EMP", "DNO")))
	probe := mustSAP(t)(biAccess(en, []Value{StrValue("index"), StrValue("EMPDNO"), cols, noPreds()}))
	got := mustSAP(t)(biGet(en, []Value{SAPValue(probe), empStream(), AllColsValue, noPreds()}))
	if got[0].Op != plan.OpGet {
		t.Fatal("GET node expected")
	}
	if got[0].Cols.Len() != 1 || got[0].Cols.ID(0).Col != "NAME" {
		t.Fatalf("GET must fetch only NAME: %v", got[0].Cols)
	}
	// Index-only: if everything is already present and no predicates, the
	// input passes through.
	through := mustSAP(t)(biGet(en, []Value{
		SAPValue(probe), empStream(),
		ColsValue(en.Cost.Vocab().List(col("EMP", "DNO"))), noPreds(),
	}))
	if through[0] != probe[0] {
		t.Error("index-only access must pass through unchanged")
	}
}

func TestSortShipStoreBuildersPassThrough(t *testing.T) {
	en := builderEngine(t)
	base := mustSAP(t)(biAccess(en, []Value{StrValue("heap"), deptStream(), AllColsValue, noPreds()}))

	key := ColsValue(en.Cost.Vocab().List(col("DEPT", "DNO")))
	sorted := mustSAP(t)(biSort(en, []Value{SAPValue(base), key}))
	if sorted[0].Op != plan.OpSort {
		t.Fatal("SORT added")
	}
	resorted := mustSAP(t)(biSort(en, []Value{SAPValue(sorted), key}))
	if resorted[0] != sorted[0] {
		t.Error("already-ordered input must pass through")
	}

	shipped := mustSAP(t)(biShip(en, []Value{SAPValue(base), StrValue("X")}))
	if shipped[0].Op != plan.OpShip || shipped[0].Props.Site != "X" {
		t.Fatal("SHIP")
	}
	sameSite := mustSAP(t)(biShip(en, []Value{SAPValue(base), StrValue("")}))
	if sameSite[0] != base[0] {
		t.Error("shipping to the current site must pass through")
	}

	stored := mustSAP(t)(biStore(en, []Value{SAPValue(base)}))
	if stored[0].Op != plan.OpStore || !stored[0].Props.Temp {
		t.Fatal("STORE")
	}
	restored := mustSAP(t)(biStore(en, []Value{SAPValue(stored)}))
	if restored[0] != stored[0] {
		t.Error("an existing temp must pass through")
	}

	ixd := mustSAP(t)(biBuildIndex(en, []Value{SAPValue(stored), key}))
	if ixd[0].Op != plan.OpBuildIndex {
		t.Fatal("BUILDINDEX")
	}
	again := mustSAP(t)(biBuildIndex(en, []Value{SAPValue(ixd), key}))
	if again[0] != ixd[0] {
		t.Error("an existing path must pass through")
	}
}

func TestFilterBuilder(t *testing.T) {
	en := builderEngine(t)
	base := mustSAP(t)(biAccess(en, []Value{StrValue("heap"), deptStream(), AllColsValue, noPreds()}))
	p := deptEmpU.PredSet(deptDNO1)
	f := mustSAP(t)(biFilter(en, []Value{SAPValue(base), PredsValue(p)}))
	if f[0].Op != plan.OpFilter || f[0].Props.Card >= base[0].Props.Card {
		t.Fatal("FILTER must reduce card")
	}
	// Empty predicates: identity.
	same, err := biFilter(en, []Value{SAPValue(base), noPreds()})
	if err != nil || same.SAP[0] != base[0] {
		t.Error("empty FILTER is the identity")
	}
}

func TestJoinBuilderCrossProductAndSiteCheck(t *testing.T) {
	en := builderEngine(t)
	dept := mustSAP(t)(biAccess(en, []Value{StrValue("heap"), deptStream(), AllColsValue, noPreds()}))
	emp := mustSAP(t)(biAccess(en, []Value{StrValue("btree"), empStream(), AllColsValue, noPreds()}))
	empShipped := mustSAP(t)(biShip(en, []Value{SAPValue(emp), StrValue("X")}))

	jp := deptEmpU.PredSet(deptEmpJoin)
	both := append(append([]*plan.Node{}, emp...), empShipped...)
	out := mustSAP(t)(biJoin(en, []Value{
		StrValue(plan.MethodHA), SAPValue(dept), SAPValue(both),
		PredsValue(jp), PredsValue(jp),
	}))
	// Only the co-located combination survives.
	if len(out) != 1 {
		t.Fatalf("joins = %d, want 1 (site mismatch dropped)", len(out))
	}
	if en.Stats.PlansRejected == 0 {
		t.Error("rejected combination must be counted")
	}
}

func TestHelperClassifiersThroughEngine(t *testing.T) {
	en := builderEngine(t)
	p := PredsValue(deptEmpU.PredSet(deptEmpJoin))
	args := []Value{p, deptStream(), empStream()}
	for _, h := range []string{"joinPreds", "sortablePreds", "hashablePreds", "indexablePreds"} {
		v, err := en.callees[h].Func(en, args)
		if err != nil || v.Preds.Len() != 1 {
			t.Errorf("%s = %v, %v", h, v, err)
		}
	}
	v, err := en.callees["innerPreds"].Func(en, []Value{p, empStream()})
	if err != nil || v.Preds.Len() != 0 {
		t.Errorf("innerPreds = %v", v)
	}
	sc, err := en.callees["sortCols"].Func(en, []Value{p, deptStream()})
	if err != nil || sc.Cols.Len() != 1 || sc.Cols.ID(0).Col != "DNO" {
		t.Errorf("sortCols = %v", sc)
	}
	ic, err := en.callees["indexCols"].Func(en, []Value{p, noPreds(), empStream()})
	if err != nil || ic.Cols.Len() != 1 {
		t.Errorf("indexCols = %v", ic)
	}
}

func TestCatalogProbingHelpers(t *testing.T) {
	en := builderEngine(t)
	v, err := en.callees["indexes"].Func(en, []Value{empStream()})
	if err != nil || len(v.List) != 1 || v.List[0].Str != "EMPDNO" {
		t.Fatalf("indexes = %v", v)
	}
	v, err = en.callees["stmgr"].Func(en, []Value{deptStream(), StrValue("heap")})
	if err != nil || !v.Bool {
		t.Error("DEPT is a heap")
	}
	v, err = en.callees["stmgr"].Func(en, []Value{empStream(), StrValue("btree")})
	if err != nil || !v.Bool {
		t.Error("EMP is btree-organized")
	}
	v, err = en.callees["localQuery"].Func(en, nil)
	if err != nil || !v.Bool {
		t.Error("single-site catalog is local")
	}
	v, err = en.callees["allSites"].Func(en, nil)
	if err != nil || len(v.List) != 1 {
		t.Errorf("allSites = %v", v)
	}
	v, err = en.callees["isComposite"].Func(en, []Value{StreamValue(deptEmpU.All())})
	if err != nil || !v.Bool {
		t.Error("two-table stream is composite")
	}
	v, err = en.callees["indexProbeCols"].Func(en, []Value{empStream(), StrValue("EMPDNO")})
	if err != nil || v.Cols.Len() != 2 || v.Cols.ID(0).Col != plan.TIDCol {
		t.Errorf("indexProbeCols = %v", v)
	}
}

// TestCatalogListsBuiltOnce: indexes and allSites answer from lists built
// once per engine on its Scratch, so a second indexes over the same quantifier
// allocates nothing, and a fork reads the engine's lists without building its
// own. A quantifier outside QueryTables still gets its paths.
func TestCatalogListsBuiltOnce(t *testing.T) {
	en := builderEngine(t)
	indexes, allSites := en.callees["indexes"].Func, en.callees["allSites"].Func
	emp := []Value{empStream()}
	first, err := indexes(en, emp)
	if err != nil || len(first.List) != 1 || first.List[0].Str != "EMPDNO" {
		t.Fatalf("indexes = %v, %v", first, err)
	}
	if n := testing.AllocsPerRun(100, func() { _, err = indexes(en, emp) }); n != 0 || err != nil {
		t.Errorf("a second indexes over EMP allocates %.0f objects (err %v), want 0", n, err)
	}
	sites, _ := allSites(en, nil)
	scratch := new(Scratch)
	fork := en.Fork(en.Cost, nil, scratch)
	if fork.Scratch != scratch {
		t.Error("the fork does not evaluate on the scratch it was handed")
	}
	again, _ := indexes(fork, emp)
	forkSites, _ := allSites(fork, nil)
	if &again.List[0] != &first.List[0] || &forkSites.List[0] != &sites.List[0] || len(fork.names) != 0 {
		t.Error("the fork built lists of its own instead of reading the engine's")
	}

	en.QueryTables = []string{"DEPT"} // EMP is no quantifier of this one
	en.lists = nil
	if v, _ := indexes(en, emp); len(v.List) != 1 || v.List[0].Str != "EMPDNO" {
		t.Errorf("indexes outside QueryTables = %v", v)
	}
}

func TestSiteDiffersHelper(t *testing.T) {
	en := builderEngine(t)
	en.PlanSites = func(t expr.TableSet) []string { return []string{"NY"} }
	la := "LA"
	annotated := Value{Kind: VStream, Stream: StreamVal{
		Tables: deptEmpU.Tables("EMP"), Req: plan.Reqd{Site: &la},
	}}
	v, err := en.callees["siteDiffers"].Func(en, []Value{annotated})
	if err != nil || !v.Bool {
		t.Error("NY plans vs LA requirement must differ")
	}
	plain := empStream()
	v, err = en.callees["siteDiffers"].Func(en, []Value{plain})
	if err != nil || v.Bool {
		t.Error("no site requirement: no difference")
	}
}

// TestOrderedStreamSection2 evaluates the paper's Section 2.1 worked
// example directly: OrderedStream's two alternative definitions, the second
// gated by the "order ⊑ a" per-element condition.
func TestOrderedStreamSection2(t *testing.T) {
	en := builderEngine(t)
	en.Rules = DefaultRules()
	cols := ColsValue(en.Cost.Vocab().List(col("EMP", "DNO"), col("EMP", "NAME")))

	// Required order EMP.DNO: the EMPDNO index qualifies, so both the
	// SORT-based and the index-based definitions produce plans.
	sap, err := en.EvalRule("OrderedStream", []Value{
		empStream(), cols, noPreds(),
		ColsValue(en.Cost.Vocab().List(col("EMP", "DNO"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sap) != 2 {
		t.Fatalf("plans = %d, want 2 (SORT and index)", len(sap))
	}
	var sawSequential, sawIndex bool
	for _, p := range sap {
		if !plan.OrderSatisfies(p.Props.Order, en.Cost.Vocab().List(col("EMP", "DNO"))) {
			t.Fatalf("plan not in required order:\n%s", plan.Explain(p))
		}
		switch p.Op {
		case plan.OpSort, plan.OpAccess:
			// EMP is B-tree-organized on DNO here, so the SORT-based
			// definition passes through as an already-ordered access.
			sawSequential = true
		case plan.OpGet:
			sawIndex = true
		}
	}
	if !sawSequential || !sawIndex {
		t.Fatalf("expected both definitions to fire (sequential=%v index=%v)", sawSequential, sawIndex)
	}

	// Required order EMP.NAME: no index qualifies; only the SORT fires.
	sap, err = en.EvalRule("OrderedStream", []Value{
		empStream(), cols, noPreds(),
		ColsValue(en.Cost.Vocab().List(col("EMP", "NAME"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sap) != 1 || sap[0].Op != plan.OpSort {
		t.Fatalf("want only the SORT definition, got %d plans", len(sap))
	}
}

func col(t, c string) expr.ColID { return expr.ColID{Table: t, Col: c} }

// TestBuiltinCalleesCheckTheirArity: every built-in callee that declares
// arguments rejects a call with one more at run time, so an engine that never
// validated cannot read past what the signature promises.
func TestBuiltinCalleesCheckTheirArity(t *testing.T) {
	en := builderEngine(t)
	for name, c := range builtins {
		if len(c.Args) == 0 {
			continue // localQuery and allSites read no arguments
		}
		if _, err := c.Func(en, make([]Value, len(c.Args)+1)); err == nil {
			t.Errorf("%s accepts %d arguments, its signature declares %d", name, len(c.Args)+1, len(c.Args))
		}
	}
}
