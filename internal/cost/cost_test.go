package cost

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"stars/internal/catalog"
	"stars/internal/datum"
	"stars/internal/expr"
	"stars/internal/plan"
	"stars/internal/query"
)

// testEnv prices over quantifiers T and U; conjuncts are the WHERE clause the
// test's plan nodes draw their predicate sets from.
func testEnv(conjuncts ...expr.Expr) *Env {
	lo, hi := 0.0, 100.0
	cat := catalog.New()
	cat.AddTable(&catalog.Table{
		Name: "T",
		Cols: []*catalog.Column{
			{Name: "A", Type: datum.KindInt, NDV: 50},
			{Name: "B", Type: datum.KindFloat, NDV: 100, Lo: &lo, Hi: &hi},
			{Name: "S", Type: datum.KindString, NDV: 1000, Width: 20},
		},
		Card: 10000,
		Paths: []*catalog.AccessPath{
			{Name: "T_A", Table: "T", Cols: []string{"A"}},
		},
	})
	cat.AddTable(&catalog.Table{
		Name: "U",
		Cols: []*catalog.Column{
			{Name: "A", Type: datum.KindInt, NDV: 200},
			{Name: "V", Type: datum.KindInt, NDV: 500},
		},
		Card: 500,
	})
	if err := cat.Validate(); err != nil {
		panic(err)
	}
	e := NewEnv(cat, DefaultWeights)
	e.Bind(query.MustNew([]query.Quantifier{{Name: "T", Table: "T"}, {Name: "U", Table: "U"}}, conjuncts...))
	return e
}

// TestBindNeededCols: a quantifier needs its columns in the select list,
// every predicate and ORDER BY, and no other quantifier's.
func TestBindNeededCols(t *testing.T) {
	cat := catalog.New()
	for _, n := range []string{"A", "B", "C", "D"} {
		cat.AddTable(&catalog.Table{Name: n, Card: 100, Cols: []*catalog.Column{
			{Name: "X", Type: datum.KindInt, NDV: 10}, {Name: "Y", Type: datum.KindInt, NDV: 10}, {Name: "Z", Type: datum.KindInt, NDV: 10},
		}})
	}
	g := query.MustNew([]query.Quantifier{{Name: "C", Table: "C"}, {Name: "A", Table: "A"}, {Name: "B", Table: "B"}, {Name: "D", Table: "D"}},
		&expr.Cmp{Op: expr.EQ, L: expr.C("A", "Y"), R: expr.C("B", "X")},
		&expr.Cmp{Op: expr.EQ, L: expr.C("B", "Y"), R: expr.C("C", "X")},
		&expr.Cmp{Op: expr.EQ, L: expr.C("A", "X"), R: &expr.Const{Val: datum.NewInt(1)}},
	)
	g.Select = []expr.ColID{{Table: "A", Col: "X"}, {Table: "B", Col: "Z"}}
	g.OrderBy = []expr.ColID{{Table: "C", Col: "Y"}}
	e := NewEnv(cat, DefaultWeights)
	e.Bind(g)
	// A.X (select + pred), A.Y (join pred); D nothing at all.
	for q, want := range map[string]string{"A": "A.X,A.Y", "B": "B.X,B.Y,B.Z", "C": "C.X,C.Y", "D": ""} {
		if got := e.Needed(q).String(); got != want {
			t.Errorf("%s needs %q, want %q", q, got, want)
		}
	}
}

func cEQ(t, c string, v int64) expr.Expr {
	return &expr.Cmp{Op: expr.EQ, L: expr.C(t, c), R: &expr.Const{Val: datum.NewInt(v)}}
}

func TestSelectivityRules(t *testing.T) {
	e := testEnv()
	// col = const: 1/NDV.
	if got := e.Selectivity(cEQ("T", "A", 7)); math.Abs(got-0.02) > 1e-9 {
		t.Errorf("eq sel = %v, want 1/50", got)
	}
	// col = col: 1/max(ndv).
	j := &expr.Cmp{Op: expr.EQ, L: expr.C("T", "A"), R: expr.C("U", "A")}
	if got := e.Selectivity(j); math.Abs(got-1.0/200) > 1e-9 {
		t.Errorf("join sel = %v, want 1/200", got)
	}
	// Range with known bounds interpolates.
	r := &expr.Cmp{Op: expr.LT, L: expr.C("T", "B"), R: &expr.Const{Val: datum.NewFloat(25)}}
	if got := e.Selectivity(r); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("range sel = %v, want 0.25", got)
	}
	// Flipped operand order interpolates the complement.
	r2 := &expr.Cmp{Op: expr.GT, L: &expr.Const{Val: datum.NewFloat(25)}, R: expr.C("T", "B")}
	if got := e.Selectivity(r2); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("flipped range sel = %v, want 0.25", got)
	}
	// Unknown range falls back to the System-R default.
	r3 := &expr.Cmp{Op: expr.LT, L: expr.C("T", "A"), R: &expr.Const{Val: datum.NewInt(3)}}
	if got := e.Selectivity(r3); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("default range sel = %v", got)
	}
	// NE is the complement of EQ.
	ne := &expr.Cmp{Op: expr.NE, L: expr.C("T", "A"), R: &expr.Const{Val: datum.NewInt(1)}}
	if got := e.Selectivity(ne); math.Abs(got-0.98) > 1e-9 {
		t.Errorf("ne sel = %v", got)
	}
	// AND multiplies; OR is inclusion-exclusion; NOT complements.
	p := cEQ("T", "A", 1)
	and := &expr.And{Kids: []expr.Expr{p, p}}
	if got := e.Selectivity(and); math.Abs(got-0.0004) > 1e-9 {
		t.Errorf("and sel = %v", got)
	}
	or := &expr.Or{Kids: []expr.Expr{p, p}}
	want := 0.02 + 0.02 - 0.0004
	if got := e.Selectivity(or); math.Abs(got-want) > 1e-9 {
		t.Errorf("or sel = %v", got)
	}
	not := &expr.Not{Kid: p}
	if got := e.Selectivity(not); math.Abs(got-0.98) > 1e-9 {
		t.Errorf("not sel = %v", got)
	}
}

// TestSelectivityBounds property-checks that selectivity stays in (0, 1].
func TestSelectivityBounds(t *testing.T) {
	e := testEnv()
	f := func(op uint8, v int64, flip bool) bool {
		var p expr.Expr = &expr.Cmp{
			Op: expr.CmpOp(op % 6),
			L:  expr.C("T", "A"),
			R:  &expr.Const{Val: datum.NewInt(v)},
		}
		if flip {
			p = &expr.Not{Kid: p}
		}
		s := e.Selectivity(p)
		return s > 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func price(t *testing.T, e *Env, n *plan.Node) *plan.Node {
	t.Helper()
	if err := e.PriceTree(n); err != nil {
		t.Fatal(err)
	}
	return n
}

func scanT(e *Env, preds ...expr.Expr) *plan.Node {
	return &plan.Node{
		Op: plan.OpAccess, Flavor: plan.FlavorHeap, Table: "T", Quantifier: "T",
		Cols:  e.Vocab().List(col("T", "A"), col("T", "S")),
		Preds: e.u.PredSet(preds...),
	}
}

func scanU(e *Env) *plan.Node {
	return &plan.Node{
		Op: plan.OpAccess, Flavor: plan.FlavorHeap, Table: "U", Quantifier: "U",
		Cols: e.Vocab().List(col("U", "A"), col("U", "V")),
	}
}

func TestAccessProps(t *testing.T) {
	e := testEnv(cEQ("T", "A", 3))
	n := price(t, e, scanT(e, cEQ("T", "A", 3)))
	p := n.Props
	if math.Abs(p.Card-200) > 1e-6 { // 10000/50
		t.Errorf("card = %v", p.Card)
	}
	if p.Cost.IO != float64(e.Cat.Table("T").PageCount()) {
		t.Errorf("scan IO = %v", p.Cost.IO)
	}
	if p.Site != "" || p.Temp || p.Order.Len() != 0 {
		t.Error("fresh heap scan properties")
	}
	if len(p.Paths) != 1 || p.Paths[0].Name != "T_A" {
		t.Errorf("paths = %v", p.Paths)
	}
	if p.Cost.Total <= 0 {
		t.Error("total must be positive")
	}
}

func TestIndexAccessProps(t *testing.T) {
	e := testEnv(cEQ("T", "A", 3))
	probe := price(t, e, &plan.Node{
		Op: plan.OpAccess, Flavor: plan.FlavorIndex, Table: "T", Quantifier: "T", Path: "T_A",
		Cols:  e.Vocab().List(col("T", plan.TIDCol), col("T", "A")),
		Preds: e.u.PredSet(cEQ("T", "A", 3)),
	})
	full := price(t, e, &plan.Node{
		Op: plan.OpAccess, Flavor: plan.FlavorIndex, Table: "T", Quantifier: "T", Path: "T_A",
		Cols: e.Vocab().List(col("T", plan.TIDCol), col("T", "A")),
	})
	if probe.Props.Cost.IO >= full.Props.Cost.IO {
		t.Errorf("probe (%v) must beat full scan (%v)", probe.Props.Cost.IO, full.Props.Cost.IO)
	}
	if probe.Props.Order.Len() == 0 || probe.Props.Order.ID(0) != (expr.ColID{Table: "T", Col: "A"}) {
		t.Error("index access yields key order")
	}
}

func TestSortShipStoreFilterProps(t *testing.T) {
	e := testEnv(cEQ("T", "A", 1))
	base := scanT(e)
	sorted := price(t, e, &plan.Node{Op: plan.OpSort,
		SortCols: e.Vocab().List(col("T", "A")), Inputs: []*plan.Node{base}})
	if sorted.Props.Order.Len() != 1 {
		t.Error("SORT sets order")
	}
	if sorted.Props.Cost.Total <= base.Props.Cost.Total {
		t.Error("SORT adds cost")
	}

	shipped := price(t, e, &plan.Node{Op: plan.OpShip, Site: "X", Inputs: []*plan.Node{sorted}})
	if shipped.Props.Site != "X" {
		t.Error("SHIP sets site")
	}
	if shipped.Props.Order.Len() != 1 {
		t.Error("SHIP preserves order")
	}
	if shipped.Props.Paths != nil {
		t.Error("access paths do not travel")
	}
	if shipped.Props.Cost.Msg == 0 || shipped.Props.Cost.Bytes == 0 {
		t.Error("SHIP charges messages and bytes")
	}

	stored := price(t, e, &plan.Node{Op: plan.OpStore, Inputs: []*plan.Node{shipped}})
	if !stored.Props.Temp || stored.TableName() != "_t"+shipped.Fingerprint() {
		t.Errorf("STORE marks temp, named for the plan it stores (got %q)", stored.TableName())
	}
	if stored.Props.Rescan.Total >= stored.Props.Cost.Total {
		t.Error("temp rescan must be cheaper than first production")
	}

	filtered := price(t, e, &plan.Node{Op: plan.OpFilter,
		Preds: e.u.PredSet(cEQ("T", "A", 1)), Inputs: []*plan.Node{base}})
	if filtered.Props.Card >= base.Props.Card {
		t.Error("FILTER reduces cardinality")
	}
	if !filtered.Props.Preds().Contains(cEQ("T", "A", 1)) {
		t.Error("FILTER records its predicate")
	}
}

func TestJoinProps(t *testing.T) {
	jp := &expr.Cmp{Op: expr.EQ, L: expr.C("T", "A"), R: expr.C("U", "A")}
	e := testEnv(jp)
	outer := scanU(e)
	for _, method := range []string{plan.MethodNL, plan.MethodMG, plan.MethodHA} {
		inner := scanT(e)
		if method == plan.MethodNL {
			inner = scanT(e, jp) // pushed down
		}
		var applied, residual []expr.Expr
		switch method {
		case plan.MethodNL:
			applied = []expr.Expr{jp}
		case plan.MethodMG:
			applied = []expr.Expr{jp}
		case plan.MethodHA:
			applied = []expr.Expr{jp}
			residual = []expr.Expr{jp} // collision recheck
		}
		j := price(t, e, &plan.Node{Op: plan.OpJoin, Flavor: method,
			Preds: e.u.PredSet(applied...), Residual: e.u.PredSet(residual...),
			Inputs: []*plan.Node{outer, inner}})
		// Output cardinality ≈ |T|·|U|/max(ndv) = 10000·500/200 = 25000
		// for every method (no double counting).
		if math.Abs(j.Props.Card-25000) > 1 {
			t.Errorf("%s card = %v, want 25000", method, j.Props.Card)
		}
		if !j.Props.Tables().Equal(e.u.All()) {
			t.Errorf("%s tables", method)
		}
		if method == plan.MethodHA && j.Props.Order.Len() != 0 {
			t.Error("hash join destroys order")
		}
	}
}

func TestJoinSiteMismatchRejected(t *testing.T) {
	e := testEnv()
	outer := scanU(e)
	inner := price(t, e, &plan.Node{Op: plan.OpShip, Site: "X", Inputs: []*plan.Node{scanT(e)}})
	j := &plan.Node{Op: plan.OpJoin, Flavor: plan.MethodNL, Inputs: []*plan.Node{outer, inner}}
	if err := e.Price(j); err == nil {
		t.Fatal("joining across sites must be rejected")
	}
}

func TestUnregisteredOpFails(t *testing.T) {
	e := testEnv()
	n := &plan.Node{Op: plan.Op("MYSTERY")}
	if err := e.Price(n); err == nil || !strings.Contains(err.Error(), "no property function") {
		t.Fatalf("err = %v", err)
	}
}

func TestRegisterExtension(t *testing.T) {
	e := testEnv()
	op := plan.Op("NOOP")
	e.Register(op, func(e *Env, n *plan.Node) (*plan.Props, error) {
		return n.Inputs[0].Props.Clone(), nil
	})
	if !e.Registered(op) {
		t.Fatal("Registered")
	}
	base := scanT(e)
	price(t, e, base)
	n := &plan.Node{Op: op, Inputs: []*plan.Node{base}}
	if err := e.Price(n); err != nil {
		t.Fatal(err)
	}
	if n.Props.Card != base.Props.Card {
		t.Error("pass-through extension")
	}
}

func TestBuildIndexRequiresTemp(t *testing.T) {
	e := testEnv()
	base := scanT(e)
	price(t, e, base)
	key := e.Vocab().List(col("T", "A"))
	n := &plan.Node{Op: plan.OpBuildIndex, SortCols: key, Inputs: []*plan.Node{base}}
	if err := e.Price(n); err == nil {
		t.Fatal("BUILDINDEX over a non-temp must fail")
	}
	stored := price(t, e, &plan.Node{Op: plan.OpStore, Inputs: []*plan.Node{scanT(e)}})
	n2 := price(t, e, &plan.Node{Op: plan.OpBuildIndex, SortCols: key, Inputs: []*plan.Node{stored}})
	found := false
	for _, p := range n2.Props.Paths {
		if p.Dynamic && p.Cols.Equal(key) {
			found = true
		}
	}
	if !found {
		t.Error("BUILDINDEX must add a dynamic path")
	}
}

func TestWeightsTotal(t *testing.T) {
	w := Weights{IO: 1, CPU: 0.01, Msg: 2, Byte: 0.001}
	c := plan.Cost{IO: 10, CPU: 100, Msg: 5, Bytes: 1000}
	if got := w.Total(c); math.Abs(got-(10+1+10+1)) > 1e-9 {
		t.Errorf("total = %v", got)
	}
}

func TestPagesForAndRowWidth(t *testing.T) {
	e := testEnv()
	cols := []expr.ColID{col("T", "A"), col("T", "S")}
	if w := e.RowWidth(cols); w != 28 || e.Width(e.Vocab().List(cols...)) != 28 || e.setWidth(e.Vocab().Set(cols...)) != 28 {
		t.Errorf("width = %v", w)
	}
	if p := pagesOf(1000, e.RowWidth(cols)); p != math.Ceil(1000*28.0/catalog.PageSize) {
		t.Errorf("pages = %v", p)
	}
	if p := pagesOf(1, e.RowWidth(cols)); p != 1 {
		t.Error("page floor")
	}
	// TID pseudo-column has a width.
	if w := e.RowWidth([]expr.ColID{col("T", plan.TIDCol)}); w != 8 {
		t.Errorf("tid width = %v", w)
	}
}

func TestPriceIsIdempotentAndChecksInputs(t *testing.T) {
	e := testEnv()
	n := scanT(e)
	price(t, e, n)
	saved := n.Props
	if err := e.Price(n); err != nil || n.Props != saved {
		t.Error("re-pricing must be a no-op")
	}
	j := &plan.Node{Op: plan.OpJoin, Flavor: plan.MethodNL,
		Inputs: []*plan.Node{scanT(e), scanT(e)}} // unpriced inputs
	if err := e.Price(j); err == nil {
		t.Error("pricing with unpriced inputs must fail")
	}
}

// TestCardinalityMonotone property-checks that adding a predicate never
// increases estimated cardinality.
func TestCardinalityMonotone(t *testing.T) {
	f := func(v1, v2 int64) bool {
		p1 := cEQ("T", "A", v1%50)
		p2 := cEQ("T", "S", v2%1000)
		e := testEnv(p1, p2)
		n1 := scanT(e, p1)
		n2 := scanT(e, p1, p2)
		if err := e.PriceTree(n1); err != nil {
			return false
		}
		if err := e.PriceTree(n2); err != nil {
			return false
		}
		return n2.Props.Card <= n1.Props.Card+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func col(t, c string) expr.ColID { return expr.ColID{Table: t, Col: c} }
