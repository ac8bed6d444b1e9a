package cost

import (
	"math"
	"testing"

	"stars/internal/catalog"
	"stars/internal/datum"
	"stars/internal/expr"
	"stars/internal/plan"
	"stars/internal/query"
)

// probeT builds a priced index probe on T_A.
func probeT(t *testing.T, e *Env, preds ...expr.Expr) *plan.Node {
	t.Helper()
	return price(t, e, &plan.Node{
		Op: plan.OpAccess, Flavor: plan.FlavorIndex, Table: "T", Quantifier: "T", Path: "T_A",
		Cols:  e.Vocab().List(col("T", plan.TIDCol), col("T", "A")),
		Preds: e.u.PredSet(preds...),
	})
}

func TestGetPropsFetchModes(t *testing.T) {
	e := testEnv()
	// Unclustered probe: one random page per input tuple.
	probe := probeT(t, e) // full index scan: card = 10000
	get := price(t, e, &plan.Node{
		Op: plan.OpGet, Table: "T", Quantifier: "T",
		Cols: e.Vocab().List(col("T", "S")), Inputs: []*plan.Node{probe},
	})
	randomIO := get.Props.Cost.IO - probe.Props.Cost.IO
	if randomIO != probe.Props.Card {
		t.Errorf("random fetch IO = %v, want one per tuple (%v)", randomIO, probe.Props.Card)
	}

	// TID-sorted input: sequential fetches, at most the table's pages.
	sorted := price(t, e, &plan.Node{
		Op: plan.OpSort, SortCols: e.Vocab().List(col("T", plan.TIDCol)),
		Inputs: []*plan.Node{probeT(t, e)},
	})
	get2 := price(t, e, &plan.Node{
		Op: plan.OpGet, Table: "T", Quantifier: "T",
		Cols: e.Vocab().List(col("T", "S")), Inputs: []*plan.Node{sorted},
	})
	seqIO := get2.Props.Cost.IO - sorted.Props.Cost.IO
	if seqIO != float64(e.Cat.Table("T").PageCount()) {
		t.Errorf("sequential fetch IO = %v, want table pages %v", seqIO, e.Cat.Table("T").PageCount())
	}

	// A clustering index also makes fetches sequential.
	e.Cat.Table("T").Paths[0].Clustered = true
	get3 := price(t, e, &plan.Node{
		Op: plan.OpGet, Table: "T", Quantifier: "T",
		Cols: e.Vocab().List(col("T", "S")), Inputs: []*plan.Node{probeT(t, e)},
	})
	probeCost := get3.Inputs[0].Props.Cost.IO
	if got := get3.Props.Cost.IO - probeCost; got != float64(e.Cat.Table("T").PageCount()) {
		t.Errorf("clustered fetch IO = %v", got)
	}
	e.Cat.Table("T").Paths[0].Clustered = false

	// GET from an unknown table errors.
	bad := &plan.Node{Op: plan.OpGet, Table: "NOPE", Inputs: []*plan.Node{probeT(t, e)}}
	if err := e.Price(bad); err == nil {
		t.Error("GET from unknown table must fail")
	}
}

func TestTempAccessProps(t *testing.T) {
	e := testEnv(cEQ("T", "A", 3))
	stored := price(t, e, &plan.Node{Op: plan.OpStore, Inputs: []*plan.Node{scanT(e)}})

	// Heap re-access of the temp: rescan pays only the re-read (zero IO
	// here, the temp fits the buffer pool).
	acc := price(t, e, &plan.Node{
		Op: plan.OpAccess, Flavor: plan.FlavorHeap,
		Cols:   e.Vocab().List(col("T", "A")),
		Inputs: []*plan.Node{stored},
	})
	if !acc.Props.Temp || acc.TableName() != stored.TableName() {
		t.Fatalf("temp access keeps temp identity: reads %q, not %q", acc.TableName(), stored.TableName())
	}
	if acc.Props.Rescan.IO != 0 {
		t.Errorf("buffered temp rescan IO = %v", acc.Props.Rescan.IO)
	}
	if acc.Props.Cost.Total <= stored.Props.Cost.Total {
		t.Error("first access includes the build")
	}

	// Index flavor over a dynamic path.
	ixd := price(t, e, &plan.Node{Op: plan.OpBuildIndex,
		SortCols: e.Vocab().List(col("T", "A")), Inputs: []*plan.Node{stored}})
	probe := price(t, e, &plan.Node{
		Op: plan.OpAccess, Flavor: plan.FlavorIndex,
		Cols:     e.Vocab().List(col("T", "A")),
		Preds:    e.u.PredSet(cEQ("T", "A", 3)),
		SortCols: e.Vocab().List(col("T", "A")),
		Inputs:   []*plan.Node{ixd},
	})
	if probe.PathName() != ixd.PathName() || probe.TableName() != stored.TableName() {
		t.Errorf("probe reads %s on %s, the index built is %s on %s", probe.PathName(), probe.TableName(), ixd.PathName(), stored.TableName())
	}
	if probe.Props.Card >= stored.Props.Card {
		t.Error("probe must be selective")
	}
	if probe.Props.Order.Len() == 0 {
		t.Error("dynamic-index probe yields key order")
	}

	// A key no dynamic path has errors, as does a probe with no key;
	// non-temp input errors.
	badPath := &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorIndex,
		SortCols: e.Vocab().List(col("T", "B")), Inputs: []*plan.Node{ixd}}
	if err := e.Price(badPath); err == nil {
		t.Error("unknown temp path must fail")
	}
	noKey := &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorIndex, Inputs: []*plan.Node{ixd}}
	if err := e.Price(noKey); err == nil {
		t.Error("index ACCESS over a temp without a key must fail")
	}
	nonTemp := &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorHeap, Table: "x",
		Inputs: []*plan.Node{scanTPriced(t, e)}}
	if err := e.Price(nonTemp); err == nil {
		t.Error("ACCESS-with-input over a non-temp must fail")
	}
}

func scanTPriced(t *testing.T, e *Env) *plan.Node {
	return price(t, e, scanT(e))
}

func TestUnionProps(t *testing.T) {
	e := testEnv()
	a := scanTPriced(t, e)
	b := scanTPriced(t, e)
	u := price(t, e, &plan.Node{Op: plan.OpUnion, Inputs: []*plan.Node{a, b}})
	if u.Props.Card != a.Props.Card+b.Props.Card {
		t.Errorf("union card = %v", u.Props.Card)
	}
	// Cross-site unions are rejected.
	shipped := price(t, e, &plan.Node{Op: plan.OpShip, Site: "X", Inputs: []*plan.Node{scanT(e)}})
	bad := &plan.Node{Op: plan.OpUnion, Inputs: []*plan.Node{a, shipped}}
	if err := e.Price(bad); err == nil {
		t.Error("cross-site UNION must fail")
	}
}

func TestIndexAndProps(t *testing.T) {
	e := testEnv(cEQ("T", "A", 1), cEQ("T", "A", 2))
	a := probeT(t, e, cEQ("T", "A", 1))
	b := probeT(t, e, cEQ("T", "A", 2))
	n := price(t, e, &plan.Node{Op: plan.OpIndexAnd, Inputs: []*plan.Node{a, b}})
	// card = a.Card · b.Card / |T| = 200·200/10000 = 4.
	if math.Abs(n.Props.Card-4) > 1e-6 {
		t.Errorf("ixand card = %v, want 4", n.Props.Card)
	}
	if n.Props.Cost.Total <= a.Props.Cost.Total+b.Props.Cost.Total-1e-9 {
		t.Error("intersection adds CPU on top of both probes")
	}
	// Mixed-table inputs are rejected.
	u := price(t, e, &plan.Node{
		Op: plan.OpAccess, Flavor: plan.FlavorHeap, Table: "U", Quantifier: "U",
		Cols: e.Vocab().List(col("U", "A")),
	})
	bad := &plan.Node{Op: plan.OpIndexAnd, Inputs: []*plan.Node{a, u}}
	if err := e.Price(bad); err == nil {
		t.Error("IXAND across tables must fail")
	}
}

func TestSelectivityFallbacks(t *testing.T) {
	e := testEnv()
	// Unknown quantifier: defaults.
	p := cEQ("Z", "A", 1)
	if got := e.Selectivity(p); got != defaultEqSel {
		t.Errorf("unknown-table eq sel = %v", got)
	}
	// Constant predicates.
	if got := e.Selectivity(&expr.Const{Val: datum.NewBool(true)}); got != 1 {
		t.Errorf("constant true sel = %v", got)
	}
	if got := e.Selectivity(&expr.Const{Val: datum.Null}); got != 0 {
		t.Errorf("NULL sel = %v", got)
	}
	// Arith node at predicate position: opaque default.
	if got := e.Selectivity(&expr.Arith{Op: expr.Add, L: expr.C("T", "A"), R: expr.C("T", "A")}); got != defaultOtherSel {
		t.Errorf("opaque sel = %v", got)
	}
	// Range clamps at the domain edges.
	over := &expr.Cmp{Op: expr.LT, L: expr.C("T", "B"), R: &expr.Const{Val: datum.NewFloat(1e9)}}
	if got := e.Selectivity(over); got != 1 {
		t.Errorf("over-range sel = %v", got)
	}
	under := &expr.Cmp{Op: expr.LT, L: expr.C("T", "B"), R: &expr.Const{Val: datum.NewFloat(-5)}}
	if got := e.Selectivity(under); got > 1e-8 {
		t.Errorf("under-range sel = %v", got)
	}
}

// TestIndexMatchPrefixSemantics exercises the probe estimator's prefix rules
// directly.
func TestIndexMatchPrefixSemantics(t *testing.T) {
	lo, hi := 0.0, 100.0
	cat := catalog.New()
	cat.AddTable(&catalog.Table{
		Name: "M",
		Cols: []*catalog.Column{
			{Name: "A", Type: datum.KindInt, NDV: 10},
			{Name: "B", Type: datum.KindFloat, NDV: 100, Lo: &lo, Hi: &hi},
			{Name: "C", Type: datum.KindInt, NDV: 100},
		},
		Card: 1000,
		Paths: []*catalog.AccessPath{
			{Name: "M_ABC", Table: "M", Cols: []string{"A", "B", "C"}},
		},
	})
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	e := NewEnv(cat, DefaultWeights)
	conjuncts := []expr.Expr{
		cEQ("M", "A", 1),
		&expr.Cmp{Op: expr.LT, L: expr.C("M", "B"), R: &expr.Const{Val: datum.NewFloat(50)}},
		cEQ("M", "C", 3),
	}
	e.Bind(query.MustNew([]query.Quantifier{{Name: "M", Table: "M"}}, conjuncts...))
	key := e.Vocab().List(col("M", "A"), col("M", "B"), col("M", "C"))

	// EQ on A then range on B: both match, C's pred does not (range ends
	// the prefix).
	sel, matched := e.indexMatch(key, e.u.Preds())
	if matched != 2 {
		t.Fatalf("matched = %d, want 2", matched)
	}
	if math.Abs(sel-0.1*0.5) > 1e-9 {
		t.Errorf("prefix sel = %v, want 0.05", sel)
	}
	// No predicate on A: nothing matches.
	if _, m := e.indexMatch(key, e.u.PredSet(conjuncts[2])); m != 0 {
		t.Errorf("gap in prefix must stop matching, got %d", m)
	}
}

// TestVeneerOperatorsNeverLowerCost: Glue's cost bound skips a candidate whose
// own cost is already above the cheapest satisfying plan, which is sound only
// if no veneer operator prices below its input. One case per operator Glue
// injects, each component checked as well as the weighted total.
func TestVeneerOperatorsNeverLowerCost(t *testing.T) {
	e := testEnv(cEQ("T", "A", 3))
	a := e.Vocab().List(col("T", "A"))
	stored := price(t, e, &plan.Node{Op: plan.OpStore, Inputs: []*plan.Node{scanT(e)}})
	indexed := price(t, e, &plan.Node{Op: plan.OpBuildIndex, SortCols: a, Inputs: []*plan.Node{stored}})
	for _, n := range []*plan.Node{
		{Op: plan.OpShip, Site: "X", Inputs: []*plan.Node{scanT(e)}},
		{Op: plan.OpSort, SortCols: a, Inputs: []*plan.Node{scanT(e)}},
		stored,
		indexed,
		{Op: plan.OpAccess, Flavor: plan.FlavorIndex, SortCols: a,
			Preds: e.u.PredSet(cEQ("T", "A", 3)), Inputs: []*plan.Node{indexed}},
		{Op: plan.OpFilter, Preds: e.u.PredSet(cEQ("T", "A", 3)), Inputs: []*plan.Node{scanT(e)}},
	} {
		got, in := price(t, e, n).Props.Cost, n.Inputs[0].Props.Cost
		if got.Total < in.Total || got.IO < in.IO || got.CPU < in.CPU || got.Msg < in.Msg || got.Bytes < in.Bytes {
			t.Errorf("%s/%s prices at %+v, below its input's %+v", n.Op, n.Flavor, got, in)
		}
	}
}

// TestInternRelFindsEqualSets: InternRel dedupes on the column set, however
// it was built — a union of two lists in either order, duplicates included, or
// the whole list at once — in one environment and, with the same width, in
// another bound alike; it tells apart every other set, sums the width the
// name-resolved RowWidth does, and on a hit allocates nothing.
func TestInternRelFindsEqualSets(t *testing.T) {
	ta, tb, ts, ua, uv := col("T", "A"), col("T", "B"), col("T", "S"), col("U", "A"), col("U", "V")
	e := testEnv()
	v := e.Vocab()
	both := e.u.Tables("T", "U")
	seen := map[*plan.Rel]int{}
	for i, tc := range []struct{ a, b []expr.ColID }{
		{[]expr.ColID{ta, tb}, []expr.ColID{ua, uv}},
		{[]expr.ColID{ta, tb}, []expr.ColID{tb, ua, ta}},
		{[]expr.ColID{ta}, []expr.ColID{ua, ua, ta, ua}},
		{[]expr.ColID{ta, ta}, []expr.ColID{ta, ts}},
		{[]expr.ColID{ts}, nil},
		{nil, []expr.ColID{uv}},
		{nil, nil},
	} {
		whole := append(append([]expr.ColID{}, tc.a...), tc.b...)
		first, second := e, testEnv()
		r1 := first.InternRel(both, v.Set(tc.a...).Union(v.Set(tc.b...)), expr.PredSet{})
		r2 := second.InternRel(both, second.Vocab().Set(whole...), expr.PredSet{})
		if first.InternRel(both, v.Set(tc.b...).Union(v.Set(tc.a...)), expr.PredSet{}) != r1 ||
			second.InternRel(both, second.Vocab().Set(tc.a...).Union(second.Vocab().Set(tc.b...)), expr.PredSet{}) != r2 {
			t.Errorf("case %d: equal column sets intern different Rels", i)
		}
		if j, dup := seen[r1]; dup {
			t.Errorf("case %d: {%s} found case %d's Rel {%s}", i, v.Set(whole...), j, r1.Cols)
		}
		seen[r1] = i
		if r1.Width != r2.Width || r1.Width != e.RowWidth(r1.Cols.List(nil).IDs()) {
			t.Errorf("case %d: widths %v and %v, want RowWidth %v", i, r1.Width, r2.Width, e.RowWidth(r1.Cols.List(nil).IDs()))
		}
		cols := r1.Cols
		if n := testing.AllocsPerRun(100, func() { first.InternRel(both, cols, expr.PredSet{}) }); n != 0 {
			t.Errorf("case %d: a hit allocates %.1f, want 0", i, n)
		}
	}
}

// TestInternRelMissAllocatesNothingOnAWarmArena: a miss takes the Rel from
// the environment's arena and chains it into its bucket, so once the arena's
// chunks have grown — by an earlier environment, before the Reset that ended
// its life — and the bucket exists, interning a new column set allocates
// nothing. Every Rel interned stays findable.
func TestInternRelMissAllocatesNothingOnAWarmArena(t *testing.T) {
	warm := testEnv()
	v := warm.Vocab()
	sets := make([]expr.ColSet, 1<<v.Len())
	for m := range sets {
		var ids []expr.ColID
		for i := 0; i < v.Len(); i++ {
			if m>>i&1 != 0 {
				ids = append(ids, v.ID(i))
			}
		}
		sets[m] = v.Set(ids...)
	}
	arena := plan.NewArena()
	warm.Arena = arena
	both := warm.u.Tables("T", "U")
	for _, s := range sets {
		warm.InternRel(both, s, expr.PredSet{})
	}
	arena.Reset()

	e := testEnv()
	e.Arena = arena
	e.InternRel(both, sets[0], expr.PredSet{}) // the bucket
	i := 0
	if n := testing.AllocsPerRun(len(sets)-2, func() {
		i++
		if r := e.InternRel(both, sets[i], expr.PredSet{}); !r.Cols.Equal(sets[i]) {
			t.Fatalf("miss %d interned COLS {%s}", i, r.Cols)
		}
	}); n != 0 {
		t.Errorf("an InternRel miss on a warm arena allocates %.1f, want 0", n)
	}
	for j := 0; j <= i; j++ {
		if r := e.InternRel(both, sets[j], expr.PredSet{}); !r.Cols.Equal(sets[j]) {
			t.Fatalf("set %d: found COLS {%s}, want {%s}", j, r.Cols, sets[j])
		}
	}
}
