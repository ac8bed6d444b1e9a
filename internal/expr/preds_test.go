package expr

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"stars/internal/datum"
)

func eq(l, r Expr) Expr  { return &Cmp{Op: EQ, L: l, R: r} }
func lt(l, r Expr) Expr  { return &Cmp{Op: LT, L: l, R: r} }
func ci(v int64) Expr    { return &Const{Val: datum.NewInt(v)} }
func add(l, r Expr) Expr { return &Arith{Op: Add, L: l, R: r} }

// mustVocab builds the vocabulary of u's predicate columns and extra.
func mustVocab(t testing.TB, u *Universe, extra ...ColID) *Vocab {
	t.Helper()
	return NewVocab(u, append(u.Preds().Columns(), extra...))
}

// mustUniverse builds the universe of the given quantifiers and conjuncts.
func mustUniverse(t testing.TB, quants []string, conjuncts ...Expr) *Universe {
	t.Helper()
	u, err := NewUniverse(quants, conjuncts)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestPredSetOps(t *testing.T) {
	a := eq(C("T", "A"), ci(1))
	b := eq(C("T", "B"), ci(2))
	c := eq(C("U", "C"), ci(3))
	u := mustUniverse(t, []string{"T", "U"}, a, b, c)
	s1 := u.PredSet(a, b)
	s2 := u.PredSet(b, c)

	if got := s1.Union(s2).Len(); got != 3 {
		t.Errorf("union len = %d", got)
	}
	if got := s1.Minus(s2).Len(); got != 1 {
		t.Errorf("minus len = %d", got)
	}
	if got := s1.Intersect(s2).Len(); got != 1 {
		t.Errorf("intersect len = %d", got)
	}
	if !s1.Contains(eq(ci(1), C("T", "A"))) {
		t.Error("Contains must see structural equality (canonicalized)")
	}
	if s1.Equal(s2) {
		t.Error("different sets must not be equal")
	}
	if !s1.Union(s2).Equal(s2.Union(s1)) {
		t.Error("union must commute")
	}
}

// TestPredSetAlgebra property-checks the set laws the rule engine relies on.
func TestPredSetAlgebra(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pool := []Expr{
		eq(C("T", "A"), ci(1)), eq(C("T", "B"), ci(2)), eq(C("U", "C"), ci(3)),
		eq(C("T", "A"), C("U", "C")), lt(C("T", "B"), C("U", "C")),
	}
	u := mustUniverse(t, []string{"T", "U"}, pool...)
	pick := func() PredSet {
		var ps []Expr
		for _, p := range pool {
			if r.Intn(2) == 0 {
				ps = append(ps, p)
			}
		}
		return u.PredSet(ps...)
	}
	for i := 0; i < 300; i++ {
		a, b := pick(), pick()
		if !a.Minus(b).Union(a.Intersect(b)).Equal(a) {
			t.Fatal("(a-b) ∪ (a∩b) must equal a")
		}
		if !a.Union(b).Minus(b).Equal(a.Minus(b)) {
			t.Fatal("(a∪b)-b must equal a-b")
		}
		if a.Union(a).Len() != a.Len() {
			t.Fatal("union must be idempotent")
		}
	}
}

func TestPredSetKeyDeterministic(t *testing.T) {
	a := eq(C("T", "A"), ci(1))
	b := eq(C("T", "B"), ci(2))
	u1 := mustUniverse(t, []string{"T"}, a, b)
	u2 := mustUniverse(t, []string{"T"}, b, a, b)
	if u1.Preds().Key() != u2.Preds().Key() || u2.Preds().Len() != 2 {
		t.Error("set key must not depend on insertion order or duplicates")
	}
	if u1.PredSet(a, b).Key() != u1.PredSet(b, a).Key() {
		t.Error("set key must not depend on insertion order")
	}
}

func TestTableSetOps(t *testing.T) {
	// FROM order C, B, A: ordinals follow it, names render sorted.
	u := mustUniverse(t, []string{"C", "B", "A", "D"})
	s := u.Tables("B", "A")
	if s.Key() != "A,B" || !slices.Equal(s.Slice(), []string{"A", "B"}) {
		t.Errorf("key = %q, slice = %v", s.Key(), s.Slice())
	}
	if !s.Contains("A") || s.Contains("C") || s.Contains("NOPE") {
		t.Error("membership")
	}
	all := s.Union(u.Tables("C")).Union(u.Tables("D"))
	if all.Len() != 4 || !all.ContainsAll(s) || s.ContainsAll(all) || !all.Equal(u.All()) {
		t.Error("union/containsAll")
	}
	if !s.Equal(u.Tables("A", "B")) || !s.Equal(u.Subset(0b110)) {
		t.Error("equality: bit i is the i-th quantifier in FROM order")
	}
	var zero TableSet
	if !zero.Empty() || zero.Key() != "" || zero.Slice() != nil || zero.Contains("A") || !zero.Union(s).Equal(s) {
		t.Error("the zero value is the empty set in any universe")
	}
}

// The Section 4 classification fixtures: T1 = {D}, T2 = {E}.
var (
	pJoin    = eq(C("D", "DNO"), C("E", "DNO"))                     // JP, SP, HP, XP
	pExprJn  = eq(add(C("D", "X"), ci(1)), C("E", "Y"))             // JP, HP, XP (expr on outer)
	pIneqJn  = lt(C("D", "X"), C("E", "Y"))                         // JP, XP; not SP/HP
	pInner   = eq(C("E", "SAL"), ci(9))                             // IP
	pOuter   = eq(C("D", "MGR"), ci(1))                             // neither (outer only)
	pOrJoin  = &Or{Kids: []Expr{pJoin, pInner}}                     // excluded from JP (OR)
	pBothExp = eq(add(C("D", "X"), ci(0)), add(C("E", "Y"), ci(0))) // JP, HP; not XP (inner not bare col)
)

// deUniverse is the universe of the classification fixtures plus any extra
// conjuncts a test classifies.
func deUniverse(t testing.TB, extra ...Expr) (u *Universe, t1, t2 TableSet) {
	u = mustUniverse(t, []string{"D", "E"},
		append([]Expr{pJoin, pExprJn, pIneqJn, pInner, pOuter, pOrJoin, pBothExp}, extra...)...)
	return u, u.Tables("D"), u.Tables("E")
}

func TestJoinPreds(t *testing.T) {
	u, t1, t2 := deUniverse(t)
	p := u.PredSet(pJoin, pExprJn, pIneqJn, pInner, pOuter, pOrJoin)
	jp := JoinPreds(p, t1, t2)
	if jp.Len() != 3 {
		t.Fatalf("JP = %s", jp)
	}
	for _, want := range []Expr{pJoin, pExprJn, pIneqJn} {
		if !jp.Contains(want) {
			t.Errorf("JP missing %s", want)
		}
	}
	if jp.Contains(pOrJoin) {
		t.Error("OR predicates must be excluded from JP")
	}
}

func TestSortablePreds(t *testing.T) {
	u, t1, t2 := deUniverse(t)
	p := u.PredSet(pJoin, pExprJn, pIneqJn, pBothExp)
	sp := SortablePreds(p, t1, t2)
	if sp.Len() != 1 || !sp.Contains(pJoin) {
		t.Fatalf("SP = %s, want only col=col", sp)
	}
	// Symmetric in the sides.
	sp2 := SortablePreds(p, t2, t1)
	if !sp.Equal(sp2) {
		t.Error("SP must be symmetric in T1/T2")
	}
}

func TestHashablePreds(t *testing.T) {
	u, t1, t2 := deUniverse(t)
	p := u.PredSet(pJoin, pExprJn, pIneqJn, pBothExp, pInner)
	hp := HashablePreds(p, t1, t2)
	if hp.Len() != 3 {
		t.Fatalf("HP = %s", hp)
	}
	for _, want := range []Expr{pJoin, pExprJn, pBothExp} {
		if !hp.Contains(want) {
			t.Errorf("HP missing %s", want)
		}
	}
	if hp.Contains(pIneqJn) {
		t.Error("inequalities are not hashable")
	}
}

func TestIndexablePreds(t *testing.T) {
	u, t1, t2 := deUniverse(t)
	p := u.PredSet(pJoin, pExprJn, pIneqJn, pBothExp)
	xp := IndexablePreds(p, t1, t2)
	// pJoin: D.DNO vs E.DNO — inner bare col ✓; pExprJn: expr vs E.Y ✓;
	// pIneqJn: D.X < E.Y ✓; pBothExp: inner side is an expression ✗.
	if xp.Len() != 3 {
		t.Fatalf("XP = %s", xp)
	}
	if xp.Contains(pBothExp) {
		t.Error("expression on the inner side is not indexable")
	}
	// Asymmetric: flipping sides changes which column must be bare.
	xpFlip := IndexablePreds(u.PredSet(pExprJn), t2, t1)
	if xpFlip.Len() != 0 {
		t.Errorf("expr(χ(T1)) op T2.col flipped must be empty, got %s", xpFlip)
	}
}

func TestInnerPreds(t *testing.T) {
	u, _, t2 := deUniverse(t)
	p := u.PredSet(pJoin, pInner, pOuter)
	ip := InnerPreds(p, t2)
	if ip.Len() != 1 || !ip.Contains(pInner) {
		t.Fatalf("IP = %s", ip)
	}
}

func TestSortColsForPairsUp(t *testing.T) {
	p2 := eq(C("D", "A2"), C("E", "B2"))
	u, t1, t2 := deUniverse(t, p2)
	sp := u.PredSet(pJoin, p2)
	v := mustVocab(t, u)
	outer := v.SortColsFor(sp, t1, nil)
	inner := v.SortColsFor(sp, t2, nil)
	if outer.Len() != 2 || inner.Len() != 2 {
		t.Fatalf("outer=%v inner=%v", outer, inner)
	}
	// Canonical order pairs the columns: position i of each side belongs
	// to the same predicate.
	for i := 0; i < outer.Len(); i++ {
		found := false
		for _, pr := range sp.Slice() {
			c := pr.(*Cmp)
			lc, _ := c.L.(*Col)
			rc, _ := c.R.(*Col)
			if (lc.ID == outer.ID(i) && rc.ID == inner.ID(i)) || (rc.ID == outer.ID(i) && lc.ID == inner.ID(i)) {
				found = true
			}
		}
		if !found {
			t.Fatalf("pairing broken at %d: %v / %v", i, outer, inner)
		}
	}
}

func TestIndexColsForEqFirst(t *testing.T) {
	xpEq := eq(C("D", "X"), C("E", "B"))
	xpRange := lt(C("D", "X"), C("E", "A"))
	ipEq := eq(C("E", "C"), ci(1))
	u, _, t2 := deUniverse(t, xpEq, xpRange, ipEq)
	ix := mustVocab(t, u).IndexColsFor(u.PredSet(xpRange, xpEq), u.PredSet(ipEq), t2, nil)
	if ix.Len() != 3 {
		t.Fatalf("IX = %v", ix)
	}
	// Equality columns (B from XP, C from IP) come before the range column A.
	last := ix.ID(ix.Len() - 1)
	if last != (ColID{"E", "A"}) {
		t.Errorf("range column must come last: %v", ix)
	}
}

func TestMatchIndexPrefix(t *testing.T) {
	pa := eq(C("E", "A"), ci(1))
	pb := eq(C("E", "B"), C("D", "X")) // bound join pred counts
	pcRange := lt(C("E", "C"), ci(9))
	pd := eq(C("E", "D"), ci(2)) // not a key column
	pbRange := lt(C("E", "B"), ci(5))
	self := eq(C("E", "A"), C("E", "B"))
	u, _, _ := deUniverse(t, pa, pb, pcRange, pd, pbRange, self)
	key := mustVocab(t, u).List(ColID{"E", "A"}, ColID{"E", "B"}, ColID{"E", "C"})

	m := MatchIndexPrefix(u.PredSet(pa, pb, pcRange, pd), key)
	if m.Len() != 3 {
		t.Fatalf("matched = %s", m)
	}
	// A gap in the prefix stops matching.
	m2 := MatchIndexPrefix(u.PredSet(pb, pcRange), key)
	if m2.Len() != 0 {
		t.Fatalf("no prefix on A: matched = %s", m2)
	}
	// A range pred terminates the prefix: C's pred cannot match after a
	// range on B.
	m3 := MatchIndexPrefix(u.PredSet(pa, pbRange, pcRange), key)
	if m3.Len() != 2 || !m3.Contains(pa) || !m3.Contains(pbRange) {
		t.Fatalf("range must end the prefix: %s", m3)
	}
	// Predicates referencing the indexed quantifier on both sides cannot
	// be applied by a probe.
	if MatchIndexPrefix(u.PredSet(self), key).Len() != 0 {
		t.Error("self-referencing predicate must not match")
	}
}

// TestClassificationSubsets property-checks the paper's containments:
// SP ⊆ JP, HP ⊆ JP, XP ⊆ JP, and IP ∩ JP = ∅ for two-sided sets.
func TestClassificationSubsets(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	mkPred := func() Expr {
		mk := func() Expr {
			switch r.Intn(4) {
			case 0:
				return C("D", []string{"X", "DNO"}[r.Intn(2)])
			case 1:
				return C("E", []string{"Y", "DNO"}[r.Intn(2)])
			case 2:
				return ci(int64(r.Intn(5)))
			default:
				return add(C("D", "X"), ci(1))
			}
		}
		return &Cmp{Op: CmpOp(r.Intn(6)), L: mk(), R: mk()}
	}
	f := func() bool {
		var ps []Expr
		for i := 0; i < 6; i++ {
			ps = append(ps, mkPred())
		}
		u, t1, t2 := deUniverse(t, ps...)
		p := u.PredSet(ps...)
		jp := JoinPreds(p, t1, t2)
		for _, cls := range []PredSet{
			SortablePreds(p, t1, t2),
			HashablePreds(p, t1, t2),
			IndexablePreds(p, t1, t2),
		} {
			if cls.Minus(jp).Len() != 0 {
				return false
			}
		}
		if InnerPreds(p, t2).Intersect(jp).Len() != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(func(_ uint8) bool { return f() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
