package expr

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"stars/internal/datum"
)

func bEnv(vals map[string]int64) MapBinding {
	b := MapBinding{}
	for k, v := range vals {
		parts := strings.SplitN(k, ".", 2)
		b[ColID{Table: parts[0], Col: parts[1]}] = datum.NewInt(v)
	}
	return b
}

func TestCmpEval(t *testing.T) {
	b := bEnv(map[string]int64{"T.A": 3, "T.B": 5})
	cases := []struct {
		op   CmpOp
		want bool
	}{
		{EQ, false}, {NE, true}, {LT, true}, {LE, true}, {GT, false}, {GE, false},
	}
	for _, c := range cases {
		e := &Cmp{Op: c.op, L: C("T", "A"), R: C("T", "B")}
		if got := EvalBool(e, b); got != c.want {
			t.Errorf("3 %s 5 = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	b := MapBinding{} // everything unbound -> NULL
	unknown := &Cmp{Op: EQ, L: C("T", "A"), R: &Const{Val: datum.NewInt(1)}}
	tru := &Cmp{Op: EQ, L: &Const{Val: datum.NewInt(1)}, R: &Const{Val: datum.NewInt(1)}}
	fls := &Cmp{Op: EQ, L: &Const{Val: datum.NewInt(1)}, R: &Const{Val: datum.NewInt(2)}}

	// false AND unknown = false
	if v := (&And{Kids: []Expr{fls, unknown}}).Eval(b); v.IsNull() || v.Bool() {
		t.Error("false AND unknown must be false")
	}
	// true AND unknown = unknown
	if v := (&And{Kids: []Expr{tru, unknown}}).Eval(b); !v.IsNull() {
		t.Error("true AND unknown must be unknown")
	}
	// true OR unknown = true
	if v := (&Or{Kids: []Expr{tru, unknown}}).Eval(b); v.IsNull() || !v.Bool() {
		t.Error("true OR unknown must be true")
	}
	// false OR unknown = unknown
	if v := (&Or{Kids: []Expr{fls, unknown}}).Eval(b); !v.IsNull() {
		t.Error("false OR unknown must be unknown")
	}
	// NOT unknown = unknown
	if v := (&Not{Kid: unknown}).Eval(b); !v.IsNull() {
		t.Error("NOT unknown must be unknown")
	}
	// EvalBool treats unknown as not satisfied.
	if EvalBool(unknown, b) {
		t.Error("unknown must not satisfy")
	}
}

func TestArithEval(t *testing.T) {
	b := bEnv(map[string]int64{"T.A": 10, "T.B": 4})
	cases := []struct {
		op   ArithOp
		want float64
	}{{Add, 14}, {Sub, 6}, {Mul, 40}, {Div, 2.5}}
	for _, c := range cases {
		e := &Arith{Op: c.op, L: C("T", "A"), R: C("T", "B")}
		v := e.Eval(b)
		if v.IsNull() || v.Float() != c.want {
			t.Errorf("10 %s 4 = %v, want %v", c.op, v, c.want)
		}
	}
	// Division by zero yields NULL, not a crash.
	z := &Arith{Op: Div, L: C("T", "A"), R: &Const{Val: datum.NewInt(0)}}
	if !z.Eval(b).IsNull() {
		t.Error("x/0 must be NULL")
	}
	// Arithmetic over strings yields NULL.
	s := &Arith{Op: Add, L: &Const{Val: datum.NewString("x")}, R: C("T", "A")}
	if !s.Eval(b).IsNull() {
		t.Error("'x' + int must be NULL")
	}
}

func TestKeyCanonicalization(t *testing.T) {
	ab := &Cmp{Op: EQ, L: C("T", "A"), R: C("U", "B")}
	ba := &Cmp{Op: EQ, L: C("U", "B"), R: C("T", "A")}
	if ab.Key() != ba.Key() {
		t.Error("a=b and b=a must share a key")
	}
	lt := &Cmp{Op: LT, L: C("T", "A"), R: C("U", "B")}
	gt := &Cmp{Op: GT, L: C("U", "B"), R: C("T", "A")}
	if lt.Key() != gt.Key() {
		t.Error("a<b and b>a must share a key")
	}
	ltKeep := &Cmp{Op: LT, L: C("T", "A"), R: C("U", "B")}
	gtDiff := &Cmp{Op: GT, L: C("T", "A"), R: C("U", "B")}
	if ltKeep.Key() == gtDiff.Key() {
		t.Error("a<b and a>b must differ")
	}
	and1 := &And{Kids: []Expr{ab, lt}}
	and2 := &And{Kids: []Expr{lt, ab}}
	if and1.Key() != and2.Key() {
		t.Error("conjunct order must not affect the key")
	}
}

// TestShapeKeyMasksLiterals: ShapeKey is Key with constants as "?", keeping
// Key's canonicalization.
func TestShapeKeyMasksLiterals(t *testing.T) {
	lit := func(v int64) Expr { return &Const{Val: datum.NewInt(v)} }
	eq := func(v int64) Expr { return &Cmp{Op: EQ, L: C("T", "A"), R: lit(v)} }
	if eq(1).Key() == eq(2).Key() || ShapeKey(eq(1)) != ShapeKey(eq(2)) {
		t.Errorf("T.A=1 / T.A=2: keys %q %q, shape keys %q %q", eq(1).Key(), eq(2).Key(), ShapeKey(eq(1)), ShapeKey(eq(2)))
	}
	if got := ShapeKey(eq(1)); got != "(?=T.A)" {
		t.Errorf("ShapeKey(T.A=1) = %q", got)
	}
	flipped := &Cmp{Op: GT, L: lit(7), R: C("T", "A")}
	if ShapeKey(flipped) != ShapeKey(&Cmp{Op: LT, L: C("T", "A"), R: lit(9)}) {
		t.Error("7>T.A and T.A<9 must share a shape key")
	}
	if ShapeKey(eq(1)) == ShapeKey(&Cmp{Op: EQ, L: C("T", "B"), R: lit(1)}) {
		t.Error("different columns must not share a shape key")
	}
	nested := &Not{Kid: &Or{Kids: []Expr{eq(1), &And{Kids: []Expr{eq(2),
		&Cmp{Op: LE, L: &Arith{Op: Add, L: C("U", "C"), R: lit(3)}, R: lit(4)}}}}}}
	if got, want := ShapeKey(nested), "NOT(OR((?=T.A),AND(((U.C+?)<=?),(?=T.A))))"; got != want {
		t.Errorf("ShapeKey(nested) = %q, want %q", got, want)
	}
	joinPred := &Cmp{Op: EQ, L: C("T", "A"), R: C("U", "B")}
	if ShapeKey(joinPred) != joinPred.Key() {
		t.Error("a literal-free predicate's shape key must be its key")
	}
}

// genExpr builds a random expression over T.A, T.B, U.C with bounded depth.
func genExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			return &Const{Val: datum.NewInt(int64(r.Intn(5)))}
		case 1:
			return C("T", []string{"A", "B"}[r.Intn(2)])
		default:
			return C("U", "C")
		}
	}
	switch r.Intn(5) {
	case 0:
		return &Cmp{Op: CmpOp(r.Intn(6)), L: genExpr(r, depth-1), R: genExpr(r, depth-1)}
	case 1:
		return &Arith{Op: ArithOp(r.Intn(4)), L: genExpr(r, depth-1), R: genExpr(r, depth-1)}
	case 2:
		return &And{Kids: []Expr{genExpr(r, depth-1), genExpr(r, depth-1)}}
	case 3:
		return &Or{Kids: []Expr{genExpr(r, depth-1), genExpr(r, depth-1)}}
	default:
		return &Not{Kid: genExpr(r, depth-1)}
	}
}

// TestKeyIsDeterministicAndEvalStable property-checks that structurally
// rebuilt expressions keep their key and that evaluation is deterministic.
func TestKeyIsDeterministicAndEvalStable(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	b := bEnv(map[string]int64{"T.A": 1, "T.B": 2, "U.C": 3})
	for i := 0; i < 500; i++ {
		e := genExpr(r, 4)
		if e.Key() != e.Key() {
			t.Fatal("Key not deterministic")
		}
		v1, v2 := e.Eval(b), e.Eval(b)
		if v1.String() != v2.String() {
			t.Fatalf("Eval not deterministic for %s", e)
		}
	}
}

// TestRebindPreservesSemantics property-checks that renaming quantifiers
// and renaming the binding agree.
func TestColumnsAndTables(t *testing.T) {
	e := &And{Kids: []Expr{
		&Cmp{Op: EQ, L: C("T", "A"), R: C("U", "C")},
		&Cmp{Op: LT, L: C("T", "B"), R: &Const{Val: datum.NewInt(5)}},
	}}
	cols := Columns(e)
	if len(cols) != 3 {
		t.Fatalf("columns = %v", cols)
	}
	// Sorted order.
	if cols[0] != (ColID{"T", "A"}) || cols[1] != (ColID{"T", "B"}) || cols[2] != (ColID{"U", "C"}) {
		t.Errorf("columns not sorted: %v", cols)
	}
	tbls := Tables(e)
	if len(tbls) != 2 || tbls[0] != "T" || tbls[1] != "U" {
		t.Errorf("tables = %v", tbls)
	}
}

func TestConjuncts(t *testing.T) {
	a := &Cmp{Op: EQ, L: C("T", "A"), R: &Const{Val: datum.NewInt(1)}}
	b := &Cmp{Op: EQ, L: C("T", "B"), R: &Const{Val: datum.NewInt(2)}}
	c := &Cmp{Op: EQ, L: C("U", "C"), R: &Const{Val: datum.NewInt(3)}}
	nested := &And{Kids: []Expr{a, &And{Kids: []Expr{b, c}}}}
	got := Conjuncts(nested)
	if len(got) != 3 {
		t.Fatalf("conjuncts = %d, want 3", len(got))
	}
	if len(Conjuncts(a)) != 1 {
		t.Error("a lone predicate is its own conjunct")
	}
}

func TestContainsOr(t *testing.T) {
	a := &Cmp{Op: EQ, L: C("T", "A"), R: C("U", "C")}
	if ContainsOr(a) {
		t.Error("plain comparison has no OR")
	}
	o := &And{Kids: []Expr{a, &Or{Kids: []Expr{a, a}}}}
	if !ContainsOr(o) {
		t.Error("nested OR must be found")
	}
}

func TestFlip(t *testing.T) {
	pairs := map[CmpOp]CmpOp{LT: GT, LE: GE, GT: LT, GE: LE, EQ: EQ, NE: NE}
	for op, want := range pairs {
		if op.Flip() != want {
			t.Errorf("%s.Flip() = %s, want %s", op, op.Flip(), want)
		}
	}
}

// TestQuickCmpFlipEquivalence property-checks a op b == b flip(op) a.
func TestQuickCmpFlipEquivalence(t *testing.T) {
	f := func(a, b int64, opRaw uint8) bool {
		op := CmpOp(opRaw % 6)
		l := &Const{Val: datum.NewInt(a)}
		r := &Const{Val: datum.NewInt(b)}
		e1 := &Cmp{Op: op, L: l, R: r}
		e2 := &Cmp{Op: op.Flip(), L: r, R: l}
		return e1.Eval(nil).String() == e2.Eval(nil).String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
