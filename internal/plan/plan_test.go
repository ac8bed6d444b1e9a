package plan

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"stars/internal/datum"
	"stars/internal/expr"
)

func col(t, c string) expr.ColID { return expr.ColID{Table: t, Col: c} }

// testVocab is the column vocabulary of hand-built plans: columns A to D and
// the TID of quantifiers S, T, U, EMP and DEPT.
var testVocab = func() *expr.Vocab {
	quants := []string{"S", "T", "U", "EMP", "DEPT"}
	u, err := expr.NewUniverse(quants, nil)
	if err != nil {
		panic(err)
	}
	var ids []expr.ColID
	for _, q := range quants {
		for _, c := range []string{"A", "B", "C", "D", TIDCol} {
			ids = append(ids, col(q, c))
		}
	}
	return expr.NewVocab(u, ids)
}()

// colList returns the list of the given columns of testVocab.
func colList(ids ...expr.ColID) expr.ColList { return testVocab.List(ids...) }

func pred(t, c string, v int64) expr.Expr {
	return &expr.Cmp{Op: expr.EQ, L: expr.C(t, c), R: &expr.Const{Val: datum.NewInt(v)}}
}

// predSet returns the set of the given conjuncts, in a universe made of
// exactly them and the quantifiers they mention.
func predSet(ps ...expr.Expr) expr.PredSet {
	var quants []string
	for _, p := range ps {
		for _, q := range expr.Tables(p) {
			if !slices.Contains(quants, q) {
				quants = append(quants, q)
			}
		}
	}
	u, err := expr.NewUniverse(quants, ps)
	if err != nil {
		panic(err)
	}
	return u.Preds()
}

// tableSet returns the set of the given quantifiers, in a universe made of
// exactly them.
func tableSet(names ...string) expr.TableSet {
	u, err := expr.NewUniverse(names, nil)
	if err != nil {
		panic(err)
	}
	return u.All()
}

func scan(table string) *Node {
	return &Node{Op: OpAccess, Flavor: FlavorHeap, Table: table, Quantifier: table,
		Cols: colList(col(table, "A"))}
}

func TestValidate(t *testing.T) {
	ok := []*Node{
		scan("T"),
		{Op: OpSort, SortCols: colList(col("T", "A")), Inputs: []*Node{scan("T")}},
		{Op: OpShip, Site: "X", Inputs: []*Node{scan("T")}},
		{Op: OpJoin, Flavor: MethodNL, Inputs: []*Node{scan("T"), scan("U")}},
		{Op: OpGet, Table: "T", Inputs: []*Node{scan("T")}},
		{Op: OpAccess, Flavor: FlavorHeap, Inputs: []*Node{scan("T")}},                                    // temp access
		{Op: OpAccess, Flavor: FlavorIndex, SortCols: colList(col("T", "A")), Inputs: []*Node{scan("T")}}, // temp probe
	}
	for i, n := range ok {
		if err := n.Validate(); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
	bad := []*Node{
		{Op: OpAccess}, // no table
		{Op: OpAccess, Flavor: FlavorIndex, Table: "T"},                   // index without path
		{Op: OpSort, Inputs: []*Node{scan("T")}},                          // no sort cols
		{Op: OpJoin, Inputs: []*Node{scan("T"), scan("U")}},               // no method
		{Op: OpJoin, Flavor: MethodNL, Inputs: []*Node{scan("T")}},        // arity
		{Op: OpGet, Inputs: []*Node{scan("T")}},                           // no table
		{Op: OpBuildIndex, Inputs: []*Node{scan("T")}},                    // no key
		{Op: OpAccess, Table: "T", Inputs: []*Node{scan("T"), scan("U")}}, // too many inputs
		{Op: OpAccess, Flavor: FlavorIndex, Inputs: []*Node{scan("T")}},   // temp probe without key
	}
	for i, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("bad case %d did not fail", i)
		}
	}
}

func TestKeyDistinguishes(t *testing.T) {
	a := scan("T")
	b := scan("T")
	if a.Key() != b.Key() {
		t.Error("identical structure must share a key")
	}
	c := scan("U")
	if a.Key() == c.Key() {
		t.Error("different tables must differ")
	}
	j1 := &Node{Op: OpJoin, Flavor: MethodNL, Inputs: []*Node{a, c}}
	j2 := &Node{Op: OpJoin, Flavor: MethodMG, Inputs: []*Node{a, c}}
	if j1.Key() == j2.Key() {
		t.Error("method flavors must differ")
	}
	j3 := &Node{Op: OpJoin, Flavor: MethodNL, Inputs: []*Node{c, a}}
	if j1.Key() == j3.Key() {
		t.Error("input order must differ (join inputs are ordered)")
	}
	// Predicate order inside a node does not change the key.
	p1 := &Node{Op: OpFilter, Preds: predSet(pred("T", "A", 1), pred("T", "B", 2)), Inputs: []*Node{a}}
	p2 := &Node{Op: OpFilter, Preds: predSet(pred("T", "B", 2), pred("T", "A", 1)), Inputs: []*Node{a}}
	if p1.Key() != p2.Key() {
		t.Error("predicate order must not affect the key")
	}
}

// TestShapeFingerprintIgnoresLiterals: plans differing only in predicate
// constants share a shape fingerprint — even when the constants reorder the
// predicate set — and plans differing in anything else do not.
func TestShapeFingerprintIgnoresLiterals(t *testing.T) {
	build := func(a, b int64, method string) *Node {
		left := scan("T")
		left.Preds = predSet(pred("T", "A", a), pred("T", "B", b))
		return &Node{Op: OpJoin, Flavor: method, Inputs: []*Node{left, scan("U")},
			Residual: predSet(pred("U", "A", a))}
	}
	x, y := build(1, 9, MethodNL), build(9, 1, MethodNL)
	if x.Fingerprint() == y.Fingerprint() {
		t.Fatal("fingerprints must carry the literals")
	}
	x.ID() // a published identity must not leak literals into the shape
	if x.ShapeFingerprint() != y.ShapeFingerprint() {
		t.Errorf("same shape, different literals: %s vs %s", x.ShapeFingerprint(), y.ShapeFingerprint())
	}
	if len(x.ShapeFingerprint()) != 16 || x.ShapeFingerprint() == x.Fingerprint() {
		t.Errorf("shape fingerprint %q (fingerprint %q)", x.ShapeFingerprint(), x.Fingerprint())
	}
	if x.ShapeFingerprint() == build(1, 9, MethodMG).ShapeFingerprint() {
		t.Error("a different join method must change the shape")
	}
	bare := scan("T")
	if bare.ShapeFingerprint() != bare.Fingerprint() {
		t.Error("a literal-free plan's shape fingerprint must equal its fingerprint")
	}
}

func TestFingerprintIsStableAndDistinguishes(t *testing.T) {
	a := scan("T")
	b := scan("T")
	fp := a.Fingerprint()
	if len(fp) != 16 {
		t.Fatalf("fingerprint %q is not 16 hex digits", fp)
	}
	for _, c := range fp {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			t.Fatalf("fingerprint %q has a non-hex digit", fp)
		}
	}
	if fp != b.Fingerprint() {
		t.Error("identical structure must share a fingerprint")
	}
	if fp != a.Fingerprint() {
		t.Error("Fingerprint must be stable")
	}
	// The displayed form is the hash of the node's own operator and
	// parameters, then each input's ID as eight bytes, low first, zero-padded:
	// a leaf's is the hash of its Key, and a parent never re-reads its inputs'
	// parameters.
	h := fnv.New64a()
	h.Write([]byte(a.Key()))
	if want := fmt.Sprintf("%016x", h.Sum64()); fp != want || a.ID() != h.Sum64() {
		t.Errorf("leaf fingerprint %s (ID %x), want FNV-1a of Key %s", fp, a.ID(), want)
	}
	sorted := &Node{Op: OpSort, SortCols: colList(col("T", "A")), Inputs: []*Node{a}}
	h.Reset()
	h.Write([]byte("SORT(s=T.A)"))
	h.Write(binary.LittleEndian.AppendUint64(nil, a.ID()))
	if sorted.ID() != h.Sum64() {
		t.Errorf("SORT's ID %x, want FNV-1a of its own parameters and its input's ID %x", sorted.ID(), h.Sum64())
	}
	if sorted.Key() != "SORT(s=T.A;"+a.Key()+")" {
		t.Errorf("Key %q must still render the inputs", sorted.Key())
	}
	if got := FormatID(0xabc); got != "0000000000000abc" {
		t.Errorf("FormatID(0xabc) = %q", got)
	}
	if fp == scan("U").Fingerprint() {
		t.Error("different plans must differ")
	}
	// The fingerprint is a pure function of the plan's structure, so it is
	// stable across processes — the property Diff and -whynot addressing rely on. Pin
	// the value so accidental hash changes are caught.
	fresh := scan("T")
	if got := fresh.Fingerprint(); got != fp {
		t.Errorf("fingerprint changed: %s vs %s", got, fp)
	}
}

// deepPlan builds a never-hashed left-deep join over n scans that share one
// subplan, the shape enumeration hands its workers.
func deepPlan(n int) *Node {
	shared := scan("S")
	shared.Preds = predSet(pred("S", "A", 1))
	cur := &Node{Op: OpSort, SortCols: colList(col("S", "A")), Inputs: []*Node{shared}}
	for i := 0; i < n; i++ {
		cur = &Node{Op: OpJoin, Flavor: MethodNL, Inputs: []*Node{cur, shared},
			Residual: predSet(pred("S", "A", int64(i)))}
	}
	return cur
}

// TestIDIsSafeToShare: any number of goroutines may ask a freshly built,
// never-hashed plan DAG — and its shared interior nodes — for its identity at
// once, and all get the same answer. Run under -race: ID publishes with
// sync/atomic, there is no "memoize before sharing" protocol to follow.
func TestIDIsSafeToShare(t *testing.T) {
	root := deepPlan(12)
	want := deepPlan(12).ID()
	const G = 8
	got := make([]uint64, G)
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Half the goroutines start at an interior node, so parents and
			// children are hashed and published concurrently.
			if g%2 == 1 {
				root.Outer().ID()
				root.Outer().Inner().ID()
			}
			got[g] = root.ID()
		}(g)
	}
	wg.Wait()
	for g, id := range got {
		if id != want || id == 0 {
			t.Errorf("goroutine %d read identity %x, want %x", g, id, want)
		}
	}
}

// TestIDHashesWithoutAllocating: computing an identity streams the key
// through the hash and allocates nothing, first call included; rendering it
// costs the one 16-byte string.
func TestIDHashesWithoutAllocating(t *testing.T) {
	root := deepPlan(6)
	var sum uint64
	if n := testing.AllocsPerRun(100, func() {
		atomic.StoreUint64(&root.id, 0) // forget the published identity: hash again
		sum += root.ID()
	}); n != 0 {
		t.Errorf("ID allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sum += uint64(len(root.Fingerprint())) }); n > 1 {
		t.Errorf("Fingerprint allocates %.1f/op, want <= 1", n)
	}
	if sum == 0 {
		t.Error("identities must be nonzero")
	}
}

func TestWalkAndCount(t *testing.T) {
	shared := scan("T")
	j := &Node{Op: OpJoin, Flavor: MethodNL, Inputs: []*Node{shared,
		&Node{Op: OpFilter, Preds: predSet(pred("T", "A", 1)), Inputs: []*Node{shared}}}}
	if j.Count() != 3 {
		t.Errorf("distinct nodes = %d, want 3 (shared subplan counted once)", j.Count())
	}
	visits := 0
	j.Walk(func(*Node) { visits++ })
	if visits != 4 {
		t.Errorf("walk visits = %d (per reference)", visits)
	}
	if j.Outer() != shared || j.Inner().Op != OpFilter {
		t.Error("Outer/Inner accessors")
	}
}

func TestOrderSatisfies(t *testing.T) {
	ab := colList(col("T", "A"), col("T", "B"))
	a := colList(col("T", "A"))
	if !OrderSatisfies(ab, a) {
		t.Error("prefix satisfies")
	}
	if OrderSatisfies(a, ab) {
		t.Error("longer requirement not satisfied by shorter order")
	}
	if !OrderSatisfies(ab, expr.ColList{}) {
		t.Error("empty requirement always satisfied")
	}
	if OrderSatisfies(expr.ColList{}, a) {
		t.Error("unknown order satisfies nothing")
	}
}

func TestReqdMergeAndSatisfied(t *testing.T) {
	la := "LA"
	ny := "NY"
	r1 := Reqd{Order: colList(col("T", "A"))}
	r2 := Reqd{Site: &la, Temp: true}
	m := r1.Merge(r2)
	if m.Order.Len() != 1 || m.Site == nil || *m.Site != "LA" || !m.Temp {
		t.Fatalf("merge = %+v", m)
	}
	// Later site requirements win.
	m2 := m.Merge(Reqd{Site: &ny})
	if *m2.Site != "NY" {
		t.Error("later site must win")
	}
	p := &Props{Order: colList(col("T", "A"), col("T", "B")), Site: "LA", Temp: true}
	if !m.SatisfiedBy(p) {
		t.Error("props satisfy merged requirements")
	}
	p.Site = "NY"
	if m.SatisfiedBy(p) {
		t.Error("site mismatch must not satisfy")
	}
	if !(Reqd{}).Empty() || m.Empty() {
		t.Error("Empty()")
	}
	if !strings.Contains(m.String(), "site=LA") {
		t.Errorf("String = %s", m.String())
	}
}

func TestReqdPathCols(t *testing.T) {
	r := Reqd{PathCols: colList(col("T", "A"))}
	p := &Props{Paths: []PathInfo{{Name: "ix", Cols: colList(col("T", "A"), col("T", "B"))}}}
	if !r.SatisfiedBy(p) {
		t.Error("prefix-matching path satisfies")
	}
	p2 := &Props{Paths: []PathInfo{{Name: "ix", Cols: colList(col("T", "B"))}}}
	if r.SatisfiedBy(p2) {
		t.Error("non-prefix path must not satisfy")
	}
	if p.PathOn(colList(col("T", "A"))) == nil {
		t.Error("PathOn")
	}
}

func TestDominates(t *testing.T) {
	base := &Props{Cost: Cost{Total: 10}, Rescan: Cost{Total: 10}, Site: ""}
	cheaper := &Props{Cost: Cost{Total: 5}, Rescan: Cost{Total: 5}, Site: ""}
	ordered := &Props{Cost: Cost{Total: 12}, Rescan: Cost{Total: 12}, Site: "",
		Order: colList(col("T", "A"))}
	if !Dominates(cheaper, base) {
		t.Error("cheaper same-properties plan dominates")
	}
	if Dominates(base, cheaper) {
		t.Error("pricier plan must not dominate")
	}
	if Dominates(cheaper, ordered) {
		t.Error("an ordered plan is shielded by its order")
	}
	if Dominates(ordered, base) {
		t.Error("pricier ordered plan must not dominate unordered")
	}
	remote := &Props{Cost: Cost{Total: 1}, Site: "NY"}
	if Dominates(remote, base) {
		t.Error("different sites never dominate")
	}
	temp := &Props{Cost: Cost{Total: 12}, Temp: true}
	if Dominates(cheaper, temp) {
		t.Error("a temp is shielded from non-temps")
	}
	cheapRescan := &Props{Cost: Cost{Total: 11}, Rescan: Cost{Total: 1}}
	if Dominates(base, cheapRescan) {
		t.Error("a cheap-rescan plan is shielded")
	}
	narrow := &Props{Cost: Cost{Total: 11}, Rescan: Cost{Total: 11}, Rel: &Rel{Width: 16}}
	if Dominates(&Props{Cost: Cost{Total: 5}, Rescan: Cost{Total: 5}, Rel: &Rel{Width: 24}}, narrow) {
		t.Error("a narrower plan is shielded: every SORT or STORE above it is cheaper")
	}
	if !Dominates(&Props{Cost: Cost{Total: 5}, Rescan: Cost{Total: 5}, Rel: &Rel{Width: 16}}, narrow) {
		t.Error("a cheaper plan of the same width dominates")
	}
}

// TestDominatesIsAntisymmetricUnderStrictCost property-checks that two
// plans cannot dominate each other unless identical in the compared
// dimensions.
func TestDominatesIsAntisymmetricUnderStrictCost(t *testing.T) {
	f := func(c1, c2 uint16, ordered1, ordered2, temp1, temp2 bool) bool {
		mk := func(c uint16, ordered, temp bool) *Props {
			p := &Props{Cost: Cost{Total: float64(c)}, Rescan: Cost{Total: float64(c)}, Temp: temp}
			if ordered {
				p.Order = colList(col("T", "A"))
			}
			return p
		}
		a := mk(c1, ordered1, temp1)
		b := mk(c2, ordered2, temp2)
		if Dominates(a, b) && Dominates(b, a) {
			// Both directions only when costs tie and properties equal.
			return c1 == c2 && ordered1 == ordered2 && (temp1 == temp2 || !temp1 && !temp2)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostArithmetic(t *testing.T) {
	a := Cost{IO: 1, CPU: 2, Msg: 3, Bytes: 4, Total: 5}
	b := Cost{IO: 10, CPU: 20, Msg: 30, Bytes: 40, Total: 50}
	s := a.Add(b)
	if s.IO != 11 || s.CPU != 22 || s.Msg != 33 || s.Bytes != 44 || s.Total != 55 {
		t.Errorf("add = %+v", s)
	}
	h := a.Scale(2)
	if h.IO != 2 || h.Total != 10 {
		t.Errorf("scale = %+v", h)
	}
	if !strings.Contains(a.String(), "total=5.0") {
		t.Errorf("String = %s", a.String())
	}
}

func TestPropsCloneIsolation(t *testing.T) {
	p := &Props{
		Rel:   &Rel{Tables: tableSet("T"), Cols: colList(col("T", "A")).Set()},
		Order: colList(col("T", "A")),
		Paths: []PathInfo{{Name: "ix"}},
		Extra: map[string]string{"k": "v"},
	}
	c := p.Clone()
	c.Extra["k"] = "changed"
	if p.Extra["k"] != "v" {
		t.Error("Clone must not share the Extra map")
	}
	if c.Rel != p.Rel {
		t.Error("Clone must share the interned relational part")
	}
}

func TestExplainAndFunctional(t *testing.T) {
	inner := scan("EMP")
	inner.Props = &Props{Rel: &Rel{Tables: tableSet("EMP")}, Card: 10}
	outer := scan("DEPT")
	outer.Props = &Props{Rel: &Rel{Tables: tableSet("DEPT")}, Card: 5}
	j := &Node{Op: OpJoin, Flavor: MethodMG,
		Preds:  predSet(&expr.Cmp{Op: expr.EQ, L: expr.C("DEPT", "DNO"), R: expr.C("EMP", "DNO")}),
		Inputs: []*Node{outer, inner}, Origin: "JMeth#2"}
	j.Props = &Props{Rel: &Rel{Tables: tableSet("DEPT", "EMP")}, Card: 50}

	out := Explain(j)
	for _, want := range []string{"JOIN(MG)", "ACCESS(heap)", "DEPT", "EMP", "«JMeth#2»", "card=50"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	fn := Functional(j)
	if !strings.Contains(fn, "JOIN(sort-merge, DEPT.DNO = EMP.DNO") {
		t.Errorf("Functional = %s", fn)
	}
	verb := ExplainVerbose(j)
	for _, want := range []string{"TABLES", "CARD", "COST"} {
		if !strings.Contains(verb, want) {
			t.Errorf("verbose missing %q", want)
		}
	}
}

func TestDescribeListsFigure2Fields(t *testing.T) {
	p := &Props{
		Rel: &Rel{
			Tables: tableSet("T"),
			Cols:   colList(col("T", "A")).Set(),
			Preds:  predSet(pred("T", "A", 1)),
		},
		Order: colList(col("T", "A")),
		Site:  "NY",
		Temp:  true,
		Paths: []PathInfo{{Name: "ix", Cols: colList(col("T", "A")), Dynamic: true}},
		Card:  7,
		Extra: map[string]string{"bucketized": "true"},
	}
	d := p.Describe()
	for _, want := range []string{"TABLES", "COLS", "PREDS", "ORDER", "SITE", "TEMP", "PATHS", "CARD", "COST", "BUCKETIZED", "ix*"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}

// TestColHelpers: a column set lists its members in name order whatever
// order they were given in, and a node's key renders its column lists exactly
// as ColList.String does.
func TestColHelpers(t *testing.T) {
	a := colList(col("T", "B"), col("T", "A"))
	if got := a.Set().List(nil).String(); got != "T.A,T.B" || a.String() != "T.B,T.A" {
		t.Errorf("set lists %q, list renders %q", got, a)
	}
	n := &Node{Op: OpSort, SortCols: a}
	if !strings.Contains(n.Key(), "s="+a.String()) {
		t.Errorf("key %q does not render the sort key as %q", n.Key(), a)
	}
}

// TestReqdHash64: Glue's memo keys a requirement on this word, so equal
// requirements must agree, the requirements a query can pose side by side must
// differ — the same columns as an order and as an index key, one list split
// differently — and hashing must not allocate (a key rendered with String made
// the memo cost more than it saved).
func TestReqdHash64(t *testing.T) {
	la, ny := "LA", "NY"
	a, b := expr.ColID{Table: "T", Col: "A"}, expr.ColID{Table: "T", Col: "B"}
	reqs := []Reqd{
		{},
		{Temp: true},
		{Site: &la},
		{Site: &ny},
		{Site: &la, Temp: true},
		{Order: colList(a)},
		{PathCols: colList(a)},
		{Order: colList(a, b)},
		{Order: colList(a), PathCols: colList(b)},
		{Order: colList(b, a)},
		{PathCols: colList(a, b)},
	}
	seen := map[uint64]int{}
	for i, r := range reqs {
		if j, dup := seen[r.Hash64()]; dup {
			t.Errorf("%s and %s hash alike", reqs[j], r)
		}
		seen[r.Hash64()] = i
	}
	la2 := "LA"
	if (Reqd{Site: &la, Order: colList(a)}).Hash64() != (Reqd{Site: &la2, Order: colList(col("T", "A"))}).Hash64() {
		t.Error("equal requirements hash differently")
	}
	r := Reqd{Site: &la, Order: colList(a, b), Temp: true, PathCols: colList(a)}
	var sink uint64
	if n := testing.AllocsPerRun(1000, func() { sink += r.Hash64() }); n != 0 {
		t.Errorf("Hash64 allocates %.1f/op", n)
	}
}
