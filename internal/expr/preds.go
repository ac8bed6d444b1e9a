package expr

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"
)

// words is the storage PredSet and ColSet share: a bitset over ordinals whose
// first 64 live in an inline word, so the algebra allocates nothing for up to
// 64 ordinals; the rest spill into hi.
type words struct {
	lo uint64
	// hi holds ordinals 64 and up, one word per 64. It is nil when none of
	// them is a member, has the vocabulary's full spill length otherwise, and
	// is never written once a set holds it.
	hi []uint64
}

// add makes ordinal i, of a vocabulary of n, a member; only for words no set
// holds yet. Only ordinals past the first word allocate.
func (w *words) add(i, n int) {
	if i < 64 {
		w.lo |= 1 << uint(i)
		return
	}
	if w.hi == nil {
		w.hi = make([]uint64, (n-1)/64)
	}
	w.hi[i/64-1] |= 1 << uint(i%64)
}

// zip combines two sets of one vocabulary word by word.
func (w words) zip(o words, op func(x, y uint64) uint64) words {
	out := words{lo: op(w.lo, o.lo)}
	if w.hi == nil && o.hi == nil {
		return out
	}
	out.hi = make([]uint64, max(len(w.hi), len(o.hi)))
	var any uint64
	for k := range out.hi {
		var x, y uint64
		if w.hi != nil {
			x = w.hi[k]
		}
		if o.hi != nil {
			y = o.hi[k]
		}
		out.hi[k] = op(x, y)
		any |= out.hi[k]
	}
	if any == 0 {
		out.hi = nil
	}
	return out
}

func or(x, y uint64) uint64     { return x | y }
func andNot(x, y uint64) uint64 { return x &^ y }
func and(x, y uint64) uint64    { return x & y }

// Next returns the smallest member ordinal >= i, or -1: the loop
// `for i := s.Next(0); i >= 0; i = s.Next(i + 1)` visits members in ordinal
// order with no callback. A PredSet's ordinals are conjuncts
// (Universe().Conjunct(i)), a ColSet's are columns (Vocab().ID(i)); an
// ordinal also indexes per-ordinal arrays a caller binds once per query
// (cost.Env's selectivities and widths).
func (w words) Next(i int) int {
	if i < 64 {
		if x := w.lo >> uint(i); x != 0 {
			return i + bits.TrailingZeros64(x)
		}
		i = 64
	}
	for k := i/64 - 1; k < len(w.hi); k, i = k+1, 0 {
		if x := w.hi[k] >> uint(i%64); x != 0 {
			return 64*(k+1) + i%64 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// has reports whether ordinal i is a member.
func (w words) has(i int) bool {
	if i < 64 {
		return w.lo>>uint(i)&1 != 0
	}
	return w.hi != nil && w.hi[i/64-1]>>uint(i%64)&1 != 0
}

// Len returns the number of members.
func (w words) Len() int {
	n := bits.OnesCount64(w.lo)
	for _, x := range w.hi {
		n += bits.OnesCount64(x)
	}
	return n
}

// Empty reports whether the set has no members.
func (w words) Empty() bool { return w.lo == 0 && w.hi == nil }

func (w words) equal(o words) bool { return w.lo == o.lo && slices.Equal(w.hi, o.hi) }

// Hash64 folds the set's words into one; for up to 64 ordinals it is the set
// itself. The plan table and the Rel intern table probe on it; collisions are
// resolved by Equal.
func (w words) Hash64() uint64 {
	h := w.lo
	for _, x := range w.hi {
		h = h*1099511628211 ^ x
	}
	return h
}

// PredSet is a set of a query's WHERE conjuncts: a bitset over the conjunct
// ordinals of its Universe. The STAR rule language manipulates these sets
// with union, difference, and the Section 4 classifiers; determinism matters
// (plans must be reproducible), so iteration is always in ordinal order,
// which is canonical-key order.
//
// PredSet is an immutable value and the zero value is the empty set in any
// universe. Operands of one operation must come from one universe; a result
// takes whichever operand's is set (either may be the zero value).
type PredSet struct {
	u *Universe
	words
}

// Universe returns the universe whose conjunct ordinals the set's members
// are (nil for the zero value).
func (s PredSet) Universe() *Universe { return s.u }

// Slice returns the predicates in canonical (key) order. The slice is
// memoized in the universe and shared with every equal set: callers must not
// mutate it.
func (s PredSet) Slice() []Expr {
	if s.Empty() {
		return nil
	}
	return s.u.slice(s)
}

// ForEach calls f with each member and its canonical key, in key order. It
// allocates nothing and reads only immutable state: the way to walk a set
// inside the optimization (pricing, fingerprints), where Slice's memo would
// be a lock shared by every enumeration worker.
func (s PredSet) ForEach(f func(p Expr, key string)) {
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		f(s.u.preds[i], s.u.info[i].key)
	}
}

// ForEachShape calls f with each member and its ShapeKey, in ShapeKey order,
// which is not key order: literals sort keys, shapes have none. The universe
// renders each conjunct's shape key once, so the walk allocates nothing after
// the first for sets of up to 64 members.
func (s PredSet) ForEachShape(f func(p Expr, shape string)) {
	if s.Empty() {
		return
	}
	shapes := s.u.shapeKeys()
	var buf [64]int
	ords := buf[:0]
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		ords = append(ords, i)
	}
	slices.SortFunc(ords, func(a, b int) int { return strings.Compare(shapes[a], shapes[b]) })
	for _, i := range ords {
		f(s.u.preds[i], shapes[i])
	}
}

// Contains reports whether the set holds a predicate structurally equal to p.
func (s PredSet) Contains(p Expr) bool {
	i := s.u.predOrdinal(p.Key())
	return i >= 0 && s.has(i)
}

// Union returns s ∪ o.
func (s PredSet) Union(o PredSet) PredSet { return PredSet{cmp.Or(s.u, o.u), s.zip(o.words, or)} }

// Minus returns s − o.
func (s PredSet) Minus(o PredSet) PredSet { return PredSet{cmp.Or(s.u, o.u), s.zip(o.words, andNot)} }

// Intersect returns s ∩ o.
func (s PredSet) Intersect(o PredSet) PredSet { return PredSet{cmp.Or(s.u, o.u), s.zip(o.words, and)} }

// Equal reports set equality.
func (s PredSet) Equal(o PredSet) bool { return s.equal(o.words) }

// filter returns the members satisfying keep, which sees the cached analysis
// so the classifiers avoid re-walking expression trees.
func (s PredSet) filter(keep func(Expr, *predInfo) bool) PredSet {
	out := s
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		if keep(s.u.preds[i], &s.u.info[i]) {
			continue
		}
		if i < 64 {
			out.lo &^= 1 << uint(i)
		} else {
			out = out.Minus(s.u.pred(i))
		}
	}
	return out
}

// Within returns the predicates whose every column lies inside tables —
// the eligibility test of Section 4.4.
func (s PredSet) Within(tables TableSet) PredSet {
	return s.filter(func(_ Expr, in *predInfo) bool { return in.tables&^tables.mask == 0 })
}

// Key returns a canonical string for the whole set: the member keys in
// order, '&'-separated.
func (s PredSet) Key() string {
	var b strings.Builder
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		if b.Len() > 0 {
			b.WriteByte('&')
		}
		b.WriteString(s.u.info[i].key)
	}
	return b.String()
}

// String renders the set for EXPLAIN output.
func (s PredSet) String() string {
	return string(append(s.AppendTo(append([]byte(nil), '{'), ", "), '}'))
}

// AppendTo appends each member's rendering to b in canonical order,
// sep-separated.
func (s PredSet) AppendTo(b []byte, sep string) []byte {
	for i, first := s.Next(0), true; i >= 0; i, first = s.Next(i+1), false {
		if !first {
			b = append(b, sep...)
		}
		b = s.u.preds[i].AppendTo(b)
	}
	return b
}

// Columns returns the distinct columns referenced anywhere in the set,
// sorted.
func (s PredSet) Columns() []ColID {
	var out []ColID
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		out = append(out, s.u.info[i].cols...)
	}
	slices.SortFunc(out, ColID.Compare)
	return slices.Compact(out)
}

// TableSet is a set of a query's quantifiers — χ(T) in the paper's notation
// ranges over its columns — as one word over the quantifier ordinals of its
// Universe: bit i is the i-th quantifier in FROM order.
//
// TableSet is an immutable value and the zero value is the empty set in any
// universe. Operands of one operation must come from one universe.
type TableSet struct {
	u    *Universe
	mask uint64
}

// Mask returns the set as a word — the inverse of Universe.Subset. The plan
// table and the Rel intern table key on it.
func (t TableSet) Mask() uint64 { return t.mask }

// Len returns the number of members.
func (t TableSet) Len() int { return bits.OnesCount64(t.mask) }

// Empty reports whether the set has no members.
func (t TableSet) Empty() bool { return t.mask == 0 }

// Only returns the member of a one-member set; ok is false for any other
// set. It allocates nothing.
func (t TableSet) Only() (q string, ok bool) {
	if t.Len() != 1 {
		return "", false
	}
	return t.u.quants[bits.TrailingZeros64(t.mask)], true
}

// Slice returns the members sorted by name. A one-member slice aliases the
// universe's storage: callers must not mutate it.
func (t TableSet) Slice() []string {
	switch t.Len() {
	case 0:
		return nil
	case 1:
		i := bits.TrailingZeros64(t.mask)
		return t.u.quants[i : i+1 : i+1]
	}
	out := make([]string, 0, t.Len())
	for _, i := range t.u.byName {
		if t.mask>>uint(i)&1 != 0 {
			out = append(out, t.u.quants[i])
		}
	}
	return out
}

// Key returns a canonical string for the set: the sorted member names,
// comma-separated. The always-on telemetry tier names a Glue span by it, so
// it renders in one allocation (none for a single member).
func (t TableSet) Key() string {
	if t.Len() < 2 {
		return strings.Join(t.Slice(), ",")
	}
	var buf [64]byte
	return string(t.AppendTo(buf[:0], ","))
}

// AppendTo appends the member names to b in name order, sep-separated.
func (t TableSet) AppendTo(b []byte, sep string) []byte {
	if t.mask == 0 {
		return b
	}
	first := true
	for _, i := range t.u.byName {
		if t.mask>>uint(i)&1 != 0 {
			if !first {
				b = append(b, sep...)
			}
			b, first = append(b, t.u.quants[i]...), false
		}
	}
	return b
}

// Contains reports membership.
func (t TableSet) Contains(name string) bool {
	i := t.u.Ordinal(name)
	return i >= 0 && t.mask>>uint(i)&1 != 0
}

// ContainsAll reports whether every member of o is in t.
func (t TableSet) ContainsAll(o TableSet) bool { return o.mask&^t.mask == 0 }

// Union returns t ∪ o.
func (t TableSet) Union(o TableSet) TableSet {
	return TableSet{u: cmp.Or(t.u, o.u), mask: t.mask | o.mask}
}

// Equal reports set equality.
func (t TableSet) Equal(o TableSet) bool { return t.mask == o.mask }

// spansBoth reports whether a predicate over the quantifiers in tables
// touches both sides and nothing outside t1 ∪ t2.
func spansBoth(tables uint64, t1, t2 TableSet) bool {
	return tables&t1.mask != 0 && tables&t2.mask != 0 && tables&^(t1.mask|t2.mask) == 0
}

// JoinPreds computes JP: the predicates in p that reference columns on both
// sides of the join (multi-table), with no ORs — expressions are OK —
// exactly the paper's Section 4.4 definition (subqueries do not exist in this
// reproduction's language).
func JoinPreds(p PredSet, t1, t2 TableSet) PredSet {
	return p.filter(func(_ Expr, in *predInfo) bool {
		return !in.hasOr && spansBoth(in.tables, t1, t2)
	})
}

// joinCmps returns the comparisons in JP that shape accepts: SP, HP and XP
// are all subsets of JP picked by the comparison's form.
func joinCmps(p PredSet, t1, t2 TableSet, shape func(*Cmp, *predInfo) bool) PredSet {
	return p.filter(func(e Expr, in *predInfo) bool {
		c, ok := e.(*Cmp)
		return ok && !in.hasOr && spansBoth(in.tables, t1, t2) && shape(c, in)
	})
}

// sides reports how a comparison's operands split over the join: fwd when
// the left operand draws its columns (at least one) from T1 alone and the
// right operand from T2 alone, rev for the reverse. Neither holds when an
// operand is constant or mixes the sides.
func (in *predInfo) sides(t1, t2 TableSet) (fwd, rev bool) {
	l, r := in.left, in.right
	if l == 0 || r == 0 {
		return false, false
	}
	return l&^t1.mask == 0 && r&^t2.mask == 0, l&^t2.mask == 0 && r&^t1.mask == 0
}

func isCol(e Expr) bool { _, ok := e.(*Col); return ok }

// SortablePreds computes SP ⊆ JP: predicates of the form col1 = col2 with
// col1 ∈ χ(T1) and col2 ∈ χ(T2) or vice versa (a join predicate between two
// bare columns has one on each side). The paper admits any comparison
// operator in SP; this reproduction restricts SP to equality so the
// merge-join executor's semantics stay simple — the classic sort-merge
// equijoin — and documents the narrowing here. Inequality merge joins would
// slot in as a new flavor without touching the rule language.
func SortablePreds(p PredSet, t1, t2 TableSet) PredSet {
	return joinCmps(p, t1, t2, func(c *Cmp, _ *predInfo) bool { return c.Op == EQ && isCol(c.L) && isCol(c.R) })
}

// HashablePreds computes HP: predicates of the form
// expr(χ(T1)) = expr(χ(T2)) — equality between an expression purely over one
// side and an expression purely over the other (Section 4.5.1). HP overlaps
// SP but also admits expressions; it excludes inequalities.
func HashablePreds(p PredSet, t1, t2 TableSet) PredSet {
	return joinCmps(p, t1, t2, func(c *Cmp, in *predInfo) bool {
		fwd, rev := in.sides(t1, t2)
		return c.Op == EQ && (fwd || rev)
	})
}

// IndexablePreds computes XP: predicates of the form
// expr(χ(T1)) op T2.col — one side is an expression purely over the outer,
// the other a bare column of the inner (Section 4.5.3). Such predicates can
// be applied by an index on the inner once the outer side is instantiated
// ("sideways information passing").
func IndexablePreds(p PredSet, t1, t2 TableSet) PredSet {
	return joinCmps(p, t1, t2, func(c *Cmp, in *predInfo) bool {
		fwd, rev := in.sides(t1, t2)
		return fwd && isCol(c.R) || rev && isCol(c.L)
	})
}

// InnerPreds computes IP: predicates whose columns all lie within T2, i.e.
// χ(p) ⊆ χ(T2) — eligible on the inner alone.
func InnerPreds(p PredSet, t2 TableSet) PredSet {
	return p.filter(func(_ Expr, in *predInfo) bool {
		return in.tables != 0 && in.tables&^t2.mask == 0
	})
}
