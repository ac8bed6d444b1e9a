package expr

import (
	"sort"
	"strings"
)

// predInfo caches per-predicate analysis shared by every set holding the
// predicate: the canonical key, the distinct referenced columns (sorted), and
// whether the predicate contains a disjunction. Computing these once per
// predicate — instead of once per classifier call — is what lets the Section 4
// classifiers (JP/SP/HP/XP/IP) run without walking expression trees in the
// enumeration's hot loop.
type predInfo struct {
	key   string
	cols  []ColID
	hasOr bool
}

// PredSet is a canonical set of predicates, keyed on Expr.Key. The STAR rule
// language manipulates these sets with union, difference, and the Section 4
// classifiers; determinism matters (plans must be reproducible), so iteration
// is always in key order.
//
// PredSet is an immutable value: the predicate slice is sorted by key at
// construction and shared structurally by derived sets (Union, Minus, Filter
// never copy an Expr or recompute its analysis). Slices returned by Slice and
// Keys alias internal storage and must not be mutated.
type PredSet struct {
	ps   []Expr
	info []predInfo
}

// NewPredSet builds a set from the given predicates, deduplicating by key.
func NewPredSet(preds ...Expr) PredSet {
	if len(preds) == 0 {
		return PredSet{}
	}
	s := PredSet{
		ps:   make([]Expr, 0, len(preds)),
		info: make([]predInfo, 0, len(preds)),
	}
	for _, p := range preds {
		s.ps = append(s.ps, p)
		s.info = append(s.info, predInfo{key: p.Key(), cols: Columns(p), hasOr: ContainsOr(p)})
	}
	sort.Sort(predSorter{&s})
	// Dedupe adjacent equal keys in place.
	w := 1
	for i := 1; i < len(s.ps); i++ {
		if s.info[i].key == s.info[w-1].key {
			continue
		}
		s.ps[w], s.info[w] = s.ps[i], s.info[i]
		w++
	}
	s.ps, s.info = s.ps[:w], s.info[:w]
	return s
}

// predSorter orders the parallel slices by key (construction only; sets are
// immutable afterwards).
type predSorter struct{ s *PredSet }

func (ps predSorter) Len() int           { return len(ps.s.ps) }
func (ps predSorter) Less(i, j int) bool { return ps.s.info[i].key < ps.s.info[j].key }
func (ps predSorter) Swap(i, j int) {
	ps.s.ps[i], ps.s.ps[j] = ps.s.ps[j], ps.s.ps[i]
	ps.s.info[i], ps.s.info[j] = ps.s.info[j], ps.s.info[i]
}

// Len returns the number of predicates in the set.
func (s PredSet) Len() int { return len(s.ps) }

// Empty reports whether the set has no predicates.
func (s PredSet) Empty() bool { return len(s.ps) == 0 }

// Slice returns the predicates in canonical (key) order. The slice aliases
// the set's internal storage: callers must not mutate it.
func (s PredSet) Slice() []Expr { return s.ps }

// KeyAt returns the canonical key of the i-th predicate (in Slice order);
// it lets callers stream the set's key without allocating.
func (s PredSet) KeyAt(i int) string { return s.info[i].key }

// Contains reports whether the set holds a predicate structurally equal to p.
func (s PredSet) Contains(p Expr) bool {
	return s.indexOfKey(p.Key()) >= 0
}

func (s PredSet) indexOfKey(key string) int {
	lo, hi := 0, len(s.info)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.info[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.info) && s.info[lo].key == key {
		return lo
	}
	return -1
}

// subset builds a derived set from ascending indices into s; entries are
// shared, not copied.
func (s PredSet) subset(idx []int) PredSet {
	if len(idx) == 0 {
		return PredSet{}
	}
	if len(idx) == len(s.ps) {
		return s
	}
	out := PredSet{ps: make([]Expr, len(idx)), info: make([]predInfo, len(idx))}
	for i, j := range idx {
		out.ps[i] = s.ps[j]
		out.info[i] = s.info[j]
	}
	return out
}

// Union returns s ∪ o.
func (s PredSet) Union(o PredSet) PredSet {
	if o.Empty() {
		return s
	}
	if s.Empty() {
		return o
	}
	// Identity fast paths: when one operand contains the other, return it
	// unchanged — the dominant case on the join hot path, where a subset's
	// predicates are unioned with mostly-overlapping child predicates.
	if s.containsAll(o) {
		return s
	}
	if o.containsAll(s) {
		return o
	}
	out := PredSet{
		ps:   make([]Expr, 0, len(s.ps)+len(o.ps)),
		info: make([]predInfo, 0, len(s.ps)+len(o.ps)),
	}
	i, j := 0, 0
	for i < len(s.ps) && j < len(o.ps) {
		switch {
		case s.info[i].key < o.info[j].key:
			out.ps, out.info = append(out.ps, s.ps[i]), append(out.info, s.info[i])
			i++
		case s.info[i].key > o.info[j].key:
			out.ps, out.info = append(out.ps, o.ps[j]), append(out.info, o.info[j])
			j++
		default:
			out.ps, out.info = append(out.ps, s.ps[i]), append(out.info, s.info[i])
			i++
			j++
		}
	}
	out.ps = append(out.ps, s.ps[i:]...)
	out.info = append(out.info, s.info[i:]...)
	out.ps = append(out.ps, o.ps[j:]...)
	out.info = append(out.info, o.info[j:]...)
	return out
}

// containsAll reports o ⊆ s via one merge scan, no allocation.
func (s PredSet) containsAll(o PredSet) bool {
	if len(o.ps) > len(s.ps) {
		return false
	}
	i := 0
	for j := 0; j < len(o.ps); j++ {
		for i < len(s.ps) && s.info[i].key < o.info[j].key {
			i++
		}
		if i == len(s.ps) || s.info[i].key != o.info[j].key {
			return false
		}
		i++
	}
	return true
}

// Minus returns s − o. Two passes: the first only counts, so the common
// identity outcome (nothing removed) allocates nothing and the rest
// allocate exactly once per slice.
func (s PredSet) Minus(o PredSet) PredSet {
	if s.Empty() || o.Empty() {
		return s
	}
	removed := 0
	j := 0
	for i := 0; i < len(s.ps); i++ {
		for j < len(o.ps) && o.info[j].key < s.info[i].key {
			j++
		}
		if j < len(o.ps) && o.info[j].key == s.info[i].key {
			removed++
		}
	}
	if removed == 0 {
		return s
	}
	if removed == len(s.ps) {
		return PredSet{}
	}
	keep := len(s.ps) - removed
	out := PredSet{ps: make([]Expr, 0, keep), info: make([]predInfo, 0, keep)}
	j = 0
	for i := 0; i < len(s.ps); i++ {
		for j < len(o.ps) && o.info[j].key < s.info[i].key {
			j++
		}
		if j < len(o.ps) && o.info[j].key == s.info[i].key {
			continue
		}
		out.ps = append(out.ps, s.ps[i])
		out.info = append(out.info, s.info[i])
	}
	return out
}

// Intersect returns s ∩ o.
func (s PredSet) Intersect(o PredSet) PredSet {
	if s.Empty() || o.Empty() {
		return PredSet{}
	}
	var idx []int
	j := 0
	for i := 0; i < len(s.ps); i++ {
		for j < len(o.ps) && o.info[j].key < s.info[i].key {
			j++
		}
		if j < len(o.ps) && o.info[j].key == s.info[i].key {
			idx = append(idx, i)
		}
	}
	return s.subset(idx)
}

// Within returns the predicates whose every column lies inside tables —
// the eligibility test of Section 4.4 — using the cached per-predicate
// column analysis (no expression walks, no allocation beyond the subset).
func (s PredSet) Within(tables TableSet) PredSet {
	return s.filterInfo(func(_ Expr, in *predInfo) bool {
		for _, c := range in.cols {
			if !tables.Contains(c.Table) {
				return false
			}
		}
		return true
	})
}

// filterInfo returns the subset of s satisfying keep, which sees the cached
// analysis so the classifiers avoid re-walking expression trees. keep must
// be pure: the counting pass may evaluate it twice per element so that
// keep-everything (identity) and keep-nothing outcomes allocate nothing.
func (s PredSet) filterInfo(keep func(Expr, *predInfo) bool) PredSet {
	kept := 0
	for i := range s.ps {
		if keep(s.ps[i], &s.info[i]) {
			kept++
		}
	}
	if kept == len(s.ps) {
		return s
	}
	if kept == 0 {
		return PredSet{}
	}
	out := PredSet{ps: make([]Expr, 0, kept), info: make([]predInfo, 0, kept)}
	for i := range s.ps {
		if keep(s.ps[i], &s.info[i]) {
			out.ps = append(out.ps, s.ps[i])
			out.info = append(out.info, s.info[i])
		}
	}
	return out
}

// Equal reports set equality.
func (s PredSet) Equal(o PredSet) bool {
	if len(s.ps) != len(o.ps) {
		return false
	}
	for i := range s.info {
		if s.info[i].key != o.info[i].key {
			return false
		}
	}
	return true
}

// Key returns a canonical string for the whole set; the Glue plan table is
// hashed on (tables, preds) using it.
func (s PredSet) Key() string {
	switch len(s.info) {
	case 0:
		return ""
	case 1:
		return s.info[0].key
	}
	n := len(s.info) - 1
	for i := range s.info {
		n += len(s.info[i].key)
	}
	var b strings.Builder
	b.Grow(n)
	for i := range s.info {
		if i > 0 {
			b.WriteByte('&')
		}
		b.WriteString(s.info[i].key)
	}
	return b.String()
}

// Hash64 returns a 64-bit FNV-1a hash over the same byte stream Key()
// renders ('&'-separated canonical predicate keys), without building the
// string. The plan table probes on it; collisions are resolved by Equal.
func (s PredSet) Hash64() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := range s.info {
		if i > 0 {
			h = (h ^ '&') * prime64
		}
		k := s.info[i].key
		for j := 0; j < len(k); j++ {
			h = (h ^ uint64(k[j])) * prime64
		}
	}
	return h
}

// String renders the set for EXPLAIN output.
func (s PredSet) String() string {
	if s.Empty() {
		return "{}"
	}
	parts := make([]string, len(s.ps))
	for i, p := range s.ps {
		parts[i] = p.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Columns returns the distinct columns referenced anywhere in the set.
func (s PredSet) Columns() []ColID {
	seen := map[ColID]bool{}
	for i := range s.info {
		for _, c := range s.info[i].cols {
			seen[c] = true
		}
	}
	out := make([]ColID, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// TableSet is a set of quantifier names; χ(T) in the paper's notation ranges
// over its columns.
//
// TableSet is an immutable value: the member slice is sorted at construction
// and the canonical key is computed eagerly, so Key (the plan table's hash
// input) never builds a string after construction. The zero value is the
// empty set. Slices returned by Slice alias internal storage and must not be
// mutated.
type TableSet struct {
	names []string
	key   string
}

// NewTableSet builds a table set.
func NewTableSet(names ...string) TableSet {
	switch len(names) {
	case 0:
		return TableSet{}
	case 1:
		return TableSet{names: names[:1:1], key: names[0]}
	}
	sorted := make([]string, len(names))
	copy(sorted, names)
	sort.Strings(sorted)
	w := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[w-1] {
			continue
		}
		sorted[w] = sorted[i]
		w++
	}
	sorted = sorted[:w]
	return TableSet{names: sorted, key: strings.Join(sorted, ",")}
}

// Len returns the number of members.
func (t TableSet) Len() int { return len(t.names) }

// Empty reports whether the set has no members.
func (t TableSet) Empty() bool { return len(t.names) == 0 }

// Slice returns the members in sorted order. The slice aliases the set's
// internal storage: callers must not mutate it.
func (t TableSet) Slice() []string { return t.names }

// Key returns a canonical string for the set (precomputed at construction).
func (t TableSet) Key() string { return t.key }

// Contains reports membership.
func (t TableSet) Contains(name string) bool {
	// Linear scan: sets are tiny (quantifier counts), and this avoids the
	// branch-mispredict cost of binary search on short slices.
	for _, n := range t.names {
		if n == name {
			return true
		}
	}
	return false
}

// ContainsAll reports whether every member of o is in t.
func (t TableSet) ContainsAll(o TableSet) bool {
	if len(o.names) > len(t.names) {
		return false
	}
	i := 0
	for _, n := range o.names {
		for i < len(t.names) && t.names[i] < n {
			i++
		}
		if i >= len(t.names) || t.names[i] != n {
			return false
		}
		i++
	}
	return true
}

// Union returns t ∪ o.
func (t TableSet) Union(o TableSet) TableSet {
	if o.Empty() || t.ContainsAll(o) {
		return t
	}
	if t.Empty() || o.ContainsAll(t) {
		return o
	}
	merged := make([]string, 0, len(t.names)+len(o.names))
	i, j := 0, 0
	for i < len(t.names) && j < len(o.names) {
		switch {
		case t.names[i] < o.names[j]:
			merged = append(merged, t.names[i])
			i++
		case t.names[i] > o.names[j]:
			merged = append(merged, o.names[j])
			j++
		default:
			merged = append(merged, t.names[i])
			i++
			j++
		}
	}
	merged = append(merged, t.names[i:]...)
	merged = append(merged, o.names[j:]...)
	return TableSet{names: merged, key: strings.Join(merged, ",")}
}

// Equal reports set equality.
func (t TableSet) Equal(o TableSet) bool { return t.key == o.key && len(t.names) == len(o.names) }

// colsSides splits cached predicate columns by which side of the join they
// belong to. ok is false if the predicate touches tables outside t1 ∪ t2 or
// only one side.
func colsSides(cols []ColID, t1, t2 TableSet) (left, right []ColID, ok bool) {
	touch1, touch2 := false, false
	for _, c := range cols {
		switch {
		case t1.Contains(c.Table):
			touch1 = true
			left = append(left, c)
		case t2.Contains(c.Table):
			touch2 = true
			right = append(right, c)
		default:
			return nil, nil, false
		}
	}
	return left, right, touch1 && touch2
}

// spansBoth reports whether cols touches both sides and nothing outside
// t1 ∪ t2 — colsSides without materializing the split.
func spansBoth(cols []ColID, t1, t2 TableSet) bool {
	touch1, touch2 := false, false
	for _, c := range cols {
		switch {
		case t1.Contains(c.Table):
			touch1 = true
		case t2.Contains(c.Table):
			touch2 = true
		default:
			return false
		}
	}
	return touch1 && touch2
}

// JoinPreds computes JP: the predicates in p that reference columns on both
// sides of the join (multi-table), with no ORs — expressions are OK —
// exactly the paper's Section 4.4 definition (subqueries do not exist in this
// reproduction's language).
func JoinPreds(p PredSet, t1, t2 TableSet) PredSet {
	return p.filterInfo(func(_ Expr, in *predInfo) bool {
		return !in.hasOr && spansBoth(in.cols, t1, t2)
	})
}

// colOnly returns the single column if e is a bare column reference.
func colOnly(e Expr) (ColID, bool) {
	c, ok := e.(*Col)
	if !ok {
		return ColID{}, false
	}
	return c.ID, true
}

// SortablePreds computes SP ⊆ JP: predicates of the form col1 = col2 with
// col1 ∈ χ(T1) and col2 ∈ χ(T2) or vice versa. The paper admits any
// comparison operator in SP; this reproduction restricts SP to equality so
// the merge-join executor's semantics stay simple — the classic sort-merge
// equijoin — and documents the narrowing here. Inequality merge joins would
// slot in as a new flavor without touching the rule language.
func SortablePreds(p PredSet, t1, t2 TableSet) PredSet {
	return p.filterInfo(func(e Expr, in *predInfo) bool {
		if in.hasOr || !spansBoth(in.cols, t1, t2) {
			return false
		}
		c, ok := e.(*Cmp)
		if !ok || c.Op != EQ {
			return false
		}
		lc, lok := colOnly(c.L)
		rc, rok := colOnly(c.R)
		if !lok || !rok {
			return false
		}
		return (t1.Contains(lc.Table) && t2.Contains(rc.Table)) ||
			(t2.Contains(lc.Table) && t1.Contains(rc.Table))
	})
}

// HashablePreds computes HP: predicates of the form
// expr(χ(T1)) = expr(χ(T2)) — equality between an expression purely over one
// side and an expression purely over the other (Section 4.5.1). HP overlaps
// SP but also admits expressions; it excludes inequalities.
func HashablePreds(p PredSet, t1, t2 TableSet) PredSet {
	return p.filterInfo(func(e Expr, in *predInfo) bool {
		if in.hasOr || !spansBoth(in.cols, t1, t2) {
			return false
		}
		c, ok := e.(*Cmp)
		if !ok || c.Op != EQ {
			return false
		}
		return oneSided(c.L, t1, t2) && oneSided(c.R, t1, t2) &&
			!sameSide(c.L, c.R, t1)
	})
}

// oneSided reports whether every column of e lies within a single side.
func oneSided(e Expr, t1, t2 TableSet) bool {
	any := false
	in1, in2 := true, true
	e.walk(func(n Expr) {
		c, ok := n.(*Col)
		if !ok {
			return
		}
		any = true
		if !t1.Contains(c.ID.Table) {
			in1 = false
		}
		if !t2.Contains(c.ID.Table) {
			in2 = false
		}
	})
	return any && (in1 || in2)
}

// sameSide reports whether a and b both draw all columns from t1.
func sameSide(a, b Expr, t1 TableSet) bool {
	return allIn(a, t1) == allIn(b, t1)
}

// allIn reports whether every column of e belongs to t.
func allIn(e Expr, t TableSet) bool {
	in := true
	e.walk(func(n Expr) {
		if c, ok := n.(*Col); ok && !t.Contains(c.ID.Table) {
			in = false
		}
	})
	return in
}

// IndexablePreds computes XP: predicates of the form
// expr(χ(T1)) op T2.col — one side is an expression purely over the outer,
// the other a bare column of the inner (Section 4.5.3). Such predicates can
// be applied by an index on the inner once the outer side is instantiated
// ("sideways information passing").
func IndexablePreds(p PredSet, t1, t2 TableSet) PredSet {
	return p.filterInfo(func(e Expr, in *predInfo) bool {
		if in.hasOr || !spansBoth(in.cols, t1, t2) {
			return false
		}
		c, ok := e.(*Cmp)
		if !ok {
			return false
		}
		return indexableShape(c.L, c.R, t1, t2) || indexableShape(c.R, c.L, t1, t2)
	})
}

func indexableShape(outerSide, innerSide Expr, t1, t2 TableSet) bool {
	ic, ok := colOnly(innerSide)
	if !ok || !t2.Contains(ic.Table) {
		return false
	}
	any := false
	in1 := true
	outerSide.walk(func(n Expr) {
		if c, ok := n.(*Col); ok {
			any = true
			if !t1.Contains(c.ID.Table) {
				in1 = false
			}
		}
	})
	return any && in1
}

// InnerPreds computes IP: predicates whose columns all lie within T2, i.e.
// χ(p) ⊆ χ(T2) — eligible on the inner alone.
func InnerPreds(p PredSet, t2 TableSet) PredSet {
	return p.filterInfo(func(_ Expr, in *predInfo) bool {
		if len(in.cols) == 0 {
			return false
		}
		for _, c := range in.cols {
			if !t2.Contains(c.Table) {
				return false
			}
		}
		return true
	})
}

// SortColsFor returns the columns of the sortable predicates that belong to
// side t, in canonical order: χ(SP) ∩ χ(T) in the paper's JMeth STAR. The
// outer and inner orders pair up because SortablePreds only admits
// column = column predicates and canonical predicate order fixes the pairing.
func SortColsFor(sp PredSet, t TableSet) []ColID {
	var out []ColID
	seen := map[ColID]bool{}
	for _, p := range sp.Slice() {
		c := p.(*Cmp)
		for _, side := range []Expr{c.L, c.R} {
			if id, ok := colOnly(side); ok && t.Contains(id.Table) && !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// IndexColsFor returns IX: the inner-side columns of indexable (XP) and
// inner-only (IP) predicates, equality predicates first (Section 4.5.3), so
// that a dynamically created index applies the most selective prefix first.
func IndexColsFor(xp, ip PredSet, t2 TableSet) []ColID {
	var eqCols, otherCols []ColID
	seen := map[ColID]bool{}
	add := func(id ColID, isEq bool) {
		if seen[id] {
			return
		}
		seen[id] = true
		if isEq {
			eqCols = append(eqCols, id)
		} else {
			otherCols = append(otherCols, id)
		}
	}
	collect := func(ps PredSet) {
		for _, p := range ps.Slice() {
			c, ok := p.(*Cmp)
			if !ok {
				continue
			}
			for _, side := range []Expr{c.L, c.R} {
				if id, ok := colOnly(side); ok && t2.Contains(id.Table) {
					add(id, c.Op == EQ)
				}
			}
		}
	}
	collect(xp)
	collect(ip)
	return append(eqCols, otherCols...)
}

// MatchIndexPrefix returns the subset of preds an index with the given key
// columns can apply: a chain of equality predicates on a key-column prefix,
// optionally terminated by one range predicate, where the non-key side does
// not reference the indexed quantifier (constants, or outer expressions
// bound per probe — "sideways information passing").
func MatchIndexPrefix(preds PredSet, keyCols []ColID) PredSet {
	var used []int
	taken := func(i int) bool {
		for _, u := range used {
			if u == i {
				return true
			}
		}
		return false
	}
	for _, kc := range keyCols {
		eqPick, rangePick := -1, -1
		for i, p := range preds.ps {
			if taken(i) {
				continue
			}
			c, ok := p.(*Cmp)
			if !ok {
				continue
			}
			col, other := cmpColSide(c, kc)
			if col == nil || referencesQuant(other, kc.Table) {
				continue
			}
			if c.Op == EQ {
				eqPick = i
				break
			}
			if rangePick < 0 && c.Op != NE {
				rangePick = i
			}
		}
		if eqPick >= 0 {
			used = append(used, eqPick)
			continue
		}
		if rangePick >= 0 {
			used = append(used, rangePick)
		}
		break
	}
	sort.Ints(used)
	return preds.subset(used)
}

func cmpColSide(c *Cmp, id ColID) (*Col, Expr) {
	if lc, ok := c.L.(*Col); ok && lc.ID == id {
		return lc, c.R
	}
	if rc, ok := c.R.(*Col); ok && rc.ID == id {
		return rc, c.L
	}
	return nil, nil
}

func referencesQuant(e Expr, q string) bool { return References(e, q) }

// BindOuter converts the join predicates in jp into single-table predicates
// on the inner by instantiating the outer side's columns from b — the
// paper's (and Ullman's) "sideways information passing" used by the
// nested-loop executor. Predicates that cannot be instantiated are returned
// unchanged.
func BindOuter(jp []Expr, outer TableSet, b Binding) []Expr {
	out := make([]Expr, len(jp))
	for i, p := range jp {
		out[i] = bindExpr(p, outer, b)
	}
	return out
}

func bindExpr(e Expr, outer TableSet, b Binding) Expr {
	switch n := e.(type) {
	case *Const:
		return n
	case *Col:
		if outer.Contains(n.ID.Table) {
			if v, ok := b.ColValue(n.ID); ok {
				return &Const{Val: v}
			}
		}
		return n
	case *Arith:
		return &Arith{Op: n.Op, L: bindExpr(n.L, outer, b), R: bindExpr(n.R, outer, b)}
	case *Cmp:
		return &Cmp{Op: n.Op, L: bindExpr(n.L, outer, b), R: bindExpr(n.R, outer, b)}
	case *And:
		kids := make([]Expr, len(n.Kids))
		for i, k := range n.Kids {
			kids[i] = bindExpr(k, outer, b)
		}
		return &And{Kids: kids}
	case *Or:
		kids := make([]Expr, len(n.Kids))
		for i, k := range n.Kids {
			kids[i] = bindExpr(k, outer, b)
		}
		return &Or{Kids: kids}
	case *Not:
		return &Not{Kid: bindExpr(n.Kid, outer, b)}
	default:
		return e
	}
}
