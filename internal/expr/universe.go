package expr

import (
	"fmt"
	"sort"
	"sync"
)

// tableBits is the width of a TableSet word: a universe holds at most this
// many quantifiers.
const tableBits = 64

// predInfo caches per-predicate analysis shared by every set holding the
// predicate: the canonical key, the distinct referenced columns (sorted),
// whether the predicate contains a disjunction, the mask of quantifier
// ordinals those columns belong to and, for a comparison, the masks of its
// left and right operands. Computing these once per predicate is what lets
// the Section 4 classifiers (JP/SP/HP/XP/IP) and the eligibility test run as
// word operations in the enumeration's hot loop.
type predInfo struct {
	key         string
	cols        []ColID
	hasOr       bool
	tables      uint64
	left, right uint64
}

// Universe is one query's fixed vocabulary: its quantifiers and the
// conjuncts of its WHERE clause, each given an ordinal. Every TableSet and
// PredSet of the query is a bitset over those ordinals, so the set algebra
// is word arithmetic and names are resolved only when something renders
// them (EXPLAIN, events, errors, fingerprints, the executor).
//
// Quantifier ordinals follow FROM order, so the enumeration driver's subset
// mask is the TableSet. Conjunct ordinals follow canonical-key order, so
// ascending-bit iteration is key order — the deterministic order plans,
// fingerprints and events are reproducible in. Apart from the Slice memo a
// Universe is immutable once built, and it is shared freely between
// goroutines. A nil *Universe is the empty universe.
type Universe struct {
	quants []string // FROM order; bit i of a TableSet
	byName []int    // quantifier ordinals in name order, the order Slice and Key render
	preds  []Expr   // key order, duplicate-free; bit i of a PredSet
	info   []predInfo
	all    PredSet

	// slices memoizes PredSet.Slice by Hash64 for the callers that ask per
	// row: the executor and ext/* read a plan node's predicates that way.
	// It is the universe's only mutable state, and optimization stays off
	// it — pricing and fingerprints iterate with ForEach.
	mu     sync.Mutex
	slices map[uint64][]memoSlice
}

type memoSlice struct {
	set   PredSet
	exprs []Expr
}

// NewUniverse fixes the ordinals of a query's quantifiers (FROM order) and
// WHERE conjuncts (deduplicated by key). It fails when the FROM list is wider
// than a table-set word, names a quantifier twice, or a conjunct references a
// column of no quantifier.
func NewUniverse(quants []string, conjuncts []Expr) (*Universe, error) {
	if len(quants) > tableBits {
		return nil, fmt.Errorf("%d quantifiers exceed the %d a table set holds", len(quants), tableBits)
	}
	u := &Universe{quants: quants, byName: make([]int, len(quants))}
	for i := range u.byName {
		u.byName[i] = i
	}
	sort.Slice(u.byName, func(a, b int) bool { return quants[u.byName[a]] < quants[u.byName[b]] })
	for i := 1; i < len(quants); i++ {
		if q := quants[u.byName[i]]; q == quants[u.byName[i-1]] {
			return nil, fmt.Errorf("duplicate quantifier %q", q)
		}
	}

	byKey := make([]predInfo, len(conjuncts))
	order := make([]int, len(conjuncts))
	for i, p := range conjuncts {
		byKey[i] = predInfo{key: p.Key(), cols: Columns(p), hasOr: ContainsOr(p)}
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return byKey[order[a]].key < byKey[order[b]].key })
	for _, i := range order {
		in := byKey[i]
		if n := len(u.info); n > 0 && u.info[n-1].key == in.key {
			continue
		}
		for _, c := range in.cols {
			q := u.Ordinal(c.Table)
			if q < 0 {
				return nil, fmt.Errorf("column %s references unknown quantifier", c)
			}
			in.tables |= 1 << uint(q)
		}
		if c, ok := conjuncts[i].(*Cmp); ok {
			in.left, in.right = u.tablesOf(c.L), u.tablesOf(c.R)
		}
		u.preds, u.info = append(u.preds, conjuncts[i]), append(u.info, in)
	}
	u.all.u = u
	for i := range u.preds {
		u.all = u.all.Union(u.pred(i))
	}
	return u, nil
}

// Ordinal returns the quantifier's ordinal (its FROM position), or -1.
func (u *Universe) Ordinal(name string) int {
	if u != nil {
		for i, q := range u.quants {
			if q == name {
				return i
			}
		}
	}
	return -1
}

// tablesOf returns the mask of the quantifiers e's columns belong to.
func (u *Universe) tablesOf(e Expr) uint64 {
	var m uint64
	e.walk(func(n Expr) {
		if c, ok := n.(*Col); ok {
			m |= 1 << uint(u.Ordinal(c.ID.Table))
		}
	})
	return m
}

// All returns the set of every quantifier.
func (u *Universe) All() TableSet {
	if u == nil {
		return TableSet{}
	}
	return u.Subset(1<<uint(len(u.quants)) - 1)
}

// Subset returns the table set whose members are the set bits of mask, bit i
// being the i-th quantifier in FROM order; mask must not reach past the FROM
// list.
func (u *Universe) Subset(mask uint64) TableSet { return TableSet{u: u, mask: mask} }

// Tables returns the set of the named quantifiers. The names must belong to
// the universe: code that takes names from outside the program checks them
// with Ordinal first.
func (u *Universe) Tables(names ...string) TableSet {
	t := TableSet{u: u}
	for _, n := range names {
		i := u.Ordinal(n)
		if i < 0 {
			panic(fmt.Sprintf("expr: %q is not a quantifier of the universe", n))
		}
		t.mask |= 1 << uint(i)
	}
	return t
}

// Preds returns the set of every conjunct.
func (u *Universe) Preds() PredSet {
	if u == nil {
		return PredSet{}
	}
	return u.all
}

// Conjunct returns the conjunct with ordinal i.
func (u *Universe) Conjunct(i int) Expr { return u.preds[i] }

// PredSet returns the set of the given conjuncts, matched by key. They must
// belong to the universe.
func (u *Universe) PredSet(preds ...Expr) PredSet {
	s := PredSet{u: u}
	for _, p := range preds {
		i := u.predOrdinal(p.Key())
		if i < 0 {
			panic(fmt.Sprintf("expr: %s is not a conjunct of the universe", p))
		}
		s = s.Union(u.pred(i))
	}
	return s
}

// predOrdinal returns the ordinal of the conjunct with the given key, or -1.
func (u *Universe) predOrdinal(key string) int {
	if u == nil {
		return -1
	}
	i := sort.Search(len(u.info), func(i int) bool { return u.info[i].key >= key })
	if i < len(u.info) && u.info[i].key == key {
		return i
	}
	return -1
}

// pred returns the one-member set of conjunct i. Only ordinals past the first
// word allocate.
func (u *Universe) pred(i int) PredSet {
	s := PredSet{u: u}
	s.add(i, len(u.preds))
	return s
}

// slice materializes s in key order, once per distinct set.
func (u *Universe) slice(s PredSet) []Expr {
	h := s.Hash64()
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, m := range u.slices[h] {
		if m.set.Equal(s) {
			return m.exprs
		}
	}
	out := make([]Expr, 0, s.Len())
	s.ForEach(func(p Expr, _ string) { out = append(out, p) })
	if u.slices == nil {
		u.slices = map[uint64][]memoSlice{}
	}
	u.slices[h] = append(u.slices[h], memoSlice{s, out})
	return out
}
