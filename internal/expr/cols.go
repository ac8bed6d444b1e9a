package expr

import (
	"cmp"
	"fmt"
	"slices"
)

// Vocab is one optimization's column vocabulary: every column a plan of the
// query can carry, given an ordinal the way a Universe gives its quantifiers
// and conjuncts one, so COLS algebra is word arithmetic, ORDER and key tests
// compare integers, and names are resolved only to render (EXPLAIN, events,
// errors, fingerprints, the executor). Ordinals follow name order, so a
// ColSet lists its members sorted by name. A Vocab is immutable and never
// pooled: plans keep pointing at it after their optimization's storage is
// recycled.
type Vocab struct {
	u     *Universe
	ids   []ColID  // by ordinal, duplicate-free
	quant []int    // quantifier ordinal of each column
	ops   [][2]int // per conjunct ordinal: its bare-column operands' ordinals (left, right), or -1
	self  []int    // self[i] == i: the backing of every one-column list
}

// NewVocab fixes the ordinals of the given columns of u's quantifiers,
// deduplicated and in name order; it takes cols over and reorders it. The
// columns must belong to u.
func NewVocab(u *Universe, cols []ColID) *Vocab {
	slices.SortFunc(cols, ColID.Compare)
	v := &Vocab{u: u, ids: slices.Compact(cols), ops: make([][2]int, u.Preds().Len())}
	n := len(v.ids)
	ints := make([]int, 2*n)
	v.quant, v.self = ints[:n:n], ints[n:]
	for i, c := range v.ids {
		if v.quant[i], v.self[i] = u.Ordinal(c.Table), i; v.quant[i] < 0 {
			panic(fmt.Sprintf("expr: column %s references no quantifier of the universe", c))
		}
	}
	for i := range v.ops {
		v.ops[i] = [2]int{-1, -1}
		if c, ok := u.Conjunct(i).(*Cmp); ok {
			for k, side := range [2]Expr{c.L, c.R} {
				if col, ok := side.(*Col); ok {
					v.ops[i][k] = v.Ordinal(col.ID)
				}
			}
		}
	}
	return v
}

// Len returns the number of columns.
func (v *Vocab) Len() int { return len(v.ids) }

// ID returns the column with ordinal i.
func (v *Vocab) ID(i int) ColID { return v.ids[i] }

// Ordinal returns the column's ordinal, or -1.
func (v *Vocab) Ordinal(c ColID) int {
	if i, ok := slices.BinarySearchFunc(v.ids, c, ColID.Compare); ok {
		return i
	}
	return -1
}

// List returns the named columns, in order, as a list; they must belong to
// the vocabulary.
func (v *Vocab) List(ids ...ColID) ColList {
	l := ColList{v: v, ords: make([]int, len(ids))}
	for k, c := range ids {
		if l.ords[k] = v.Ordinal(c); l.ords[k] < 0 {
			panic(fmt.Sprintf("expr: column %s is not in the vocabulary", c))
		}
	}
	return l
}

// Set returns the set of the named columns, which must belong to the
// vocabulary.
func (v *Vocab) Set(ids ...ColID) ColSet { return v.List(ids...).Set() }

// Alloc is where the column lists a search builds take their ordinals from:
// the optimization's plan arena (plan.Arena.Ints), whose lists are valid
// until its Reset. Every constructor that takes one uses the heap for nil.
type Alloc interface {
	// Ints returns n slots, capped so an append cannot reach past them.
	Ints(n int) []int
}

// list returns x followed by y as one list on a; a one-column list aliases
// self, so the commonest key takes no storage at all.
func (v *Vocab) list(a Alloc, x, y []int) ColList {
	if len(x) == 0 {
		x, y = y, nil
	}
	n := len(x) + len(y)
	switch {
	case n == 0:
		return ColList{v: v}
	case n == 1:
		return ColList{v: v, ords: v.self[x[0] : x[0]+1 : x[0]+1]}
	}
	var ords []int
	if a == nil {
		ords = make([]int, n)
	} else {
		ords = a.Ints(n)
	}
	copy(ords[copy(ords, x):], y)
	return ColList{v: v, ords: ords}
}

// sideCols appends to out, in set order, each bare-column operand of a
// comparison in ps that belongs to side t and is not in out yet, and calls
// seen (when non-nil) with whether that comparison is an equality.
func (v *Vocab) sideCols(out []int, ps PredSet, t TableSet, seen func(eq bool)) []int {
	for i := ps.Next(0); i >= 0; i = ps.Next(i + 1) {
		for _, o := range v.ops[i] {
			if o >= 0 && t.mask>>v.quant[o]&1 != 0 && !slices.Contains(out, o) {
				if out = append(out, o); seen != nil {
					seen(ps.u.preds[i].(*Cmp).Op == EQ)
				}
			}
		}
	}
	return out
}

// SortColsFor returns, on a, the columns of the sortable predicates that
// belong to side t, in canonical order: χ(SP) ∩ χ(T) in the paper's JMeth
// STAR. The outer and inner orders pair up because SortablePreds only admits
// column = column predicates and canonical predicate order fixes the pairing.
func (v *Vocab) SortColsFor(sp PredSet, t TableSet, a Alloc) ColList {
	var buf [16]int
	return v.list(a, v.sideCols(buf[:0], sp, t, nil), nil)
}

// IndexColsFor returns IX, on a: the inner-side columns of indexable (XP) and
// inner-only (IP) predicates, equality predicates first (Section 4.5.3), so
// that a dynamically created index applies the most selective prefix first.
// A column is classed by the predicate it is first seen in, XP before IP.
func (v *Vocab) IndexColsFor(xp, ip PredSet, t2 TableSet, a Alloc) ColList {
	var buf [16]int
	var eqBuf [16]bool
	eq := eqBuf[:0]
	seen := func(isEq bool) { eq = append(eq, isEq) }
	cols := v.sideCols(v.sideCols(buf[:0], xp, t2, seen), ip, t2, seen)
	var outBuf [16]int
	out := outBuf[:0]
	for _, first := range [2]bool{true, false} {
		for k, o := range cols {
			if eq[k] == first {
				out = append(out, o)
			}
		}
	}
	return v.list(a, out, nil)
}

// Probes reports whether conjunct i compares column col, as a bare operand,
// with an operand that does not reference col's quantifier — a constant, or
// an outer expression bound per probe ("sideways information passing") — so
// that an index keyed on col can apply it.
func (v *Vocab) Probes(i, col int) bool {
	q := uint64(1) << v.quant[col]
	switch in := &v.u.info[i]; col {
	case v.ops[i][0]:
		return in.right&q == 0
	case v.ops[i][1]:
		return in.left&q == 0
	}
	return false
}

// MatchIndexPrefix returns the subset of preds an index with the given key
// columns can apply: a chain of equality predicates on a key-column prefix,
// optionally terminated by one range predicate, each probing its key column.
func MatchIndexPrefix(preds PredSet, key ColList) PredSet {
	used := PredSet{u: preds.u}
	for _, kc := range key.ords {
		eqPick, rangePick := -1, -1
		for i := preds.Next(0); i >= 0 && eqPick < 0; i = preds.Next(i + 1) {
			if used.has(i) || !key.v.Probes(i, kc) {
				continue
			}
			if op := preds.u.preds[i].(*Cmp).Op; op == EQ {
				eqPick = i
			} else if rangePick < 0 && op != NE {
				rangePick = i
			}
		}
		if pick := max(eqPick, rangePick); pick >= 0 { // an equality is found after any range
			used = used.Union(preds.u.pred(pick))
		}
		if eqPick < 0 {
			break
		}
	}
	return used
}

// ColSet is a set of a query's columns — the COLS property — as a bitset over
// the ordinals of its Vocab, on the storage PredSet uses. It is an immutable
// value and the zero value is the empty set in any vocabulary; operations
// take their vocabulary the way PredSet's take their universe.
type ColSet struct {
	v *Vocab
	words
}

// Union returns s ∪ o.
func (s ColSet) Union(o ColSet) ColSet { return ColSet{cmp.Or(s.v, o.v), s.zip(o.words, or)} }

// Minus returns s − o.
func (s ColSet) Minus(o ColSet) ColSet { return ColSet{cmp.Or(s.v, o.v), s.zip(o.words, andNot)} }

// Equal reports set equality.
func (s ColSet) Equal(o ColSet) bool { return s.equal(o.words) }

// List returns the members in ordinal (name) order, on a.
func (s ColSet) List(a Alloc) ColList {
	var buf [16]int
	ords := buf[:0]
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		ords = append(ords, i)
	}
	return s.v.list(a, ords, nil)
}

// String renders the members in name order, comma-separated.
func (s ColSet) String() string { return string(s.AppendTo(nil)) }

// AppendTo appends String's rendering to b.
func (s ColSet) AppendTo(b []byte) []byte {
	for i, first := s.Next(0), true; i >= 0; i, first = s.Next(i+1), false {
		if !first {
			b = append(b, ',')
		}
		b = s.v.ids[i].AppendTo(b)
	}
	return b
}

// ColList is an ordered list of a query's columns — an ORDER, an index key, a
// node's own columns — as ordinals of its Vocab. It is an immutable value;
// the zero value is the empty list.
type ColList struct {
	v    *Vocab
	ords []int
}

// Len returns the number of columns.
func (l ColList) Len() int { return len(l.ords) }

// At returns the ordinal of the k-th column.
func (l ColList) At(k int) int { return l.ords[k] }

// ID returns the name of the k-th column.
func (l ColList) ID(k int) ColID { return l.v.ids[l.ords[k]] }

// IDs returns the names, in order.
func (l ColList) IDs() []ColID {
	out := make([]ColID, len(l.ords))
	for k := range out {
		out[k] = l.ID(k)
	}
	return out
}

// HasPrefix reports whether p is a prefix of l — the paper's "order ⊑ a".
func (l ColList) HasPrefix(p ColList) bool {
	return len(p.ords) <= len(l.ords) && slices.Equal(l.ords[:len(p.ords)], p.ords)
}

// Equal reports whether the lists name the same columns in the same order.
func (l ColList) Equal(o ColList) bool { return slices.Equal(l.ords, o.ords) }

// Concat returns l followed by o, on a.
func (l ColList) Concat(o ColList, a Alloc) ColList {
	return cmp.Or(l.v, o.v).list(a, l.ords, o.ords)
}

// Set returns the set of the listed columns.
func (l ColList) Set() ColSet {
	s := ColSet{v: l.v}
	for _, o := range l.ords {
		s.add(o, len(l.v.ids))
	}
	return s
}

// String renders the columns as TABLE.COL, comma-separated.
func (l ColList) String() string { return string(l.AppendTo(nil)) }

// AppendTo appends String's rendering to b.
func (l ColList) AppendTo(b []byte) []byte {
	for k := range l.ords {
		if k > 0 {
			b = append(b, ',')
		}
		b = l.ID(k).AppendTo(b)
	}
	return b
}
