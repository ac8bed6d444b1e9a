package expr

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestUniverseOrdinals pins the two ordinal rules everything else rests on:
// quantifiers in FROM order, conjuncts in canonical-key order (deduplicated),
// whatever order the WHERE clause listed them in.
func TestUniverseOrdinals(t *testing.T) {
	a, b, c := eq(C("T", "A"), ci(1)), eq(C("U", "B"), C("T", "B")), lt(C("U", "C"), ci(3))
	u := mustUniverse(t, []string{"U", "T"}, c, b, a, eq(C("T", "B"), C("U", "B")))
	if u.Ordinal("U") != 0 || u.Ordinal("T") != 1 || u.Ordinal("V") != -1 {
		t.Error("quantifier ordinals must follow FROM order")
	}
	all := u.Preds()
	if all.Len() != 3 {
		t.Fatalf("b and its mirror image share a key: %s", all)
	}
	var keys []string
	all.ForEach(func(_ Expr, key string) { keys = append(keys, key) })
	if !sort.StringsAreSorted(keys) || strings.Join(keys, "&") != all.Key() {
		t.Errorf("ascending ordinals must be key order: %v vs %q", keys, all.Key())
	}
	for i, p := range all.Slice() {
		if p.Key() != keys[i] {
			t.Errorf("Slice()[%d] = %s, want key %s", i, p, keys[i])
		}
	}
	if got := u.PredSet(b).Within(u.Tables("T")); !got.Empty() {
		t.Errorf("a U-T join predicate is not eligible within T alone: %s", got)
	}
	if got := all.Within(u.All()); !got.Equal(all) {
		t.Errorf("everything is eligible within the whole FROM list: %s", got)
	}
	var nilU *Universe
	if !nilU.All().Empty() || !nilU.Preds().Empty() || nilU.Ordinal("T") != -1 {
		t.Error("a nil universe is the empty universe")
	}
}

func TestNewUniverseErrors(t *testing.T) {
	wide := make([]string, 65)
	for i := range wide {
		wide[i] = fmt.Sprintf("Q%d", i)
	}
	for _, tc := range []struct {
		name   string
		quants []string
		preds  []Expr
		want   string
	}{
		{"wider than a word", wide, nil, "65 quantifiers exceed"},
		{"duplicate quantifier", []string{"A", "B", "A"}, nil, `duplicate quantifier "A"`},
		{"foreign column", []string{"A"}, []Expr{eq(C("A", "X"), C("Z", "Y"))}, "column Z.Y references unknown quantifier"},
	} {
		if u, err := NewUniverse(tc.quants, tc.preds); u != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewUniverse = %v, %v; want error %q", tc.name, u, err, tc.want)
		}
	}
	if _, err := NewUniverse(wide[:64], nil); err != nil {
		t.Errorf("64 quantifiers fill the word exactly: %v", err)
	}
}

// TestPredSetSpill checks the algebra against a map-based model on a WHERE
// clause of 150 conjuncts, where members live in the inline word and in both
// spill words. The column sets of the same 150 columns, one per conjunct, run
// the same algebra on the same storage and must agree with it.
func TestPredSetSpill(t *testing.T) {
	pool := make([]Expr, 150)
	for i := range pool {
		pool[i] = eq(C("T", fmt.Sprintf("C%03d", i)), ci(int64(i)))
	}
	u := mustUniverse(t, []string{"T"}, pool...)
	v := mustVocab(t, u)
	colsOf := func(p PredSet) ColSet { return v.Set(p.Columns()...) }
	r := rand.New(rand.NewSource(7))
	type model map[string]bool
	pick := func() (PredSet, model) {
		var ps []Expr
		m := model{}
		density := []int{2, 8, 150}[r.Intn(3)]
		for _, p := range pool {
			if r.Intn(density) == 0 {
				ps = append(ps, p)
				m[p.Key()] = true
			}
		}
		return u.PredSet(ps...), m
	}
	check := func(what string, got PredSet, want model) {
		t.Helper()
		keys := make([]string, 0, len(want))
		for k := range want {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var gotKeys []string
		for _, p := range got.Slice() {
			gotKeys = append(gotKeys, p.Key())
		}
		if !slices.Equal(gotKeys, keys) || got.Len() != len(keys) || got.Empty() != (len(keys) == 0) ||
			got.Key() != strings.Join(keys, "&") {
			t.Fatalf("%s = %v, want %v", what, gotKeys, keys)
		}
		var each []string
		got.ForEach(func(p Expr, key string) {
			if p.Key() != key {
				t.Fatalf("%s: ForEach pairs %s with key %s", what, p, key)
			}
			each = append(each, key)
		})
		if !slices.Equal(each, keys) {
			t.Fatalf("%s: ForEach visits %v, want %v", what, each, keys)
		}
	}
	for i := 0; i < 200; i++ {
		a, ma := pick()
		b, mb := pick()
		union, minus, inter := model{}, model{}, model{}
		for k := range ma {
			union[k] = true
			if mb[k] {
				inter[k] = true
			} else {
				minus[k] = true
			}
		}
		for k := range mb {
			union[k] = true
		}
		check("a", a, ma)
		check("a ∪ b", a.Union(b), union)
		check("a − b", a.Minus(b), minus)
		check("a ∩ b", a.Intersect(b), inter)
		check("a − a", a.Minus(a), model{})
		check("a ∪ {}", a.Union(PredSet{}), ma)
		check("{} ∪ a", PredSet{}.Union(a), ma)
		check("a within T", a.Within(u.All()), ma)
		if a.Equal(b) != (a.Key() == b.Key()) || !a.Union(b).Equal(b.Union(a)) {
			t.Fatal("Equal must agree with the keys")
		}
		if ab, ba := a.Union(b), b.Union(a); ab.Hash64() != ba.Hash64() {
			t.Fatal("equal sets must hash alike")
		}
		ca, cb := colsOf(a), colsOf(b)
		for _, c := range []struct {
			what string
			got  ColSet
			want PredSet
		}{
			{"cols(a)", ca, a},
			{"cols(a) ∪ cols(b)", ca.Union(cb), a.Union(b)},
			{"cols(a) − cols(b)", ca.Minus(cb), a.Minus(b)},
			{"cols(a) − cols(a)", ca.Minus(ca), PredSet{}},
			{"{} ∪ cols(a)", ColSet{}.Union(ca), a},
		} {
			want := colsOf(c.want)
			if !c.got.Equal(want) || c.got.String() != want.String() || c.got.Len() != c.want.Len() ||
				c.got.Empty() != c.want.Empty() || c.got.Hash64() != want.Hash64() || !slices.Equal(c.got.List(nil).IDs(), c.want.Columns()) {
				t.Fatalf("%s = {%s}, want {%s}", c.what, c.got, want)
			}
		}
	}
	if u.Preds().Len() != 150 || !u.Preds().Contains(pool[149]) || u.PredSet(pool[3]).Contains(pool[149]) {
		t.Error("membership past the inline word")
	}
	if all := u.Preds(); &all.Slice()[0] != &all.Slice()[0] {
		t.Error("a spilled set's Slice must be memoized like a one-word set's: the executor asks per row")
	}
}

// TestSliceMemoConcurrent: the Slice memo is the universe's only mutable
// state and concurrent executions (or ext/* property functions on enumeration
// workers) share the universe, so equal sets must get the same, correct
// slice from any number of goroutines (run under -race).
func TestSliceMemoConcurrent(t *testing.T) {
	pool := make([]Expr, 12)
	for i := range pool {
		pool[i] = eq(C("T", fmt.Sprintf("C%02d", i)), ci(int64(i)))
	}
	u := mustUniverse(t, []string{"T"}, pool...)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				s := u.PredSet(pool[round%12], pool[(round+g)%12], pool[(round*7+3)%12])
				got := s.Slice()
				if len(got) != s.Len() {
					t.Errorf("Slice() has %d members, Len() %d", len(got), s.Len())
					return
				}
				i := 0
				s.ForEach(func(p Expr, _ string) {
					if i < len(got) && got[i] != p {
						t.Errorf("Slice()[%d] = %s, want %s", i, got[i], p)
					}
					i++
				})
			}
		}(g)
	}
	wg.Wait()
}
