package opt

import (
	"math/rand"
	"testing"

	"stars/internal/catalog"
	"stars/internal/expr"
	"stars/internal/query"
	"stars/internal/workload"
)

type corpusQuery struct {
	name string
	cat  *catalog.Catalog
	g    *query.Graph
}

func metamorphicCorpus() []corpusQuery {
	return []corpusQuery{
		{"figure1", workload.EmpDept(), workload.Figure1Query()},
		{"chain5", workload.ChainCatalog(5), workload.ChainQuery(5)},
		{"chain7", workload.ChainCatalog(7), workload.ChainQuery(7)},
		{"star4", workload.StarCatalog(4, 100000, 1000), workload.StarQuery(4)},
		{"star6", workload.StarCatalog(6, 100000, 1000), workload.StarQuery(6)},
	}
}

// TestClassifiersReadRecordedOperandMasks: the universe records each
// comparison's left and right quantifier masks once, and the SP/HP/XP
// classifiers read those two words. For every split of every subset of each
// corpus query they must pick exactly the predicates a classifier that walks
// the operands picks, and allocate nothing doing it (a WHERE clause of up to
// 64 conjuncts is an inline word).
func TestClassifiersReadRecordedOperandMasks(t *testing.T) {
	for _, w := range metamorphicCorpus() {
		u, all := w.g.Universe(), w.g.Preds
		// within reports whether e references at least one column and all of
		// them belong to ts: the operand walk the recorded masks replace.
		within := func(e expr.Expr, ts expr.TableSet) bool {
			cols := expr.Columns(e)
			for _, c := range cols {
				if !ts.Contains(c.Table) {
					return false
				}
			}
			return len(cols) > 0
		}
		isCol := func(e expr.Expr) bool { _, ok := e.(*expr.Col); return ok }
		byWalk := func(t1, t2 expr.TableSet, shape func(c *expr.Cmp, fwd, rev bool) bool) expr.PredSet {
			var keep []expr.Expr
			expr.JoinPreds(all, t1, t2).ForEach(func(p expr.Expr, _ string) {
				if c, ok := p.(*expr.Cmp); ok && shape(c, within(c.L, t1) && within(c.R, t2), within(c.L, t2) && within(c.R, t1)) {
					keep = append(keep, p)
				}
			})
			return u.PredSet(keep...)
		}
		full := uint64(1)<<uint(len(w.g.Quants)) - 1
		splits := 0
		for s1 := uint64(1); s1 <= full; s1++ {
			for s2 := uint64(1); s2 <= full; s2++ {
				if s1&s2 != 0 {
					continue
				}
				splits++
				t1, t2 := u.Subset(s1), u.Subset(s2)
				for _, c := range []struct {
					name  string
					got   func(p expr.PredSet, t1, t2 expr.TableSet) expr.PredSet
					shape func(c *expr.Cmp, fwd, rev bool) bool
				}{
					{"SortablePreds", expr.SortablePreds, func(c *expr.Cmp, _, _ bool) bool {
						return c.Op == expr.EQ && isCol(c.L) && isCol(c.R)
					}},
					{"HashablePreds", expr.HashablePreds, func(c *expr.Cmp, fwd, rev bool) bool {
						return c.Op == expr.EQ && (fwd || rev)
					}},
					{"IndexablePreds", expr.IndexablePreds, func(c *expr.Cmp, fwd, rev bool) bool {
						return fwd && isCol(c.R) || rev && isCol(c.L)
					}},
				} {
					if got, want := c.got(all, t1, t2), byWalk(t1, t2, c.shape); !got.Equal(want) {
						t.Fatalf("%s: %s({%s}, {%s}) = %s, the operand walk picks %s", w.name, c.name, t1.Key(), t2.Key(), got, want)
					}
				}
				if splits%97 == 1 { // a sample: AllocsPerRun repeats the call
					if n := testing.AllocsPerRun(5, func() {
						expr.SortablePreds(all, t1, t2)
						expr.HashablePreds(all, t1, t2)
						expr.IndexablePreds(all, t1, t2)
					}); n != 0 {
						t.Fatalf("%s: classifying {%s} against {%s} allocates %.0f objects, want 0", w.name, t1.Key(), t2.Key(), n)
					}
				}
			}
		}
	}
}

// TestMetamorphicReorder checks that the answer does not depend on how the
// query was written down: conjunct ordinals are assigned in canonical-key
// order, so permuting the WHERE clause must change nothing at all — best cost,
// fingerprint and shape fingerprint — and permuting the FROM list, which does
// renumber the quantifier ordinals, must leave the best cost exactly where it
// was. (The FROM-permuted fingerprint is deliberately not compared: subset
// masks reach temp names and dominance tie-breaks. EXPERIMENTS.md records
// that finding.)
func TestMetamorphicReorder(t *testing.T) {
	for _, w := range metamorphicCorpus() {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name == "star6" {
				t.Skip("star6 permutations skipped in -short mode")
			}
			rng := rand.New(rand.NewSource(16))
			// Every variant is the same query: the quantifiers in FROM order
			// from, the conjuncts in WHERE order where.
			variant := func(from []query.Quantifier, where []expr.Expr) *query.Graph {
				g := query.MustNew(from, where...)
				g.Select, g.OrderBy = w.g.Select, w.g.OrderBy
				return g
			}
			for _, par := range []int{1, 2} {
				optimize := func(g *query.Graph) *Result {
					res, err := New(w.cat, Options{Parallelism: par}).Optimize(g)
					if err != nil {
						t.Fatalf("parallelism %d: %v", par, err)
					}
					return res
				}
				base := optimize(w.g)
				cost, fp, shape := base.Best.Props.Cost.Total, base.Best.Fingerprint(), base.Best.ShapeFingerprint()
				for round := 0; round < 3; round++ {
					where := append([]expr.Expr(nil), w.g.Preds.Slice()...)
					from := append([]query.Quantifier(nil), w.g.Quants...)
					if round == 0 { // reversal, then two random shuffles
						for i, j := 0, len(where)-1; i < j; i, j = i+1, j-1 {
							where[i], where[j] = where[j], where[i]
						}
						for i, j := 0, len(from)-1; i < j; i, j = i+1, j-1 {
							from[i], from[j] = from[j], from[i]
						}
					} else {
						rng.Shuffle(len(where), func(i, j int) { where[i], where[j] = where[j], where[i] })
						rng.Shuffle(len(from), func(i, j int) { from[i], from[j] = from[j], from[i] })
					}

					res := optimize(variant(w.g.Quants, where))
					if got := res.Best.Props.Cost.Total; got != cost {
						t.Errorf("parallelism %d, WHERE permutation %d: best cost %v, want %v", par, round, got, cost)
					}
					if res.Best.Fingerprint() != fp || res.Best.ShapeFingerprint() != shape {
						t.Errorf("parallelism %d, WHERE permutation %d: fingerprint %s/%s, want %s/%s",
							par, round, res.Best.Fingerprint(), res.Best.ShapeFingerprint(), fp, shape)
					}

					res = optimize(variant(from, w.g.Preds.Slice()))
					if got := res.Best.Props.Cost.Total; got != cost {
						t.Errorf("parallelism %d, FROM permutation %d (%v): best cost %v, want %v",
							par, round, variant(from, nil).QuantNames(), got, cost)
					}
				}
			}
		})
	}
}
