package opt

import (
	"math/rand"
	"testing"

	"stars/internal/catalog"
	"stars/internal/expr"
	"stars/internal/query"
	"stars/internal/workload"
)

// TestMetamorphicReorder checks that the answer does not depend on how the
// query was written down: conjunct ordinals are assigned in canonical-key
// order, so permuting the WHERE clause must change nothing at all — best cost,
// fingerprint and shape fingerprint — and permuting the FROM list, which does
// renumber the quantifier ordinals, must leave the best cost exactly where it
// was. (The FROM-permuted fingerprint is deliberately not compared: subset
// masks reach temp names and dominance tie-breaks. EXPERIMENTS.md records
// that finding.)
func TestMetamorphicReorder(t *testing.T) {
	for _, w := range []struct {
		name string
		cat  *catalog.Catalog
		g    *query.Graph
	}{
		{"figure1", workload.EmpDept(), workload.Figure1Query()},
		{"chain5", workload.ChainCatalog(5), workload.ChainQuery(5)},
		{"chain7", workload.ChainCatalog(7), workload.ChainQuery(7)},
		{"star4", workload.StarCatalog(4, 100000, 1000), workload.StarQuery(4)},
		{"star6", workload.StarCatalog(6, 100000, 1000), workload.StarQuery(6)},
	} {
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
