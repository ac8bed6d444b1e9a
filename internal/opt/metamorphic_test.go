package opt

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"stars/internal/catalog"
	"stars/internal/expr"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/sqlparse"
	"stars/internal/star"
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

// renaming is a bijective rename of a query's quantifiers and its catalog's
// columns that reverses the name order of each: the i-th quantifier name in
// sorted order becomes the i-th from last of zq00, zq01, ..., and likewise
// every (table, column) pair of the catalog becomes one of zc000, zc001, ....
// The TID pseudo-column is not a catalog column and keeps its name.
type renaming struct {
	quant map[string]string         // old quantifier name -> new
	col   map[[2]string]string      // (base table, old column) -> new
	back  map[string]string         // new name -> old, for both kinds
	table func(quant string) string // old quantifier -> its base table
}

func newRenaming(cat *catalog.Catalog, g *query.Graph) *renaming {
	r := &renaming{quant: map[string]string{}, col: map[[2]string]string{}, back: map[string]string{}}
	names := g.QuantNames()
	sort.Strings(names)
	for i, q := range names {
		n := fmt.Sprintf("zq%02d", len(names)-1-i)
		r.quant[q], r.back[n] = n, q
	}
	var pairs [][2]string
	for _, t := range cat.Tables {
		for _, c := range t.Cols {
			pairs = append(pairs, [2]string{t.Name, c.Name})
		}
	}
	slices.SortFunc(pairs, func(a, b [2]string) int { return strings.Compare(a[0]+"."+a[1], b[0]+"."+b[1]) })
	for i, p := range pairs {
		n := fmt.Sprintf("zc%03d", len(pairs)-1-i)
		r.col[p], r.back[n] = n, p[1]
	}
	r.table = func(q string) string { return g.Quant(q).Table }
	return r
}

// apply renames cat's columns in place and returns g with its quantifiers
// and column references renamed.
func (r *renaming) apply(cat *catalog.Catalog, g *query.Graph) *query.Graph {
	for _, t := range cat.Tables {
		for _, c := range t.Cols {
			c.Name = r.col[[2]string{t.Name, c.Name}]
		}
		for i, c := range t.Order {
			t.Order[i] = r.col[[2]string{t.Name, c}]
		}
		for _, p := range t.Paths {
			for i, c := range p.Cols {
				p.Cols[i] = r.col[[2]string{t.Name, c}]
			}
		}
	}
	id := func(c expr.ColID) expr.ColID {
		return expr.ColID{Table: r.quant[c.Table], Col: r.col[[2]string{r.table(c.Table), c.Col}]}
	}
	var rename func(e expr.Expr) expr.Expr
	rename = func(e expr.Expr) expr.Expr {
		kids := func(ks []expr.Expr) []expr.Expr {
			out := make([]expr.Expr, len(ks))
			for i, k := range ks {
				out[i] = rename(k)
			}
			return out
		}
		switch n := e.(type) {
		case *expr.Col:
			return &expr.Col{ID: id(n.ID)}
		case *expr.Arith:
			return &expr.Arith{Op: n.Op, L: rename(n.L), R: rename(n.R)}
		case *expr.Cmp:
			return &expr.Cmp{Op: n.Op, L: rename(n.L), R: rename(n.R)}
		case *expr.And:
			return &expr.And{Kids: kids(n.Kids)}
		case *expr.Or:
			return &expr.Or{Kids: kids(n.Kids)}
		case *expr.Not:
			return &expr.Not{Kid: rename(n.Kid)}
		default:
			return e
		}
	}
	var from []query.Quantifier
	for _, q := range g.Quants {
		from = append(from, query.Quantifier{Name: r.quant[q.Name], Table: q.Table})
	}
	var where []expr.Expr
	for _, p := range g.Preds.Slice() {
		where = append(where, rename(p))
	}
	out := query.MustNew(from, where...)
	for _, c := range g.Select {
		out.Select = append(out.Select, id(c))
	}
	for _, c := range g.OrderBy {
		out.OrderBy = append(out.OrderBy, id(c))
	}
	return out
}

var (
	renameToken = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	renameTemp  = regexp.MustCompile(`\b(_t|_ix)[0-9a-f]{16}\b`)
	renameSet   = regexp.MustCompile(`\{[^{}]*\}`)
)

// canonical renders a best plan's Functional form for comparison across a
// rename: names mapped back through back (nil maps nothing), the hashed
// names of temps and dynamic indexes (which hash the renamed names) replaced
// by their prefix, and each {column set} and each run of AND-ed conjuncts
// sorted, since sets render in name order and the rename reverses it.
func canonical(n *plan.Node, back map[string]string) string {
	s := renameToken.ReplaceAllStringFunc(plan.Functional(n), func(tok string) string {
		if old, ok := back[tok]; ok {
			return old
		}
		return tok
	})
	s = renameTemp.ReplaceAllString(s, "$1*")
	s = renameSet.ReplaceAllStringFunc(s, func(set string) string {
		items := strings.Split(set[1:len(set)-1], ",")
		sort.Strings(items)
		return "{" + strings.Join(items, ",") + "}"
	})
	args := strings.Split(s, ", ")
	for i, a := range args {
		ops := strings.LastIndex(a, "(") + 1
		if strings.HasSuffix(a[:ops], "(") && strings.ContainsAny(a[ops:], "=<>") {
			conj := strings.Split(a[ops:], " AND ")
			sort.Strings(conj)
			args[i] = a[:ops] + strings.Join(conj, " AND ")
		}
	}
	return strings.Join(args, ", ")
}

// TestMetamorphicRename checks that names carry no meaning: renaming every
// quantifier and every catalog column bijectively — in an order that reverses
// how the names sort, so every name-ordered set and list is renumbered —
// changes neither the best cost nor the best plan, whose Functional rendering
// mapped back through the inverse rename must be what the original query
// gets. It covers the workload corpus and chain and star queries of 3 to 6
// tables, serially and rank-parallel.
func TestMetamorphicRename(t *testing.T) {
	type point struct {
		name string
		mk   func() (*catalog.Catalog, *query.Graph)
	}
	var points []point
	for i, e := range workload.Corpus() {
		points = append(points, point{e.Name, func() (*catalog.Catalog, *query.Graph) {
			e := workload.Corpus()[i] // a catalog of its own to rename
			return e.Cat, e.Query
		}})
	}
	for n := 3; n <= 6; n++ {
		points = append(points,
			point{fmt.Sprintf("chain%d", n), func() (*catalog.Catalog, *query.Graph) {
				return workload.ChainCatalog(n), workload.ChainQuery(n)
			}},
			point{fmt.Sprintf("star%d", n), func() (*catalog.Catalog, *query.Graph) {
				return workload.StarCatalog(n, 100000, 1000), workload.StarQuery(n)
			}})
	}
	for _, pt := range points {
		for _, par := range []int{1, 2} {
			optimize := func(cat *catalog.Catalog, g *query.Graph) (float64, string) {
				res, err := New(cat, Options{Parallelism: par}).Optimize(g)
				if err != nil {
					t.Fatalf("%s/par%d: %v", pt.name, par, err)
				}
				defer res.Release()
				return res.Best.Props.Cost.Total, canonical(res.Best, nil)
			}
			cost, shape := optimize(pt.mk())
			cat, g := pt.mk()
			r := newRenaming(cat, g)
			rg := r.apply(cat, g)
			res, err := New(cat, Options{Parallelism: par}).Optimize(rg)
			if err != nil {
				t.Fatalf("%s/par%d renamed: %v", pt.name, par, err)
			}
			if got := res.Best.Props.Cost.Total; got != cost {
				t.Errorf("%s/par%d: renamed best cost %v, want %v", pt.name, par, got, cost)
			}
			if got := canonical(res.Best, r.back); got != shape {
				t.Errorf("%s/par%d: renamed best plan, mapped back:\n  %s\nwant\n  %s", pt.name, par, got, shape)
			}
			res.Release()
		}
	}
}

// TestMetamorphicAlternativeOrder checks that an inclusive STAR is a set of
// alternatives: reversing the alternatives of any one of the built-in
// repertoire's changes no best cost. Glue must not find a single-table cell
// that only a materializing reference's veneers have filled, or the order in
// which PermutedJoin, SitedJoin and JMeth reach it decides whether the access
// STARs ever see the pushed predicates. It covers the workload corpus (chain
// joins of 2 to 5 tables and star joins of 3 and 4 among them) and a grid of
// Figure 1 variants on the distributed EMP/DEPT catalog — two projections,
// each with one selection on EMP.NAME, ENO or ADDRESS or on DEPT.DNO or MGR —
// serially and rank-parallel.
func TestMetamorphicAlternativeOrder(t *testing.T) {
	type point struct {
		name string
		cat  *catalog.Catalog
		g    *query.Graph
	}
	var points []point
	for _, e := range workload.Corpus() {
		points = append(points, point{e.Name, e.Cat, e.Query})
	}
	dist := workload.DistributedEmpDept()
	for _, proj := range []string{"EMP.NAME, EMP.SAL", "DEPT.DNO, DEPT.MGR, EMP.NAME, EMP.ADDRESS"} {
		for _, sel := range []string{"EMP.NAME = 'name8907'", "EMP.ENO = 17", "EMP.ADDRESS = 'addr5'", "DEPT.DNO = 42", "DEPT.MGR = 'Haas'"} {
			sql := "SELECT " + proj + " FROM EMP, DEPT WHERE DEPT.DNO = EMP.DNO AND " + sel
			g, err := sqlparse.Parse(sql, dist)
			if err != nil {
				t.Fatal(err)
			}
			points = append(points, point{sql, dist, g})
		}
	}
	var inclusive []string
	for _, name := range star.DefaultRules().Names() {
		if r := star.DefaultRules().Get(name); !r.Exclusive && len(r.Alts) > 1 {
			inclusive = append(inclusive, name)
		}
	}
	for _, par := range []int{1, 2} {
		optimize := func(pt point, rules *star.RuleSet) float64 {
			res, err := New(pt.cat, Options{Parallelism: par, Rules: rules}).Optimize(pt.g)
			if err != nil {
				t.Fatalf("%s/par%d: %v", pt.name, par, err)
			}
			defer res.Release()
			return res.Best.Props.Cost.Total
		}
		for _, pt := range points {
			cost := optimize(pt, nil)
			for _, name := range inclusive {
				rules := star.DefaultRules()
				r := *rules.Get(name)
				r.Alts = slices.Clone(r.Alts)
				slices.Reverse(r.Alts)
				rules.Add(&r)
				if got := optimize(pt, rules); got != cost {
					t.Errorf("%s/par%d: best cost %v with %s's alternatives reversed, want %v", pt.name, par, got, name, cost)
				}
			}
		}
	}
}
