package exec_test

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"stars/ext/bloom"
	"stars/ext/outerjoin"
	"stars/ext/semijoin"
	"stars/internal/catalog"
	"stars/internal/exec"
	"stars/internal/expr"
	"stars/internal/opt"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/storage"
	"stars/internal/workload"
)

// TestRandomizedEndToEnd is the repository's broadest correctness property:
// across randomized schemas, cardinalities, data seeds, and optimizer
// options, the chosen plan's executed result must equal the brute-force
// oracle's. Failures print the trial seed and the plan.
func TestRandomizedEndToEnd(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		cat, g, opts, cluster := randomTrial(trial, 20, 300)
		res, err := opt.New(cat, opts).Optimize(g)
		if err != nil {
			t.Fatalf("trial %d (%+v): optimize: %v", trial, opts, err)
		}
		er, err := exec.NewRuntime(cluster, cat).Run(res.Best)
		if err != nil {
			t.Fatalf("trial %d: execute:\n%s\nerror: %v", trial, plan.Explain(res.Best), err)
		}
		want := workload.Oracle(cluster, cat, g)
		got := workload.RenderRows(er.Schema, er.Rows, g.SelectCols(cat))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: result mismatch (%d vs %d rows)\noptions: %+v\nplan:\n%s",
				trial, len(got), len(want), opts, plan.Explain(res.Best))
		}
	}
}

// randomTrial draws one trial's schema (a chain of 2-4 tables of lo to
// lo+spread rows, or a star of 1-2 dimensions), optimizer options and
// populated data from the trial number.
func randomTrial(trial, lo, spread int) (*catalog.Catalog, *query.Graph, opt.Options, *storage.Cluster) {
	r := rand.New(rand.NewSource(int64(1000 + trial)))

	var cat *catalog.Catalog
	var g *query.Graph
	if r.Intn(2) == 0 {
		n := 2 + r.Intn(3)
		cards := make([]int64, n)
		for i := range cards {
			cards[i] = int64(lo + r.Intn(spread))
		}
		cat = workload.ChainCatalog(n, cards...)
		g = workload.ChainQuery(n)
	} else {
		k := 1 + r.Intn(2)
		cat = workload.StarCatalog(k, int64(100+r.Intn(800)), int64(10+r.Intn(50)))
		g = workload.StarQuery(k)
	}
	opts := opt.Options{
		CartesianProducts: r.Intn(2) == 0,
		NoCompositeInners: r.Intn(3) == 0,
		KeepAllGlue:       r.Intn(4) == 0,
		DisablePruning:    r.Intn(6) == 0,
	}
	// KeepAllGlue × DisablePruning multiplies the join cross-products
	// against an unpruned plan table — deliberately explosive, and not
	// a combination the ablations pair either.
	if opts.DisablePruning {
		opts.KeepAllGlue = false
	}

	cluster := storage.NewCluster()
	workload.Populate(cluster, cat, int64(trial))
	return cat, g, opts, cluster
}

// TestEveryRetainedRootPlanMatchesOracle is TestRandomizedEndToEnd for the
// alternatives that did not win: over the same trials (on chain tables of
// 8-16 rows: a join column has a tenth of its table's rows as distinct values,
// so a four-table chain of 300-row tables returns 300 000 rows, and here every
// alternative is run) it executes every plan the table retains for the whole
// query — under the built-in repertoire and each of ext/semijoin, ext/bloom
// and ext/outerjoin (two-table trials: its root joins exactly two), at
// Parallelism 1 and 2 — and asserts each one's row multiset equals the
// brute-force oracle's. Losing plans are where STOREs and dynamic indexes
// live, so this is also what proves a temp's writer and its readers (the temp
// ACCESS, BUILDINDEX, the index probe) agree on the generated name each
// renders for the executor's temp store.
func TestEveryRetainedRootPlanMatchesOracle(t *testing.T) {
	trials := 20
	if testing.Short() {
		trials = 8
	}
	repertoires := []struct {
		name     string
		install  func(*opt.Options) error
		register func(*exec.Runtime)
	}{
		{"builtin", func(*opt.Options) error { return nil }, func(*exec.Runtime) {}},
		{"semijoin", semijoin.Install, semijoin.Register},
		{"bloom", bloom.Install, bloom.Register},
		{"outerjoin", outerjoin.Install, outerjoin.Register},
	}
	executed := map[plan.Op]int{}
	for trial := 0; trial < trials; trial++ {
		cat, g, base, cluster := randomTrial(trial, 8, 9)
		inner := workload.Oracle(cluster, cat, g)
		for _, rep := range repertoires {
			want := inner
			if rep.name == "outerjoin" {
				if len(g.Quants) != 2 {
					continue
				}
				want = leftOuterOracle(t, cluster, cat, g, inner)
			}
			for _, par := range []int{1, 2} {
				opts := base
				opts.Parallelism = par
				if err := rep.install(&opts); err != nil {
					t.Fatal(err)
				}
				res, err := opt.New(cat, opts).Optimize(g)
				if err != nil {
					t.Fatalf("trial %d %s (%+v): optimize: %v", trial, rep.name, opts, err)
				}
				rt := exec.NewRuntime(cluster, cat)
				rep.register(rt)
				roots := res.Table.Entry(g.TableSet())
				if len(roots) == 0 {
					t.Fatalf("trial %d %s: no root plan retained", trial, rep.name)
				}
				for _, p := range roots {
					er, err := rt.Run(p)
					if err != nil {
						t.Fatalf("trial %d %s Parallelism %d: execute:\n%s\nerror: %v", trial, rep.name, par, plan.Explain(p), err)
					}
					if got := workload.RenderRows(er.Schema, er.Rows, g.SelectCols(cat)); !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d %s Parallelism %d: result mismatch (%d vs %d rows)\noptions: %+v\nplan:\n%s",
							trial, rep.name, par, len(got), len(want), opts, plan.Explain(p))
					}
					seen := map[*plan.Node]bool{}
					p.Walk(func(n *plan.Node) {
						if !seen[n] {
							seen[n] = true
							executed[n.Op]++
						}
					})
				}
			}
		}
	}
	for _, op := range []plan.Op{plan.OpStore, plan.OpBuildIndex, semijoin.OpSemi, bloom.OpBloom, outerjoin.OpOuter} {
		if executed[op] == 0 {
			t.Errorf("no executed alternative contains a %s: the trials no longer cover it", op)
		}
	}
	t.Logf("operators executed over all alternatives: %v", executed)
}

// leftOuterOracle extends the inner-join oracle of a two-table trial to a
// left outer join preserving the first quantifier: a row of it whose join
// column finds no partner appears once, its partner's columns NULL.
func leftOuterOracle(t *testing.T, cluster *storage.Cluster, cat *catalog.Catalog, g *query.Graph, inner []string) []string {
	t.Helper()
	eq, ok := g.Preds.Slice()[0].(*expr.Cmp)
	if !ok || g.Preds.Len() != 1 || eq.Op != expr.EQ {
		t.Fatalf("two-table trial joins on %s, want one equality", g.Preds)
	}
	l, r := eq.L.(*expr.Col).ID, eq.R.(*expr.Col).ID
	if l.Table != g.Quants[0].Name {
		l, r = r, l
	}
	single := func(q query.Quantifier, sel ...expr.ColID) []string {
		one := query.MustNew([]query.Quantifier{q})
		one.Select = sel
		return workload.Oracle(cluster, cat, one)
	}
	partners := map[string]bool{}
	for _, v := range single(g.Quants[1], r) {
		partners[v] = true
	}
	// The preserved side's selected columns, then its join column last.
	var keep []expr.ColID
	for _, c := range g.SelectCols(cat) {
		if c.Table == l.Table {
			keep = append(keep, c)
		}
	}
	out := append([]string(nil), inner...)
	for _, row := range single(g.Quants[0], append(keep, l)...) {
		cut := strings.LastIndex(row, "|")
		if partners[row[cut+1:]] {
			continue
		}
		fields, i := strings.Split(row[:cut], "|"), 0
		padded := make([]string, 0, len(fields))
		for _, c := range g.SelectCols(cat) {
			if c.Table == l.Table {
				padded = append(padded, fields[i])
				i++
			} else {
				padded = append(padded, "NULL")
			}
		}
		out = append(out, strings.Join(padded, "|"))
	}
	sort.Strings(out)
	return out
}
