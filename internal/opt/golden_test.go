package opt

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"testing"

	"stars/internal/catalog"
	"stars/internal/expr"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/workload"
)

// updateGolden rewrites testdata/golden from the tree under test. The files
// were recorded at the commit before Glue's watermark memo and cost bound went
// in; regenerate them only for a change that means to move a best cost.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from this tree")

const goldenDir = "../../testdata/golden/"

// goldenCase is one optimization whose best cost must not move.
type goldenCase struct {
	name string
	cat  *catalog.Catalog
	g    func() *query.Graph
	opts Options
	slow bool
}

// chainCards are the pinned chain8 fixture's cardinalities, cycled.
var chainCards = []int64{400, 150, 60, 200, 90, 500, 120, 80}

// cliqueQuery joins T1..Tn pairwise (Tj.K = Ti.J for every j < i).
func cliqueQuery(n int) *query.Graph {
	var quants []query.Quantifier
	var preds []expr.Expr
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("T%d", i)
		quants = append(quants, query.Quantifier{Name: name, Table: name})
		for j := 1; j < i; j++ {
			preds = append(preds, &expr.Cmp{Op: expr.EQ, L: expr.C(fmt.Sprintf("T%d", j), "K"), R: expr.C(name, "J")})
		}
	}
	g := query.MustNew(quants, preds...)
	g.Select = []expr.ColID{{Table: "T1", Col: "ID"}}
	return g
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, e := range workload.Corpus() {
		cases = append(cases, goldenCase{name: "corpus/" + e.Name, cat: e.Cat, g: func() *query.Graph { return e.Query }})
	}
	chain := func(n int) func() *query.Graph { return func() *query.Graph { return workload.ChainQuery(n) } }
	for n := 2; n <= 10; n++ {
		cases = append(cases, goldenCase{name: fmt.Sprintf("chain%d", n), cat: workload.ChainCatalog(n, chainCards...), g: chain(n)})
	}
	for k := 3; k <= 8; k++ {
		cases = append(cases, goldenCase{name: fmt.Sprintf("star%d", k), cat: workload.StarCatalog(k, 100000, 500),
			g: func() *query.Graph { return workload.StarQuery(k) }, slow: k == 8})
	}
	for n := 3; n <= 5; n++ {
		cases = append(cases, goldenCase{name: fmt.Sprintf("clique%d", n), cat: workload.ChainCatalog(n, chainCards...),
			g: func() *query.Graph { return cliqueQuery(n) }})
	}
	dist := workload.ChainCatalog(5, 300, 100, 50, 200, 80)
	dist.Sites = []string{"HQ", "NY", "LA"}
	dist.QuerySite = "HQ"
	dist.Table("T2").Site = "NY"
	dist.Table("T4").Site = "LA"
	return append(cases,
		goldenCase{name: "distributed-chain5", cat: dist, g: chain(5)},
		goldenCase{name: "cartesian-chain5", cat: workload.ChainCatalog(5, chainCards...), g: chain(5), opts: Options{CartesianProducts: true}},
		goldenCase{name: "leftdeep-chain6", cat: workload.ChainCatalog(6, chainCards...), g: chain(6), opts: Options{NoCompositeInners: true}},
		goldenCase{name: "keepall-star4", cat: workload.StarCatalog(4, 100000, 500),
			g: func() *query.Graph { return workload.StarQuery(4) }, opts: Options{KeepAllGlue: true}},
		goldenCase{name: "nopruning-chain4", cat: workload.ChainCatalog(4, chainCards...), g: chain(4), opts: Options{DisablePruning: true}},
	)
}

// checkGolden compares got with the named golden file line by line, or
// rewrites the file under -update-golden. skip names golden lines this run
// did not produce (star8 under -short).
func checkGolden(t *testing.T, file, got string, skip func(line string) bool) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(goldenDir+file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenDir + file)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if skip == nil || !skip(line) {
			want.WriteString(line)
		}
	}
	if got != want.String() {
		t.Errorf("%s moved\n got:\n%s\nwant:\n%s", file, got, want.String())
	}
}

// TestGoldenBestCosts holds the best plan's cost, to the sixth decimal, to
// what the rebuild-everything Glue chose — at Parallelism 1 and 2, over the
// corpus, chains, stars, cliques and one fixture per option that changes what
// Glue or the plan table keeps. Glue's memo and bound decide what is built,
// never what is cheapest.
func TestGoldenBestCosts(t *testing.T) {
	if *updateGolden && testing.Short() {
		t.Fatal("-update-golden needs the star8 line: run without -short")
	}
	for _, par := range []int{1, 2} {
		var b strings.Builder
		for _, c := range goldenCases() {
			if c.slow && testing.Short() {
				continue
			}
			opts := c.opts
			opts.Parallelism = par
			res, err := New(c.cat, opts).Optimize(c.g())
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			fmt.Fprintf(&b, "%s %.6f\n", c.name, res.Best.Props.Cost.Total)
			t.Logf("parallelism %d: %s %.6f %s", par, c.name, res.Best.Props.Cost.Total, res.Best.Fingerprint())
		}
		checkGolden(t, "best_costs.txt", b.String(), func(line string) bool {
			return testing.Short() && strings.HasPrefix(line, "star8 ")
		})
	}
}

// TestGoldenKeepAllSatisfyingSet: a KeepAllGlue reference returns every
// satisfying plan, so it uses the memo but never the bound. The plans star4
// retains for the whole query — what the root reference returns from — are the
// ones the rebuild-everything Glue retained (one golden line per plan: its
// cost and a hash of its functional notation).
func TestGoldenKeepAllSatisfyingSet(t *testing.T) {
	cat, g := workload.StarCatalog(4, 100000, 500), workload.StarQuery(4)
	for _, par := range []int{1, 2} {
		res, err := New(cat, Options{KeepAllGlue: true, Parallelism: par}).Optimize(g)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, p := range res.Table.Entry(g.TableSet()) {
			h := fnv.New64a()
			h.Write([]byte(plan.Functional(p)))
			lines = append(lines, fmt.Sprintf("%.6f %016x", p.Props.Cost.Total, h.Sum64()))
		}
		sort.Strings(lines)
		checkGolden(t, "keepall_star4.txt", strings.Join(lines, "\n")+"\n", nil)
	}
}

// TestVeneersNeverLowerCost is the premise of Glue's bound, checked on what
// whole optimizations retain: every Glue veneer, anywhere in any retained plan
// of the corpus (both figure1 catalogs, the distributed one included), a
// distributed chain, chain8 and star6, costs at least what its input does.
func TestVeneersNeverLowerCost(t *testing.T) {
	veneers := 0
	for _, c := range goldenCases() {
		switch {
		case strings.HasPrefix(c.name, "corpus/"), c.name == "distributed-chain5", c.name == "chain8", c.name == "star6":
		default:
			continue
		}
		res, err := New(c.cat, Options{Parallelism: 1}).Optimize(c.g())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res.Table.ForEachPlan(func(p *plan.Node) {
			p.Walk(func(n *plan.Node) {
				if n.Origin != "Glue" {
					return
				}
				veneers++
				if in := n.Inputs[0]; n.Props.Cost.Total < in.Props.Cost.Total {
					t.Errorf("%s: %s veneer costs %.6f, its input %.6f:\n%s", c.name, n.Op,
						n.Props.Cost.Total, in.Props.Cost.Total, plan.Explain(n))
				}
			})
		})
	}
	if veneers == 0 {
		t.Fatal("no retained plan holds a Glue veneer")
	}
}
