// Benchmarks regenerating the paper's figures and claims (one Benchmark per
// experiment of DESIGN.md's index — the workload each experiment measures,
// made repeatable), plus micro-benchmarks of the load-bearing machinery.
//
// Run all with:
//
//	go test -bench=. -benchmem
package stars_test

import (
	"testing"

	"stars"
	"stars/ext/bloom"
	"stars/internal/cost"
	"stars/internal/datum"
	"stars/internal/exec"
	"stars/internal/expr"
	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/query"
	"stars/internal/star"
	"stars/internal/storage"
	"stars/internal/workload"
	"stars/internal/xform"
)

// optimize is the per-iteration unit most benchmarks repeat.
func optimize(b *testing.B, cat *stars.Catalog, g *stars.Graph, o stars.Options) *stars.Result {
	b.Helper()
	res, err := stars.Optimize(cat, g, o)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkE1Figure1Plan regenerates E1: full STAR optimization of the
// Figure 1 query, including generation of the figure's sort-merge plan.
func BenchmarkE1Figure1Plan(b *testing.B) {
	cat := workload.EmpDept()
	g := workload.Figure1Query()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		optimize(b, cat, g, stars.Options{})
	}
}

// BenchmarkE3Glue regenerates E3's work unit: a Glue reference that must
// veneer plans with SHIP and SORT to satisfy [site, order] requirements.
func BenchmarkE3Glue(b *testing.B) {
	cat := workload.EmpDept()
	cat.Sites = []string{"LA", "NY"}
	cat.QuerySite = "LA"
	cat.Table("DEPT").Site = "NY"
	g := workload.Figure1Query()
	g.OrderBy = []expr.ColID{{Table: "DEPT", Col: "DNO"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		optimize(b, cat, g, stars.Options{})
	}
}

// BenchmarkE4Repertoire contrasts the enumeration cost of the left-deep
// repertoire with the full composite-inner repertoire on a 6-table chain.
func BenchmarkE4Repertoire(b *testing.B) {
	cat := workload.ChainCatalog(6, 400, 150, 60, 200, 90, 500)
	g := workload.ChainQuery(6)
	b.Run("left-deep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			optimize(b, cat, g, stars.Options{NoCompositeInners: true})
		}
	})
	b.Run("composite-inners", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			optimize(b, cat, g, stars.Options{})
		}
	})
}

// BenchmarkE5StarVsXform is the headline comparison: the same 3-table query
// through the constructive STAR optimizer and the transformational closure.
func BenchmarkE5StarVsXform(b *testing.B) {
	cat := workload.ChainCatalog(3, 400, 150, 60)
	g := workload.ChainQuery(3)
	b.Run("star", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			optimize(b, cat, g, stars.Options{})
		}
	})
	b.Run("xform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := xform.New(cat, g, cost.DefaultWeights).Optimize(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE6DynamicIndex optimizes the dynamic-index sweep's winning case.
func BenchmarkE6DynamicIndex(b *testing.B) {
	cat := e6e7Catalog(100000, 100000, 100000, 24)
	g := e6e7Query(990)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		optimize(b, cat, g, stars.Options{})
	}
}

// BenchmarkE7ForcedProjection optimizes the forced-projection winning case.
func BenchmarkE7ForcedProjection(b *testing.B) {
	cat := e6e7Catalog(500, 100000, 1000, 1600)
	g := e6e7Query(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		optimize(b, cat, g, stars.Options{})
	}
}

// BenchmarkE8JoinSite optimizes a three-site distributed join.
func BenchmarkE8JoinSite(b *testing.B) {
	cat := stars.EmpDeptCatalog()
	cat.Sites = []string{"HQ", "NY", "SJ"}
	cat.QuerySite = "HQ"
	cat.Table("DEPT").Site = "NY"
	cat.Table("EMP").Site = "SJ"
	g := workload.Figure1Query()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		optimize(b, cat, g, stars.Options{})
	}
}

// BenchmarkE9HashJoin optimizes the no-index equijoin that the hash-join
// alternative wins.
func BenchmarkE9HashJoin(b *testing.B) {
	cat := e6e7Catalog(50000, 50000, 1000, 24)
	g := e6e7Query(990)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		optimize(b, cat, g, stars.Options{})
	}
}

// BenchmarkE10Bloom optimizes with the Bloomjoin extension installed.
func BenchmarkE10Bloom(b *testing.B) {
	opts := stars.Options{}
	if err := bloom.Install(&opts); err != nil {
		b.Fatal(err)
	}
	cat := stars.EmpDeptCatalog()
	cat.Sites = []string{"LA", "NY"}
	cat.QuerySite = "LA"
	cat.Table("EMP").Site = "NY"
	g := workload.Figure1Query()
	for i := 0; i < b.N; i++ {
		optimize(b, cat, g, opts)
	}
}

// BenchmarkE11Validation measures one optimize-then-execute round trip —
// the unit the estimated-vs-measured experiment repeats.
func BenchmarkE11Validation(b *testing.B) {
	cat := workload.EmpDept()
	g := workload.Figure1Query()
	cluster := storage.NewCluster()
	workload.PopulateEmpDept(cluster, cat, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := optimize(b, cat, g, stars.Options{})
		if _, err := exec.NewRuntime(cluster, cat).Run(res.Best); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPruning contrasts plan-table maintenance with and
// without dominance pruning on a 5-table chain.
func BenchmarkAblationPruning(b *testing.B) {
	cat := workload.ChainCatalog(5, 400, 150, 60, 200, 90)
	g := workload.ChainQuery(5)
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			optimize(b, cat, g, stars.Options{})
		}
	})
	b.Run("unpruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			optimize(b, cat, g, stars.Options{DisablePruning: true})
		}
	})
}

// BenchmarkAblationGlueAll contrasts cheapest-only against all-satisfying
// Glue.
func BenchmarkAblationGlueAll(b *testing.B) {
	cat := workload.ChainCatalog(4, 400, 150, 60, 200)
	g := workload.ChainQuery(4)
	b.Run("cheapest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			optimize(b, cat, g, stars.Options{})
		}
	})
	b.Run("all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			optimize(b, cat, g, stars.Options{KeepAllGlue: true})
		}
	})
}

// BenchmarkAblationParse measures loading the repertoire from DSL text —
// the cost interpretation pays instead of compiling an optimizer.
func BenchmarkAblationParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := star.ParseRules(star.DefaultRuleText); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeChain scales the optimizer over chain-query sizes.
func BenchmarkOptimizeChain(b *testing.B) {
	for n := 2; n <= 6; n++ {
		cat := workload.ChainCatalog(n, 400, 150, 60, 200, 90, 500)
		g := workload.ChainQuery(n)
		b.Run(chainName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				optimize(b, cat, g, stars.Options{})
			}
		})
	}
}

func chainName(n int) string { return "n=" + string(rune('0'+n)) }

// BenchmarkEnumerate times the rank-parallel join enumeration
// (docs/PERFORMANCE.md) while you work: an 8-table chain and an
// 8-quantifier star optimized serially (Parallelism 1) and with a rank
// fan-out of GOMAXPROCS. Each result is Released, as the daemon and
// lib_scale do, so B/op is what a warm workspace still allocates rather
// than arena chunk growth. The gated numbers are bench/'s (BENCHMARK.json),
// whose lib_scale sweep has both fixtures as points.
func BenchmarkEnumerate(b *testing.B) {
	chainCat := workload.ChainCatalog(8, 400, 150, 60, 200, 90, 500, 120, 80)
	chainQ := workload.ChainQuery(8)
	starCat := workload.StarCatalog(8, 100000, 500)
	starQ := workload.StarQuery(8)
	for _, tc := range []struct {
		name string
		par  int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run("chain8/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				optimize(b, chainCat, chainQ, stars.Options{Parallelism: tc.par}).Release()
			}
		})
		b.Run("star8/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				optimize(b, starCat, starQ, stars.Options{Parallelism: tc.par}).Release()
			}
		})
	}
}

// BenchmarkObsOverhead quantifies what the observability instrumentation
// costs a full optimization: "disabled" is the nil-sink fast path (the
// default, which must stay within a few percent of the pre-instrumentation
// baseline), "events" records the full event stream into a fresh sink per
// iteration, and "metrics" aggregates counters/histograms while dropping
// the event log. "emit-disabled" isolates the nil-sink emit itself with the
// enriched provenance payload (fingerprints, costs): it must report
// 0 B/op, 0 allocs/op — the payload rides in the Event's flat value fields
// and every string render sits behind an Enabled() guard. The star6 and
// chain7 points of "disabled" and "metrics" run the daemon's hot path: each
// result is Released, so the next optimization plans on the workspace it
// returned, and B/op is what a warm workspace still allocates.
func BenchmarkObsOverhead(b *testing.B) {
	cat := workload.EmpDept()
	g := workload.Figure1Query()
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			optimize(b, cat, g, stars.Options{})
		}
	})
	b.Run("emit-disabled", func(b *testing.B) {
		var sink *stars.Sink
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sink.Enabled() {
				b.Fatal("nil sink reports enabled")
			}
			sink.Emit(obs.Event{Name: obs.EvPlanPrune, A1: "DEPT,EMP",
				P1: 0xc02d0ccb80ef20c4, P2: 0x32dd2088733d3006,
				N1: 1, F1: 111.7, F2: 2.0})
			sink.Emit(obs.Event{Name: obs.EvPlanOffer, A1: "DEPT,EMP",
				P1: 0xc02d0ccb80ef20c4, A3: "JMeth#1 JOIN(NL)",
				F1: 111.7, F2: 111})
		}
	})
	b.Run("events", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			optimize(b, cat, g, stars.Options{Obs: stars.NewSink()})
		}
	})
	b.Run("metrics", func(b *testing.B) {
		sink := stars.NewMetricsSink()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			optimize(b, cat, g, stars.Options{Obs: sink})
		}
	})
	for _, w := range []struct {
		name string
		cat  *stars.Catalog
		g    *stars.Graph
	}{
		{"star6", workload.StarCatalog(6, 100000, 1000), workload.StarQuery(6)},
		{"chain7", workload.ChainCatalog(7, 400, 150, 60, 200, 90, 500, 120), workload.ChainQuery(7)},
	} {
		for _, leg := range []struct {
			name string
			sink *stars.Sink
		}{{"disabled", nil}, {"metrics", stars.NewMetricsSink()}} {
			b.Run(leg.name+"-"+w.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					optimize(b, w.cat, w.g, stars.Options{Obs: leg.sink, Parallelism: 1}).Release()
				}
			})
		}
	}
}

// BenchmarkExecuteFigure1 measures pure execution of a prepared plan.
func BenchmarkExecuteFigure1(b *testing.B) {
	cat := workload.EmpDept()
	g := workload.Figure1Query()
	res := optimize(b, cat, g, stars.Options{})
	cluster := storage.NewCluster()
	workload.PopulateEmpDept(cluster, cat, 1)
	rt := exec.NewRuntime(cluster, cat)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Run(res.Best); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBTree measures the access method's core operations.
func BenchmarkBTree(b *testing.B) {
	b.Run("insert", func(b *testing.B) {
		bt := storage.NewBTree(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bt.Insert(datum.Row{datum.NewInt(int64(i * 2654435761 % 1000000))},
				storage.TID{Page: int32(i)}, nil)
		}
	})
	b.Run("probe", func(b *testing.B) {
		bt := storage.NewBTree(1)
		for i := 0; i < 100000; i++ {
			bt.Insert(datum.Row{datum.NewInt(int64(i))}, storage.TID{Page: int32(i)}, nil)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			key := datum.Row{datum.NewInt(int64(i % 100000))}
			bt.ScanPrefix(key, nil, func(storage.Entry) bool { return false })
		}
	})
}

// BenchmarkExprEval measures predicate evaluation, the executor's hottest
// inner loop.
func BenchmarkExprEval(b *testing.B) {
	p := &expr.Cmp{Op: expr.EQ, L: expr.C("T", "A"), R: expr.C("U", "B")}
	bind := expr.MapBinding{
		{Table: "T", Col: "A"}: datum.NewInt(7),
		{Table: "U", Col: "B"}: datum.NewInt(7),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !expr.EvalBool(p, bind) {
			b.Fatal("expected true")
		}
	}
}

// e6e7Catalog and e6e7Query mirror the experiment package's two-table
// sweep fixtures for benchmarking.
func e6e7Catalog(outerCard, innerCard, innerNDV int64, padWidth int) *stars.Catalog {
	lo, hi := 0.0, 1000.0
	cat := stars.NewCatalog()
	cat.AddTable(&stars.Table{
		Name: "OUTERT",
		Cols: []*stars.Column{
			{Name: "K", Type: datum.KindInt, NDV: innerNDV},
			{Name: "BUDGET", Type: datum.KindFloat, NDV: 1000, Lo: &lo, Hi: &hi},
		},
		Card: outerCard,
	})
	cat.AddTable(&stars.Table{
		Name: "INNERT",
		Cols: []*stars.Column{
			{Name: "J", Type: datum.KindInt, NDV: innerNDV},
			{Name: "VAL", Type: datum.KindInt, NDV: innerCard},
			{Name: "PAD", Type: datum.KindString, NDV: innerCard, Width: padWidth},
		},
		Card: innerCard,
	})
	if err := cat.Validate(); err != nil {
		panic(err)
	}
	return cat
}

func e6e7Query(budget float64) *stars.Graph {
	g := query.MustNew(
		[]query.Quantifier{
			{Name: "OUTERT", Table: "OUTERT"},
			{Name: "INNERT", Table: "INNERT"},
		},
		&expr.Cmp{Op: expr.EQ, L: expr.C("OUTERT", "K"), R: expr.C("INNERT", "J")},
		&expr.Cmp{Op: expr.LT, L: expr.C("OUTERT", "BUDGET"), R: &expr.Const{Val: datum.NewFloat(budget)}},
	)
	g.Select = []stars.ColID{
		{Table: "OUTERT", Col: "K"},
		{Table: "INNERT", Col: "VAL"},
	}
	return g
}

// BenchmarkE12Optimality measures the optimality-comparison unit: STAR
// optimization of the workload E12 cross-checks against exhaustive search.
func BenchmarkE12Optimality(b *testing.B) {
	cat := workload.ChainCatalog(4, 400, 150, 60, 200)
	g := workload.ChainQuery(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := opt.New(cat, opt.Options{}).Optimize(g)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}
