package opt

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"stars/internal/catalog"
	"stars/internal/expr"
	"stars/internal/obs"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/workload"
)

// tableSignature renders the retained plan-table population as a sorted
// multiset of (tables, preds, fingerprint) lines — the strongest practical
// statement of "these two runs kept the same plans".
func tableSignature(res *Result) string {
	var lines []string
	res.Table.ForEach(func(tk, pk string, p *plan.Node) {
		lines = append(lines, tk+" | "+pk+" | "+p.Fingerprint())
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// counters strips the wall-clock field so Stats compares with reflect.DeepEqual.
func counters(res *Result) Stats {
	s := res.Stats
	s.Elapsed = 0
	return s
}

// eventLog renders the deterministic fields of the sink's event stream in
// order. Wall-clock offsets are excluded; sequence numbers, span links, and
// all payloads must match exactly between runs.
func eventLog(sink *obs.Sink) []string {
	events := sink.Events()
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = fmt.Sprintf("%d %d %s %d|%s|%s|%s|%d|%d|%.4f|%.4f",
			e.Seq, e.Span, e.Name, e.Kind, e.A1, e.A2, e.A3, e.N1, e.N2, e.F1, e.F2)
	}
	return out
}

// optimizeAt runs one optimization of its own freshly-built graph at the
// given parallelism, with a private sink.
func optimizeAt(t *testing.T, cat *catalog.Catalog, mkGraph func() *query.Graph, opts Options, par int) (*Result, *obs.Sink) {
	t.Helper()
	opts.Parallelism = par
	opts.Obs = obs.NewSink()
	res, err := New(cat, opts).Optimize(mkGraph())
	if err != nil {
		t.Fatalf("parallelism %d: %v", par, err)
	}
	return res, opts.Obs
}

// assertEquivalent asserts the full determinism contract between a serial
// (Parallelism 1) and a parallel (Parallelism 8) run: identical best-plan
// fingerprint and cost, identical retained plan table, identical effort
// counters, identical merged metrics, and an identical event stream.
func assertEquivalent(t *testing.T, cat *catalog.Catalog, mkGraph func() *query.Graph, opts Options) {
	t.Helper()
	serial, serialSink := optimizeAt(t, cat, mkGraph, opts, 1)
	par, parSink := optimizeAt(t, cat, mkGraph, opts, 8)

	if s, p := serial.Best.Fingerprint(), par.Best.Fingerprint(); s != p {
		t.Errorf("best-plan fingerprint: serial %s != parallel %s\nserial:\n%s\nparallel:\n%s",
			s, p, plan.Explain(serial.Best), plan.Explain(par.Best))
	}
	if s, p := serial.Best.Props.Cost.Total, par.Best.Props.Cost.Total; s != p {
		t.Errorf("best-plan cost: serial %v != parallel %v", s, p)
	}
	if s, p := tableSignature(serial), tableSignature(par); s != p {
		t.Errorf("plan-table contents diverge\nserial:\n%s\n\nparallel:\n%s", s, p)
	}
	if s, p := counters(serial), counters(par); !reflect.DeepEqual(s, p) {
		t.Errorf("counters diverge\nserial:   %+v\nparallel: %+v", s, p)
	}
	if s, p := serialSink.Registry().Counters(), parSink.Registry().Counters(); !reflect.DeepEqual(s, p) {
		t.Errorf("merged metrics diverge\nserial:   %v\nparallel: %v", s, p)
	}
	sl, pl := eventLog(serialSink), eventLog(parSink)
	if len(sl) != len(pl) {
		t.Fatalf("event counts diverge: serial %d, parallel %d", len(sl), len(pl))
	}
	for i := range sl {
		if sl[i] != pl[i] {
			t.Fatalf("event %d diverges\nserial:   %s\nparallel: %s", i, sl[i], pl[i])
		}
	}

	// The coverage summary is part of the contract too: every observed run
	// closes with one opt.alt.coverage event per alternative of the
	// repertoire, and the parsed tallies — not just the raw event text —
	// must agree across parallelism levels.
	sc, pc := coverageTallies(t, serialSink), coverageTallies(t, parSink)
	if len(sc) == 0 {
		t.Fatalf("no %s events in the serial run's stream", obs.EvAltCoverage)
	}
	if !reflect.DeepEqual(sc, pc) {
		t.Errorf("coverage tallies diverge\nserial:   %+v\nparallel: %+v", sc, pc)
	}
}

// coverageTallies parses the run's opt.alt.coverage summary events.
func coverageTallies(t *testing.T, sink *obs.Sink) []obs.AltCoverage {
	t.Helper()
	var out []obs.AltCoverage
	for _, e := range sink.Events() {
		if e.Name != obs.EvAltCoverage {
			continue
		}
		c, ok := obs.ParseAltCoverage(e)
		if !ok {
			t.Fatalf("unparseable %s event: %+v", obs.EvAltCoverage, e)
		}
		out = append(out, c)
	}
	return out
}

func TestParallelMatchesSerialChain(t *testing.T) {
	cat := workload.ChainCatalog(5, 300, 100, 50, 200, 80)
	assertEquivalent(t, cat, func() *query.Graph { return workload.ChainQuery(5) }, Options{})
}

func TestParallelMatchesSerialStar(t *testing.T) {
	cat := workload.StarCatalog(5, 100000, 500)
	assertEquivalent(t, cat, func() *query.Graph { return workload.StarQuery(5) }, Options{})
}

func TestParallelMatchesSerialDistributed(t *testing.T) {
	cat := workload.ChainCatalog(5, 300, 100, 50, 200, 80)
	cat.Sites = []string{"HQ", "NY", "LA"}
	cat.QuerySite = "HQ"
	cat.Table("T2").Site = "NY"
	cat.Table("T4").Site = "LA"
	assertEquivalent(t, cat, func() *query.Graph { return workload.ChainQuery(5) }, Options{})
}

func TestParallelMatchesSerialNoCompositeInners(t *testing.T) {
	cat := workload.ChainCatalog(6, 300, 100, 50, 200, 80, 120)
	assertEquivalent(t, cat, func() *query.Graph { return workload.ChainQuery(6) },
		Options{NoCompositeInners: true})
}

func TestParallelMatchesSerialCartesianProducts(t *testing.T) {
	cat := workload.ChainCatalog(4, 40, 30, 20, 10)
	assertEquivalent(t, cat, func() *query.Graph { return workload.ChainQuery(4) },
		Options{CartesianProducts: true})
}

// TestParallelMatchesSerialCartesianSparseGraph: a subset with no joinable
// partition builds no task state, and CartesianProducts is the only option
// that changes which subsets those are. On a graph where only T1-T2-T3 are
// chained, subsets like {T1,T4} or {T4,T5} join nothing without it (and the
// query does not plan); with it every partition of every subset is a pair.
// Either way all 2^5-5-1 subsets are visited and counted.
func TestParallelMatchesSerialCartesianSparseGraph(t *testing.T) {
	cat := workload.ChainCatalog(5, 300, 100, 50, 200, 80)
	sparse := func() *query.Graph {
		g := workload.ChainQuery(5)
		g.Preds = expr.NewPredSet(g.Preds.Slice()[:2]...)
		return g
	}
	assertEquivalent(t, cat, sparse, Options{CartesianProducts: true})
	res, _ := optimizeAt(t, cat, sparse, Options{CartesianProducts: true}, 8)
	if res.Stats.Subsets != 26 || res.Stats.Pairs != 90 {
		t.Errorf("Cartesian enumeration visited %d subsets, %d pairs; want 26, 90", res.Stats.Subsets, res.Stats.Pairs)
	}
	for _, par := range []int{1, 8} {
		if _, err := New(cat, Options{Parallelism: par}).Optimize(sparse()); err == nil {
			t.Errorf("parallelism %d: disconnected graph planned without CartesianProducts", par)
		}
	}
}

func TestParallelMatchesSerialKeepAllGlue(t *testing.T) {
	cat := workload.ChainCatalog(4, 300, 100, 50, 200)
	assertEquivalent(t, cat, func() *query.Graph { return workload.ChainQuery(4) },
		Options{KeepAllGlue: true})
}

func TestParallelMatchesSerialDisablePruning(t *testing.T) {
	cat := workload.ChainCatalog(4, 300, 100, 50, 200)
	assertEquivalent(t, cat, func() *query.Graph { return workload.ChainQuery(4) },
		Options{DisablePruning: true})
}

// TestParallelDisconnectedFallback exercises the Cartesian fallback at the
// final join under parallel enumeration: a query with no join predicates
// still plans, and plans identically at every parallelism level. (With
// CartesianProducts on, the same holds for a larger disconnected graph.)
func TestParallelDisconnectedFallback(t *testing.T) {
	cat := workload.ChainCatalog(3, 10, 20, 30)
	mkTwo := func() *query.Graph {
		return &query.Graph{
			Quants: []query.Quantifier{{Name: "T1", Table: "T1"}, {Name: "T2", Table: "T2"}},
			Preds:  expr.NewPredSet(),
			Select: []expr.ColID{{Table: "T1", Col: "ID"}},
		}
	}
	assertEquivalent(t, cat, mkTwo, Options{})
	res, _ := optimizeAt(t, cat, mkTwo, Options{}, 8)
	if res.Best.Props.Card != 10*20 {
		t.Errorf("cross-product card = %v", res.Best.Props.Card)
	}
	mkThree := func() *query.Graph {
		return &query.Graph{
			Quants: []query.Quantifier{
				{Name: "T1", Table: "T1"}, {Name: "T2", Table: "T2"}, {Name: "T3", Table: "T3"},
			},
			Preds:  expr.NewPredSet(),
			Select: []expr.ColID{{Table: "T1", Col: "ID"}},
		}
	}
	assertEquivalent(t, cat, mkThree, Options{CartesianProducts: true})
}

// TestParallelRunsAreReproducible runs the parallel configuration several
// times: scheduling may differ, results must not.
func TestParallelRunsAreReproducible(t *testing.T) {
	cat := workload.StarCatalog(5, 100000, 500)
	first, firstSink := optimizeAt(t, cat, func() *query.Graph { return workload.StarQuery(5) }, Options{}, 8)
	for i := 0; i < 4; i++ {
		next, nextSink := optimizeAt(t, cat, func() *query.Graph { return workload.StarQuery(5) }, Options{}, 8)
		if first.Best.Fingerprint() != next.Best.Fingerprint() {
			t.Fatalf("run %d: best fingerprint changed", i)
		}
		if tableSignature(first) != tableSignature(next) {
			t.Fatalf("run %d: plan table changed", i)
		}
		if !reflect.DeepEqual(counters(first), counters(next)) {
			t.Fatalf("run %d: counters changed", i)
		}
		fl, nl := eventLog(firstSink), eventLog(nextSink)
		if !reflect.DeepEqual(fl, nl) {
			t.Fatalf("run %d: event stream changed", i)
		}
	}
}

// TestParallelismResolution covers the Options.Parallelism → worker-count
// mapping, the library's only fan-out control.
func TestParallelismResolution(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ in, want int }{
		{1, 1},
		{3, 3},
		{procs + 5, procs + 5},
		{0, procs},
		{-1, procs},
	} {
		if got := resolveParallelism(tc.in); got != tc.want {
			t.Errorf("resolveParallelism(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestMaskCacheSparseMatchesDense pins the on-demand (n > denseMaskLimit)
// translation to the precomputed one.
func TestMaskCacheSparseMatchesDense(t *testing.T) {
	g := workload.ChainQuery(10)
	dense := newMaskCache(g)
	if dense.sets == nil {
		t.Fatal("10-quantifier cache should be dense")
	}
	sparse := &maskCache{n: dense.n, names: dense.names}
	full := uint32(1)<<uint(dense.n) - 1
	for mask := uint32(1); mask <= full; mask += 7 {
		if !dense.set(mask).Equal(sparse.set(mask)) {
			t.Fatalf("mask %b: set diverges", mask)
		}
		if dense.key(mask) != sparse.key(mask) {
			t.Fatalf("mask %b: key diverges", mask)
		}
	}
	big := &query.Graph{}
	for i := 0; i < denseMaskLimit+1; i++ {
		big.Quants = append(big.Quants, query.Quantifier{Name: fmt.Sprintf("Q%02d", i), Table: "T"})
	}
	if mc := newMaskCache(big); mc.sets != nil {
		t.Errorf("%d-quantifier cache should be sparse", denseMaskLimit+1)
	}
}

// TestEnumerationHotPathAllocs pins the allocation behaviour the tentpole
// bought: mask translation is alloc-free on the dense cache, and the
// observability guard costs nothing when the sink is off.
func TestEnumerationHotPathAllocs(t *testing.T) {
	mc := newMaskCache(workload.ChainQuery(8))
	var sink *obs.Sink
	var got string
	if n := testing.AllocsPerRun(1000, func() {
		_ = mc.set(0b10110101)
		got = mc.key(0b10110101)
	}); n != 0 {
		t.Errorf("dense mask lookup allocates %.1f/op", n)
	}
	if got == "" {
		t.Fatal("empty key")
	}
	if n := testing.AllocsPerRun(1000, func() {
		if sink.Enabled() {
			sink.Emit(obs.Event{Name: obs.EvPair, A1: mc.key(0b11), A2: mc.key(0b100)})
		}
	}); n != 0 {
		t.Errorf("disabled-sink pair emission allocates %.1f/op", n)
	}

	// The always-on tier renders nothing per search step: a non-tracing
	// sink with the profiler attached (what the daemon runs by default) may
	// cost at most a tenth more allocations than no sink at all.
	cat := workload.StarCatalog(6, 100000, 1000)
	allocs := func(mkSink func() *obs.Sink) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := New(cat, Options{Obs: mkSink(), Parallelism: 1}).Optimize(workload.StarQuery(6)); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare := allocs(func() *obs.Sink { return nil })
	tier0 := allocs(func() *obs.Sink {
		s := obs.NewMetricsSink()
		s.EnableProf(obs.ProfOptions{})
		return s
	})
	if tier0 > 1.10*bare {
		t.Errorf("star6 allocations: non-tracing sink %.0f > 1.10 x nil sink %.0f", tier0, bare)
	}
	t.Logf("star6 allocations: nil sink %.0f, non-tracing sink %.0f (%.3fx)", bare, tier0, tier0/bare)
}
