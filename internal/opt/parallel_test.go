package opt

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/expr"
	"stars/internal/glue"
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
		w := obs.Wire("", e) // renders a coverage summary's typed tally as a2/a3
		out[i] = fmt.Sprintf("%d %d %s %d|%s|%s|%s|%x|%x|%d|%d|%.4f|%.4f",
			e.Seq, e.Span, e.Name, e.Kind, e.A1, w.A2, w.A3, e.P1, e.P2, e.N1, e.N2, e.F1, e.F2)
	}
	return out
}

// optimizeAt runs one optimization of its own freshly-built graph at the
// given parallelism, with a private profiled sink: a tracing one at
// Parallelism 1 — the stream the determinism tests hold a parallel run to —
// and a non-tracing one otherwise, because a tracing sink enumerates on one
// worker.
func optimizeAt(t *testing.T, cat *catalog.Catalog, mkGraph func() *query.Graph, opts Options, par int) (*Result, *obs.Sink) {
	t.Helper()
	opts.Parallelism = par
	opts.Obs = obs.NewSink()
	if par != 1 {
		opts.Obs = obs.NewMetricsSink()
	}
	opts.Obs.EnableProf(obs.ProfOptions{})
	res, err := New(cat, opts).Optimize(mkGraph())
	if err != nil {
		t.Fatalf("parallelism %d: %v", par, err)
	}
	return res, opts.Obs
}

// assertEquivalent asserts the full determinism contract between a serial
// (Parallelism 1) and a parallel (Parallelism 8) run: identical best-plan
// fingerprint and cost, identical retained plan table, identical effort
// counters, identical merged metrics, profile counts and coverage tallies.
func assertEquivalent(t *testing.T, cat *catalog.Catalog, mkGraph func() *query.Graph, opts Options) {
	t.Helper()
	assertEquivalentAt(t, cat, mkGraph, opts, 8)
}

// assertEquivalentAt is assertEquivalent against a run at workers workers,
// which must have fanned every rank out to as many workers as it had tasks
// for.
func assertEquivalentAt(t *testing.T, cat *catalog.Catalog, mkGraph func() *query.Graph, opts Options, workers int) {
	t.Helper()
	serial, serialSink := optimizeAt(t, cat, mkGraph, opts, 1)
	par, parSink := optimizeAt(t, cat, mkGraph, opts, workers)

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
	for _, d := range diffCounts(mergedCounts(t, serialSink), mergedCounts(t, parSink)) {
		t.Errorf("merged count %s", d)
	}
	for _, r := range talliesOf(parSink).Ranks {
		if r.Workers != min(workers, r.Tasks) {
			t.Errorf("rank %d ran %d tasks on %d workers, want %d", r.Rank, r.Tasks, r.Workers, min(workers, r.Tasks))
		}
	}

	// The coverage summary is part of the contract too: every observed run
	// closes with one opt.alt.coverage event per alternative of the
	// repertoire, and the typed tallies — not just their exported text —
	// must agree across parallelism levels.
	sc, pc := coverageTallies(t, serialSink), coverageTallies(t, parSink)
	if len(sc) == 0 {
		t.Fatalf("no %s events in the serial run's stream", obs.EvAltCoverage)
	}
	if !reflect.DeepEqual(sc, pc) {
		t.Errorf("coverage tallies diverge\nserial:   %+v\nparallel: %+v", sc, pc)
	}
}

// mergedCounts lists the deterministic half of what the run's sink merged:
// its counters and histogram observation counts — leaving out the profiler's
// series of wall time and process-wide allocations, which no two runs share —
// and its profile's span counts per phase, rule and span name and operation
// counts per activity.
func mergedCounts(t *testing.T, sink *obs.Sink) map[string]int64 {
	t.Helper()
	var b strings.Builder
	if err := sink.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, line := range strings.Split(b.String(), "\n") {
		name, value, _ := strings.Cut(line, " ")
		if strings.HasPrefix(line, "#") || strings.Contains(name, "_ns_total") ||
			strings.Contains(name, "_allocs_total") || strings.Contains(name, "_bucket") || strings.Contains(name, "_sum") {
			continue
		}
		if n, err := strconv.ParseInt(value, 10, 64); err == nil {
			out[name] = n
		}
	}
	snap := talliesOf(sink)
	for dim, m := range map[string]map[string]obs.Figures{"phase ": snap.Phases, "rule ": snap.Rules, "span ": snap.Spans} {
		for k, e := range m {
			out[dim+k] = e.Count
		}
	}
	for a, act := range snap.Activities {
		out[obs.Activity(a).String()] = act.Count
	}
	return out
}

// diffCounts lists the keys on which two count maps disagree, sorted.
func diffCounts(serial, par map[string]int64) []string {
	var out []string
	for k, n := range serial {
		if m, ok := par[k]; !ok || m != n {
			out = append(out, fmt.Sprintf("%s: serial %d, parallel %d", k, n, m))
		}
	}
	for k, m := range par {
		if _, ok := serial[k]; !ok {
			out = append(out, fmt.Sprintf("%s: serial none, parallel %d", k, m))
		}
	}
	sort.Strings(out)
	return out
}

// TestTracingEnumeratesOnOneWorker pins the policy that keeps a traced
// stream free of replay: a tracing sink at Parallelism 8 records exactly the
// Parallelism 1 stream, every rank reports one worker, and the stream is
// recorded as it happens — its timestamps never go back.
func TestTracingEnumeratesOnOneWorker(t *testing.T) {
	cat := workload.StarCatalog(5, 100000, 500)
	run := func(par int) *obs.Sink {
		sink := obs.NewSink()
		sink.EnableProf(obs.ProfOptions{})
		if _, err := New(cat, Options{Obs: sink, Parallelism: par}).Optimize(workload.StarQuery(5)); err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return sink
	}
	serial, par := run(1), run(8)
	sl, pl := eventLog(serial), eventLog(par)
	if len(sl) != len(pl) {
		t.Fatalf("event counts diverge: serial %d, parallel %d", len(sl), len(pl))
	}
	for i := range sl {
		if sl[i] != pl[i] {
			t.Fatalf("event %d diverges\nserial:   %s\nparallel: %s", i, sl[i], pl[i])
		}
	}
	ranks := talliesOf(par).Ranks
	if len(ranks) == 0 {
		t.Fatal("no rank telemetry")
	}
	for _, r := range ranks {
		if r.Workers != 1 {
			t.Errorf("traced rank %d ran on %d workers, want 1", r.Rank, r.Workers)
		}
	}
	events := par.Events()
	for i := 1; i < len(events); i++ {
		if events[i].T < events[i-1].T {
			t.Fatalf("event %d (%s) is stamped before event %d", i, events[i].Name, i-1)
		}
	}
}

// coverageTallies reads the typed tallies of the run's opt.alt.coverage
// summary events.
func coverageTallies(t *testing.T, sink *obs.Sink) []obs.AltCoverage {
	t.Helper()
	var out []obs.AltCoverage
	for _, e := range sink.Events() {
		if e.Name != obs.EvAltCoverage {
			continue
		}
		if e.Tally == nil || e.Tally.Alt == nil {
			t.Fatalf("%s event without an alternative tally: %+v", obs.EvAltCoverage, e)
		}
		out = append(out, *e.Tally.Alt)
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
		sparse := query.MustNew(g.Quants, g.Preds.Slice()[:2]...)
		sparse.Select = g.Select
		return sparse
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

// TestWorkerStateOutlivesTasks: a worker's engine, pricing environment and
// Gluer serve every task the worker picks up, so at Parallelism 4 — fewer
// workers than a rank has tasks — each one carries counters, interned Rels and
// name sequences from task to task, in an order the scheduler chose. None of
// that may show: the event stream, Stats (the per-alternative tallies summed
// once per worker included) and the merged counters match Parallelism 1,
// where a single worker 0 ran everything.
func TestWorkerStateOutlivesTasks(t *testing.T) {
	star := workload.StarCatalog(6, 100000, 1000)
	assertEquivalentAt(t, star, func() *query.Graph { return workload.StarQuery(6) }, Options{}, 4)
	chain := workload.ChainCatalog(5, 300, 100, 50, 200, 80)
	assertEquivalentAt(t, chain, func() *query.Graph { return workload.ChainQuery(5) },
		Options{CartesianProducts: true}, 4)

	res, _ := optimizeAt(t, star, func() *query.Graph { return workload.StarQuery(6) }, Options{}, 4)
	var fired int64
	for _, a := range res.Stats.Star.Alts {
		fired += a.Fired
	}
	if fired == 0 || fired > res.Stats.Star.AltsFired {
		t.Errorf("per-alternative tallies sum to %d firings of %d counted", fired, res.Stats.Star.AltsFired)
	}
}

// TestGeneratedNamesFollowTheTask: a temp is named by the plan it stores and
// a dynamic index by that plan and its key, so the names in the retained
// plans are the same whichever worker ran which task.
func TestGeneratedNamesFollowTheTask(t *testing.T) {
	cat := workload.ChainCatalog(6, 300, 100, 50, 200, 80, 120)
	rootPlans := func(par int) string {
		g := workload.ChainQuery(6)
		res, _ := optimizeAt(t, cat, func() *query.Graph { return g }, Options{}, par)
		var b strings.Builder
		for _, p := range res.Table.Entry(g.TableSet()) {
			b.WriteString(plan.ExplainVerbose(p))
		}
		return b.String()
	}
	want := rootPlans(1)
	if !strings.Contains(want, "STORE table=_t") || !strings.Contains(want, "BUILDINDEX path=_ix") {
		t.Fatal("fixture retains no root plan with a temp and index name")
	}
	for _, par := range []int{2, 8} {
		if got := rootPlans(par); got != want {
			t.Errorf("Parallelism %d names temps or indexes differently from Parallelism 1", par)
		}
	}
}

// TestParallelDisconnectedFallback exercises the Cartesian fallback at the
// final join under parallel enumeration: a query with no join predicates
// still plans, and plans identically at every parallelism level. (With
// CartesianProducts on, the same holds for a larger disconnected graph.)
func TestParallelDisconnectedFallback(t *testing.T) {
	cat := workload.ChainCatalog(3, 10, 20, 30)
	mkTwo := func() *query.Graph {
		g := query.MustNew([]query.Quantifier{{Name: "T1", Table: "T1"}, {Name: "T2", Table: "T2"}})
		g.Select = []expr.ColID{{Table: "T1", Col: "ID"}}
		return g
	}
	assertEquivalent(t, cat, mkTwo, Options{})
	res, _ := optimizeAt(t, cat, mkTwo, Options{}, 8)
	if res.Best.Props.Card != 10*20 {
		t.Errorf("cross-product card = %v", res.Best.Props.Card)
	}
	mkThree := func() *query.Graph {
		g := query.MustNew([]query.Quantifier{
			{Name: "T1", Table: "T1"}, {Name: "T2", Table: "T2"}, {Name: "T3", Table: "T3"},
		})
		g.Select = []expr.ColID{{Table: "T1", Col: "ID"}}
		return g
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

// TestSubsetMaskIsTheTableSet pins what the driver relies on instead of a
// translation table: bit i of a subset mask is g.Quants[i], at any quantifier
// count, and the set renders the sorted, comma-joined key events carry.
func TestSubsetMaskIsTheTableSet(t *testing.T) {
	for _, n := range []int{10, 20} {
		g := workload.ChainQuery(n)
		u := g.Universe()
		full := uint32(1)<<uint(n) - 1
		for mask := uint32(1); mask <= full; mask += full/150 + 7 {
			set := u.Subset(uint64(mask))
			var names []string
			for i, q := range g.Quants {
				if set.Contains(q.Name) != (mask&(1<<uint(i)) != 0) {
					t.Fatalf("n=%d mask %b: membership of %s diverges from bit %d", n, mask, q.Name, i)
				}
				if mask&(1<<uint(i)) != 0 {
					names = append(names, q.Name)
				}
			}
			sort.Strings(names)
			if set.Key() != strings.Join(names, ",") || !set.Equal(u.Tables(names...)) {
				t.Fatalf("n=%d mask %b: key %q, want %q", n, mask, set.Key(), strings.Join(names, ","))
			}
		}
		if !u.Subset(uint64(full)).Equal(g.TableSet()) {
			t.Errorf("n=%d: the full mask must be the query's table set", n)
		}
	}
}

// allocSink keeps TestSetAlgebraAllocs' results observable.
var allocSink struct {
	p expr.PredSet
	b bool
	n glue.Cell
	r *plan.Rel
	f float64
}

// TestSetAlgebraAllocs pins the point of keeping sets as words: on chain8's
// universe the set algebra, the eligibility and joinability probes, the plan
// table's lookups, a Rel-intern hit and the index-prefix match (with the
// column-reference test under it) allocate nothing.
func TestSetAlgebraAllocs(t *testing.T) {
	cat := workload.ChainCatalog(8, 100, 100, 100, 100, 100, 100, 100, 100)
	g := workload.ChainQuery(8)
	u := g.Universe()
	s1, s2 := u.Subset(0b00000111), u.Subset(0b00111000)
	a, b := g.EligibleWithin(s1.Union(s2)), g.EligibleWithin(u.Subset(0b11111100))
	table := glue.NewPlanTable()
	table.Insert(s1, a, []*plan.Node{{Op: plan.OpAccess, Props: &plan.Props{}}})
	overlay := glue.NewPlanTable()
	overlay.Reset(table)
	env := cost.NewEnv(cat, cost.DefaultWeights)
	env.Bind(g)
	cols := env.Needed("T1").Set()
	rel := env.InternRel(s1, cols, a)
	key := env.Vocab().List(expr.ColID{Table: "T3", Col: "J"})
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Union", func() { allocSink.p = a.Union(b) }},
		{"Minus", func() { allocSink.p = a.Minus(b) }},
		{"Intersect", func() { allocSink.p = a.Intersect(b) }},
		{"Within", func() { allocSink.p = g.Preds.Within(s1) }},
		{"JoinPreds", func() { allocSink.p = expr.JoinPreds(g.Preds, s1, s2) }},
		{"NewlyEligible", func() { allocSink.p = g.NewlyEligible(s1, s2) }},
		{"Connected", func() { allocSink.b = g.Connected(s1, s2) }},
		{"PlanTable.Lookup", func() { allocSink.n = table.Lookup(s1, a) }},
		{"PlanTable.Lookup through an overlay", func() { allocSink.n = overlay.Lookup(s1, a) }},
		{"PlanTable.HasEntry", func() { allocSink.b = overlay.HasEntry(s1) && !overlay.HasEntry(s2) }},
		{"InternRel hit", func() { allocSink.r = env.Fork().InternRel(s1, cols, a) }},
		{"SetSelectivity (pricing walks a set with ForEach, not Slice's memo)", func() { allocSink.f = env.SetSelectivity(a) }},
		{"MatchIndexPrefix", func() { allocSink.p = expr.MatchIndexPrefix(a, key) }},
	} {
		if n := testing.AllocsPerRun(1000, tc.f); n != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", tc.name, n)
		}
	}
	if allocSink.r != rel || allocSink.n.Len() != 1 || !allocSink.b || allocSink.p.Len() != 1 {
		t.Errorf("probes lost their answers: %+v", allocSink)
	}
}

// TestEnumerationHotPathAllocs pins that the observability guard costs
// nothing when the sink is off, what a whole nil-sink run allocates, and what
// the always-on tier may cost.
func TestEnumerationHotPathAllocs(t *testing.T) {
	u := workload.ChainQuery(8).Universe()
	var sink *obs.Sink
	if n := testing.AllocsPerRun(1000, func() {
		if sink.Enabled() {
			sink.Emit(obs.Event{Name: obs.EvPair, A1: u.Subset(0b11).Key(), A2: u.Subset(0b100).Key()})
		}
	}); n != 0 {
		t.Errorf("disabled-sink pair emission allocates %.1f/op", n)
	}

	// With the sink off nothing is rendered — no phase name per rank, no
	// key, no label — and what is left is the search itself: plan-table cells,
	// retained lists, interned Rels and their COLS come out of recycled
	// workspaces, and the SAPs, column lists and Rel-intern tables of a
	// reference are workspace storage too, and Release detaches the best plan
	// into a few slices. chain8 measures 293 (300–302 under -race), star6
	// 1 082 (1 092–1 096); the ceilings are the highest -race figures plus 1 %.
	chain := workload.ChainCatalog(8, 100, 100, 100, 100, 100, 100, 100, 100)
	chainAllocs := testing.AllocsPerRun(3, func() {
		res, err := New(chain, Options{Parallelism: 1}).Optimize(workload.ChainQuery(8))
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	})
	if chainAllocs > 306 {
		t.Errorf("chain8 with no sink allocates %.0f/op, want at most 306", chainAllocs)
	}

	// The always-on tier renders nothing per search step: a non-tracing
	// sink with the profiler attached (what the daemon runs by default) costs
	// a fixed surplus over no sink at all — span histograms and profile
	// entries named once per optimization, a phase name per rank, the
	// coverage summary events — and nothing per subset task, Glue reference
	// or veneer: worker 0 reports into the request's sink itself. The gate is
	// that surplus in allocations (371 over the 1 082 measured bare; up to 382
	// over 1 096 under -race, and the bound is 384 plus 5 %), not a ratio, which
	// moves whenever the search under it shrinks or grows.
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
	if bare > 1_107 {
		t.Errorf("star6 with no sink allocates %.0f/op, want at most 1107", bare)
	}
	if tier0-bare > 403 {
		t.Errorf("star6 allocations: non-tracing sink %.0f is %.0f over nil sink %.0f, want at most 403 over", tier0, tier0-bare, bare)
	}
	t.Logf("chain8 allocations: nil sink %.0f", chainAllocs)
	t.Logf("star6 allocations: nil sink %.0f, non-tracing sink %.0f (+%.0f, %.3fx)", bare, tier0, tier0-bare, tier0/bare)
}

// TestRecycledOverlaysMatchFreshOnes: a task's overlay is Reset at the next
// rank for another task, and Release hands whole workspaces — arena, root
// table, overlays — to later optimizations. A query whose ranks reuse
// overlays, planned on workspaces that other queries at another worker count
// have just filled and released, keeps the retained table, Stats and event
// stream of the same query planned on workspaces never used before, at
// Parallelism 1 and 2.
func TestRecycledOverlaysMatchFreshOnes(t *testing.T) {
	cat := workload.StarCatalog(4, 100000, 1000)
	star := func() *query.Graph { return workload.StarQuery(4) }
	chainCat := workload.ChainCatalog(5, 40, 30, 20, 10, 25)
	chain := func() *query.Graph { return workload.ChainQuery(5) }
	type run struct {
		table  string
		stats  Stats
		events []string
	}
	observe := func(par int) (run, int) {
		res, sink := optimizeAt(t, cat, star, Options{}, par)
		defer res.Release()
		overlays := 0
		for _, w := range res.spaces {
			overlays += len(w.overlays)
		}
		return run{tableSignature(res), counters(res), eventLog(sink)}, overlays
	}
	for _, par := range []int{1, 2} {
		spares.Lock()
		spares.list = nil // the next checkouts build new workspaces
		spares.Unlock()
		fresh, _ := observe(par)
		for _, other := range []int{3 - par, 3} {
			res, _ := optimizeAt(t, chainCat, chain, Options{}, other)
			res.Release()
		}
		again, overlays := observe(par)
		// F⋈D1..D4: the 15 subsets holding F have something to join, at most
		// 6 of them in one rank.
		if overlays >= 15 {
			t.Errorf("Parallelism %d: %d overlays for 15 tasks: ranks did not reuse them", par, overlays)
		}
		if fresh.table != again.table {
			t.Errorf("Parallelism %d: recycled overlays retain another table\nfresh:\n%s\nrecycled:\n%s", par, fresh.table, again.table)
		}
		if !reflect.DeepEqual(fresh.stats, again.stats) {
			t.Errorf("Parallelism %d: counters diverge\nfresh:    %+v\nrecycled: %+v", par, fresh.stats, again.stats)
		}
		if !reflect.DeepEqual(fresh.events, again.events) {
			t.Errorf("Parallelism %d: event streams diverge (%d vs %d events)", par, len(fresh.events), len(again.events))
		}
	}
}
