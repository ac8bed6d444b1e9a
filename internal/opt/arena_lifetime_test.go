package opt

import (
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"stars/internal/catalog"
	"stars/internal/datum"
	"stars/internal/obs"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/sqlparse"
	"stars/internal/star"
	"stars/internal/workload"
)

// TestArenaLifetimeOptimizeReleaseLoop is the arena safety harness: it runs
// optimize → Release → optimize many times with poison-on-reset enabled, so
// any plan pointer that survived Release without being detached reads a
// poisoned node and fails loudly (run under -race in tier-1). It pins the
// Release contract:
//
//   - Best stays usable after Release (it is detached to the heap first) and
//     its fingerprint never drifts across arena reuse;
//   - plans NOT detached really do die at Release — every retained plan, so
//     the root arena and each worker's arena alike were reset (the poison is
//     observed on deliberately-escaped pointers), proving the harness would
//     catch a serve/provenance/flight consumer holding plans past Release;
//   - the pooled arenas are safe to reuse immediately by the next
//     optimization, whatever its worker count.
func TestArenaLifetimeOptimizeReleaseLoop(t *testing.T) {
	arenaPoison = true
	defer func() { arenaPoison = false }()

	cat := workload.StarCatalog(4, 100000, 500)
	newG := func() *query.Graph { return workload.StarQuery(4) }

	var fp string
	for i := 0; i < 100; i++ {
		par := 1 + i%3 // exercise serial and rank-parallel arenas alike
		res, err := New(cat, Options{Parallelism: par}).Optimize(newG())
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if len(res.spaces) != par {
			t.Fatalf("iteration %d: %d workspaces at Parallelism %d, want one per worker", i, len(res.spaces), par)
		}
		got := res.Best.Fingerprint()
		if i == 0 {
			fp = got
		} else if got != fp {
			t.Fatalf("iteration %d: fingerprint %s, want %s", i, got, fp)
		}
		// Deliberately held across Release: the chosen plan and every
		// retained alternative, wherever a worker put them.
		escaped := []*plan.Node{res.Best}
		res.Table.ForEach(func(_, _ string, p *plan.Node) { escaped = append(escaped, p) })
		res.Release()
		for _, p := range escaped {
			if !p.Poisoned() {
				t.Fatalf("iteration %d: plan held across Release was not poisoned — escapes would go undetected", i)
			}
		}
		if res.Best == escaped[0] {
			t.Fatal("Release must detach Best, not alias the arena node")
		}
		// The detached Best survives the reset that just poisoned its
		// arena-resident original.
		assertAlive(t, i, res.Best)
		if res.Best.Fingerprint() != fp {
			t.Fatalf("iteration %d: detached fingerprint drifted after Release", i)
		}
		if res.Table != nil || res.Engine != nil {
			t.Fatal("Release must invalidate Table and Engine")
		}
		res.Release() // idempotent
	}
}

// TestDetachedDynamicIndexPlanSurvivesArenaReuse: a plan's PATHS lists (like
// its Inputs), its interned Rels and their COLS are arena storage, and its
// temp and index names are rendered on demand from its structure, so Detach
// has to copy the first out and keep the second intact. A detached best plan —
// one that STOREs and BUILDINDEXes, and one the built-in repertoire chose —
// renders the same verbose EXPLAIN — operators, names, the COLS and PATHS
// lines of every property vector — the same functional form and the same
// fingerprint after its arenas were Reset (under poison) and refilled by
// another query.
func TestDetachedDynamicIndexPlanSurvivesArenaReuse(t *testing.T) {
	arenaPoison = true
	defer func() { arenaPoison = false }()

	cat := workload.ChainCatalog(3, 300, 100, 50)
	render := func(n *plan.Node) string {
		return plan.ExplainVerbose(n) + plan.Functional(n) + "\n" + n.Fingerprint() + " " + n.ShapeFingerprint()
	}
	for _, rep := range []struct {
		rules *star.RuleSet
		must  []string
	}{
		{DynamicIndexRules(), []string{"STORE table=_t", "BUILDINDEX path=_ix", "ACCESS(index) path=_ix", "PATHS  T3_J(T3.J), _ix", "Index _ix", "COLS   T1.ID"}},
		{nil, []string{"JOIN", "COLS   T1.ID"}},
	} {
		for _, par := range []int{1, 2} {
			res, err := New(cat, Options{Parallelism: par, Rules: rep.rules}).Optimize(workload.ChainQuery(3))
			if err != nil {
				t.Fatal(err)
			}
			want := render(res.Best)
			for _, s := range rep.must {
				if !strings.Contains(want, s) {
					t.Fatalf("Parallelism %d: fixture's best plan renders no %q:\n%s", par, s, want)
				}
			}
			res.Release()
			if got := render(res.Best); got != want {
				t.Errorf("Parallelism %d: detached plan renders differently after Release:\n%s\nwant:\n%s", par, got, want)
			}
			// Another query refills the recycled slabs — nodes, props, inputs,
			// paths, Rels and COLS alike — at the same worker count.
			other, err := New(workload.StarCatalog(4, 100000, 500), Options{Parallelism: par, Rules: rep.rules}).Optimize(workload.StarQuery(4))
			if err != nil {
				t.Fatal(err)
			}
			if got := render(res.Best); got != want {
				t.Errorf("Parallelism %d: detached plan renders differently once another query refilled its arenas:\n%s\nwant:\n%s", par, got, want)
			}
			assertAlive(t, par, res.Best)
			other.Release()
		}
	}
}

// TestDetachedColumnListsSurviveArenaReuse: the column lists a search builds —
// a BUILDINDEX key, the ORDER of the index ACCESS that probes it, the PATHS key
// both carry — live in the arena's int slab, so Detach has to copy them. A
// detached best plan whose every such list has two columns (one-column lists
// alias the vocabulary and are no arena storage) renders them intact after
// Release poisoned its arenas and another query refilled them.
func TestDetachedColumnListsSurviveArenaReuse(t *testing.T) {
	arenaPoison = true
	defer func() { arenaPoison = false }()

	cat := catalog.New()
	for _, name := range []string{"R", "S"} {
		cat.AddTable(&catalog.Table{Name: name, Card: 50000, Cols: []*catalog.Column{
			{Name: "A", Type: datum.KindInt, NDV: 5000},
			{Name: "B", Type: datum.KindInt, NDV: 5000},
			{Name: "C", Type: datum.KindString, NDV: 9000, Width: 16},
		}})
	}
	render := func(n *plan.Node) string {
		var b strings.Builder
		n.Walk(func(n *plan.Node) {
			fmt.Fprintf(&b, "%s sort=[%s] order=[%s] paths=%v\n", n.Op, n.SortCols, n.Props.Order, n.Props.Paths)
		})
		return b.String() + plan.ExplainVerbose(n)
	}
	for _, par := range []int{1, 2} {
		g, err := sqlparse.Parse("SELECT R.C, S.C FROM R, S WHERE R.A = S.A AND R.B = S.B", cat)
		if err != nil {
			t.Fatal(err)
		}
		res, err := New(cat, Options{Parallelism: par, Rules: DynamicIndexRules()}).Optimize(g)
		if err != nil {
			t.Fatal(err)
		}
		want := render(res.Best)
		for _, s := range []string{"BUILDINDEX sort=[S.A,S.B]", "ACCESS sort=[S.A,S.B] order=[S.A,S.B] paths=[_ix*(S.A,S.B)]"} {
			if !strings.Contains(want, s) {
				t.Fatalf("Parallelism %d: fixture's best plan has no %q:\n%s", par, s, want)
			}
		}
		res.Release()
		if got := render(res.Best); got != want {
			t.Errorf("Parallelism %d: detached plan renders differently after Release:\n%s\nwant:\n%s", par, got, want)
		}
		other, err := New(workload.StarCatalog(4, 100000, 500), Options{Parallelism: par, Rules: DynamicIndexRules()}).Optimize(workload.StarQuery(4))
		if err != nil {
			t.Fatal(err)
		}
		if got := render(res.Best); got != want {
			t.Errorf("Parallelism %d: detached plan renders differently once another query refilled its arenas:\n%s\nwant:\n%s", par, got, want)
		}
		other.Release()
	}
}

// assertAlive walks the detached plan checking no node, Rel or column list
// is a recycled slot.
func assertAlive(t *testing.T, iter int, n *plan.Node) {
	t.Helper()
	if n == nil {
		return
	}
	if n.Poisoned() {
		t.Fatalf("iteration %d: detached plan contains a poisoned node — Detach missed it", iter)
	}
	if n.Props != nil && strings.Contains(fmt.Sprint(n.Props.Cols(), n.Cols), "__POISONED__") {
		t.Fatalf("iteration %d: detached plan reads a poisoned Rel or column list — Detach missed it", iter)
	}
	for _, in := range n.Inputs {
		assertAlive(t, iter, in)
	}
}

// TestFailedOptimizeReturnsArenas: an optimization that fails after checking
// its workspaces out puts them back, so a request mix heavy in unplannable
// queries does not grow new slabs per request. Two failures are covered:
// enumeration finding no complete plan for a disconnected join graph (the root
// workspace alone, each round followed by a successful single-workspace
// optimization), and a JoinRoot reference failing inside a rank at
// Parallelism 2, after a second worker checked a workspace of its own out.
// Leaking one on either path would make a later round build a new one, so the
// idle workspaces after every round are exactly those after the first.
func TestFailedOptimizeReturnsArenas(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))

	cat := workload.ChainCatalog(4, 40, 30, 20, 10)
	disconnected := func() *query.Graph {
		g := workload.ChainQuery(4)
		sparse := query.MustNew(g.Quants, g.Preds.Slice()[0]) // T1-T2 joined; T3, T4 isolated
		sparse.Select = g.Select
		return sparse
	}
	const rounds = 64
	for name, round := range map[string]func(){
		"no complete plan": func() {
			if res, err := New(cat, Options{Parallelism: 1}).Optimize(disconnected()); err == nil {
				res.Release()
				t.Fatal("a disconnected join graph planned without CartesianProducts")
			}
			res, err := New(cat, Options{Parallelism: 1}).Optimize(workload.ChainQuery(4))
			if err != nil {
				t.Fatal(err)
			}
			res.Release()
		},
		"task error mid-rank": func() {
			if res, err := New(cat, Options{Parallelism: 2, JoinRoot: "NoSuchSTAR"}).Optimize(workload.ChainQuery(4)); err == nil {
				res.Release()
				t.Fatal("an undefined JoinRoot planned")
			}
		},
	} {
		round()
		want := idleSpaces()
		for i := 0; i < rounds; i++ {
			round()
			if got := idleSpaces(); !maps.Equal(got, want) {
				t.Fatalf("%s, round %d: idle workspaces %v, want %v: failed optimizations leak their workspaces", name, i, got, want)
			}
		}
	}
}

// idleSpaces is the set of workspaces waiting for a checkout.
func idleSpaces() map[*workspace]bool {
	spares.Lock()
	defer spares.Unlock()
	idle := map[*workspace]bool{}
	for _, w := range spares.list {
		idle[w] = true
	}
	return idle
}

// TestIdleWorkspacesBounded: however many optimizations ran at once, an idle
// process keeps at most GOMAXPROCS workspaces, each empty, and a checkout
// takes the one returned last.
func TestIdleWorkspacesBounded(t *testing.T) {
	cat := workload.StarCatalog(4, 100000, 500)
	var wg sync.WaitGroup
	for c := 0; c < 4*runtime.GOMAXPROCS(0)+2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := New(cat, Options{Parallelism: 2}).Optimize(workload.StarQuery(4))
			if err != nil {
				t.Error(err)
				return
			}
			res.Release()
		}()
	}
	wg.Wait()
	spares.Lock()
	idle := slices.Clone(spares.list)
	spares.Unlock()
	if len(idle) == 0 || len(idle) > runtime.GOMAXPROCS(0) {
		t.Fatalf("%d idle workspaces after concurrent optimizations, want 1 to GOMAXPROCS (%d)", len(idle), runtime.GOMAXPROCS(0))
	}
	for i, w := range idle {
		if w.used != 0 || w.table.Size() != 0 {
			t.Errorf("idle workspace %d holds %d overlays in use and %d plans", i, w.used, w.table.Size())
		}
		if held := scratchHeld(w); held != "" {
			t.Errorf("idle workspace %d: %s", i, held)
		}
	}
	if w := checkout(); w != idle[len(idle)-1] {
		t.Error("checkout did not take the workspace returned last")
	} else {
		w.checkin()
	}
}

// TestReleaseHandsBackRootWorkspaceFirst: after a Parallelism 2
// optimization, the next one plans on the former root workspace — the one
// holding root-only storage — including at GOMAXPROCS 1, where the idle list
// holds a single workspace.
func TestReleaseHandsBackRootWorkspaceFirst(t *testing.T) {
	cat := workload.StarCatalog(6, 100000, 500)
	optimize := func() *Result {
		t.Helper()
		res, err := New(cat, Options{Parallelism: 2}).Optimize(workload.StarQuery(6))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		res := optimize()
		if len(res.spaces) != 2 {
			t.Fatalf("GOMAXPROCS %d: %d workspaces at Parallelism 2, want 2", procs, len(res.spaces))
		}
		root := res.spaces[0]
		res.Release()
		next := optimize()
		if next.spaces[0] != root {
			t.Errorf("GOMAXPROCS %d: the next optimization's first workspace is not the former root's", procs)
		}
		next.Release()
	}
}

// scratchHeld describes what w's engine scratch, Rel-intern tables or
// coverage dedupe set still hold — a slot up to its capacity that is not zero,
// a map entry — or returns "" when they hold nothing.
func scratchHeld(w *workspace) string {
	if len(w.covered) != 0 {
		return fmt.Sprintf("coverage dedupe set holds %d IDs", len(w.covered))
	}
	if n := len(w.rootRels) + len(w.forkRels); n != 0 {
		return fmt.Sprintf("Rel-intern tables hold %d buckets", n)
	}
	s := reflect.ValueOf(&w.scratch).Elem()
	for i := 0; i < s.NumField(); i++ {
		f, name := s.Field(i), s.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Slice:
			for j := 0; j < f.Cap(); j++ {
				if !f.Slice(0, f.Cap()).Index(j).IsZero() {
					return fmt.Sprintf("scratch %s slot %d of %d is not zero", name, j, f.Cap())
				}
			}
		case reflect.Map:
			if f.Len() != 0 {
				return fmt.Sprintf("scratch %s holds %d entries", name, f.Len())
			}
		case reflect.Pointer:
			if !f.IsNil() && !f.Elem().IsZero() {
				return fmt.Sprintf("scratch %s is not zero", name)
			}
		default:
			if !f.IsZero() {
				return fmt.Sprintf("scratch %s is not zero", name)
			}
		}
	}
	return ""
}

// TestIdleScratchHoldsNoPlan: Release empties what the engines evaluated on —
// value stack, SAP scratch, merge's dedupe set, loop stack, Glue request,
// catalog lists — the root and forked environments' Rel-intern tables and the
// coverage summary's dedupe set, zeroing every slot they grew, so an idle
// workspace pins no plan or Rel of the optimization that used it, at
// Parallelism 1 and 4, with arena poisoning on.
func TestIdleScratchHoldsNoPlan(t *testing.T) {
	arenaPoison = true
	defer func() { arenaPoison = false }()

	cat := workload.StarCatalog(4, 100000, 500)
	for _, par := range []int{1, 4} {
		sink := obs.NewMetricsSink()
		sink.EnableProf(obs.ProfOptions{})
		res, err := New(cat, Options{Parallelism: par, Obs: sink}).Optimize(workload.StarQuery(4))
		if err != nil {
			t.Fatal(err)
		}
		spaces := slices.Clone(res.spaces)
		if reflect.ValueOf(&spaces[0].scratch).Elem().FieldByName("stack").Cap() == 0 || len(spaces[0].covered) == 0 ||
			len(spaces[0].rootRels) == 0 || len(spaces[0].forkRels) == 0 {
			t.Fatalf("Parallelism %d: the root workspace's scratch or Rel-intern tables were never used", par)
		}
		res.Release()
		for i, w := range spaces {
			if held := scratchHeld(w); held != "" {
				t.Errorf("Parallelism %d, released workspace %d: %s", par, i, held)
			}
		}
	}
}

// TestWarmScratchDoesNotGrow: a tier-0 star6 optimization on the workspace an
// earlier one released evaluates on the value stack that one grew, and so
// allocates less than the same optimization on a workspace whose scratch is
// new. It starts from no idle workspace: AllocsPerRun runs at GOMAXPROCS 1,
// where checkin keeps one.
func TestWarmScratchDoesNotGrow(t *testing.T) {
	spares.Lock()
	spares.list = nil
	spares.Unlock()
	cat := workload.StarCatalog(6, 100000, 1000)
	tier0 := func() {
		sink := obs.NewMetricsSink()
		sink.EnableProf(obs.ProfOptions{})
		res, err := New(cat, Options{Parallelism: 1, Obs: sink}).Optimize(workload.StarQuery(6))
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	tier0()
	w := checkout() // the workspace tier0 released, checked in again at once
	w.checkin()
	stack := func() (uintptr, int) {
		f := reflect.ValueOf(&w.scratch).Elem().FieldByName("stack")
		return f.Pointer(), f.Cap()
	}
	data, size := stack()
	warm := testing.AllocsPerRun(3, tier0)
	if p, c := stack(); p != data || c != size {
		t.Errorf("a warm star6 optimization grew the value stack from %d slots to %d", size, c)
	}
	cold := testing.AllocsPerRun(3, func() {
		w.scratch = star.Scratch{}
		tier0()
	})
	if warm >= cold {
		t.Errorf("star6 on a warm workspace allocates %.0f objects, on a new scratch %.0f: want fewer", warm, cold)
	}
	t.Logf("star6 tier 0: %.0f allocations on a warm workspace, %.0f on a new scratch; value stack %d slots", warm, cold, size)
}

// TestCoverageWalkAllocatesNothing: the coverage summary's dedupe walk over
// the retained plans and the chosen plan reuses the workspace's set, so on a
// warm workspace it allocates nothing.
func TestCoverageWalkAllocatesNothing(t *testing.T) {
	res, _ := optimizeAt(t, workload.StarCatalog(4, 100000, 500), func() *query.Graph { return workload.StarQuery(4) }, Options{}, 2)
	defer res.Release()
	seen, nodes := res.spaces[0].covered, 0
	visit := func(*plan.Node) { nodes++ }
	retainedNodes(res, seen, visit)
	want := nodes
	if n := testing.AllocsPerRun(100, func() { retainedNodes(res, seen, visit) }); n != 0 {
		t.Errorf("the coverage dedupe walk allocates %.0f objects on a warm workspace, want 0", n)
	}
	if want == 0 || nodes != 102*want || len(seen) != want {
		t.Errorf("walks visited %d nodes, %d the first time, %d in the set: want each distinct node once per walk", nodes, want, len(seen))
	}
}
