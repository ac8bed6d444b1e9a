package glue

import (
	"strings"
	"testing"

	"stars/internal/expr"
	"stars/internal/obs"
	"stars/internal/plan"
	"stars/internal/star"
)

// ledger is everything a Glue reference can spend: veneers built, nodes
// priced, plans offered to the table.
type ledger struct{ veneers, priced, offered int64 }

func ledgerOf(gl *Gluer, sink *obs.Sink) ledger {
	offered := gl.Table.Inserted
	if gl.Table.base != nil {
		offered += gl.Table.base.Inserted
	}
	var priced int64
	if p := sink.Prof().Profile(); p != nil {
		priced = p.Activities[obs.ActCost].Count
	}
	return ledger{gl.Stats.Veneers, priced, offered}
}

// laOrderedTemp is a requirement no DEPT access plan meets: every candidate
// needs SHIP, SORT and STORE.
func laOrderedTemp(gl *Gluer) plan.Reqd {
	la := "LA"
	return plan.Reqd{Site: &la, Order: queryCols(gl, expr.ColID{Table: "DEPT", Col: "DNO"}), Temp: true}
}

// TestRepeatedReferenceBuildsNothing: an exact repeat of a reference on an
// unchanged table is answered out of the (tables, full) cell — no veneer, no
// cost.Price call, no offer — and allocates only the slice it returns. Holds
// on a root table, on an overlay over it, and on a second overlay taken after
// the first was absorbed (the base half of the mark went through the barrier).
func TestRepeatedReferenceBuildsNothing(t *testing.T) {
	for _, withSink := range []bool{true, false} {
		gl, en, g := fixture(t)
		var sink *obs.Sink
		if withSink {
			sink = obs.NewMetricsSink()
			sink.EnableProf(obs.ProfOptions{})
			en.Obs, en.Cost.Obs, gl.Table.Obs = sink, sink, sink
		}
		root := gl.Table
		dept := tables(g, "DEPT")
		reqs := []*star.GlueRequest{
			{Tables: dept, Req: laOrderedTemp(gl)},
			{Tables: dept, Push: g.Universe().PredSet(deptEmpJoin), Req: plan.Reqd{PathCols: queryCols(gl, expr.ColID{Table: "DEPT", Col: "DNO"})}},
			{Tables: dept, Req: laOrderedTemp(gl), All: true},
		}
		check := func(where string) {
			t.Helper()
			for i, req := range reqs {
				first, err := gl.Glue(req)
				if err != nil {
					t.Fatalf("%s, request %d: %v", where, i, err)
				}
				if !withSink {
					// One slice for a cheapest-only answer; append's doublings
					// for the three plans an All answer returns.
					want := map[bool]float64{false: 1, true: 3}[req.All]
					if n := testing.AllocsPerRun(100, func() { gl.Glue(req) }); n > want {
						t.Errorf("%s, request %d: a repeated reference allocates %.0f, want at most %.0f", where, i, n, want)
					}
					continue
				}
				before := ledgerOf(gl, sink)
				again, err := gl.Glue(req)
				if err != nil {
					t.Fatal(err)
				}
				if after := ledgerOf(gl, sink); after != before {
					t.Errorf("%s, request %d: a repeated reference spent %+v, had %+v", where, i, after, before)
				}
				if len(again) != len(first) || again[0] != first[0] {
					t.Errorf("%s, request %d: the repeat answered differently", where, i)
				}
			}
		}
		check("root table")
		if withSink && gl.Stats.Veneers == 0 {
			t.Fatal("the fixture requests built no veneers at all")
		}

		ov := newOverlay(root)
		ov.Obs = sink
		gl.Table = ov
		built := gl.Stats.Veneers
		check("overlay")
		if gl.Stats.Veneers != built {
			t.Errorf("an overlay re-veneered %d candidates its base had already patched", gl.Stats.Veneers-built)
		}
		// The task also references a table the base has no plans for yet: the
		// miss, the candidates and the mark over them are all the overlay's.
		emp := &star.GlueRequest{Tables: tables(g, "EMP"), Req: plan.Reqd{Temp: true}}
		if _, err := gl.Glue(emp); err != nil {
			t.Fatal(err)
		}
		root.Absorb(ov)
		gl.Table = newOverlay(root)
		gl.Table.Obs = sink
		built = gl.Stats.Veneers
		check("overlay after the barrier")
		if gl.Stats.Veneers != built {
			t.Errorf("the mark did not survive Absorb: %d veneers rebuilt", gl.Stats.Veneers-built)
		}
		// Only the base half of a mark goes through the barrier. The EMP
		// candidates were replayed into the base under new sequence numbers, so
		// the next task veneers them once more (and dominance drops the twins).
		if _, err := gl.Glue(emp); err != nil {
			t.Fatal(err)
		}
		if gl.Stats.Veneers == built {
			t.Error("an overlay-local mark outlived its overlay")
		}
	}
}

// TestMarkMergeIsOrderFree: overlays of one rank fold their marks into the
// base by max, so the base ends up the same whichever is absorbed first.
func TestMarkMergeIsOrderFree(t *testing.T) {
	marksAfter := func(order [2]int) map[markKey]mark {
		gl, _, g := fixture(t)
		root := gl.Table
		dept := tables(g, "DEPT")
		if _, err := gl.Glue(&star.GlueRequest{Tables: dept}); err != nil {
			t.Fatal(err)
		}
		ovs := [2]*PlanTable{newOverlay(root), newOverlay(root)}
		for i, ov := range ovs {
			gl.Table = ov
			req := &star.GlueRequest{Tables: dept, Req: laOrderedTemp(gl)}
			if i == 1 {
				req.Req.Order = expr.ColList{}
			}
			if _, err := gl.Glue(req); err != nil {
				t.Fatal(err)
			}
			// Both tasks share one job as well.
			if _, err := gl.Glue(&star.GlueRequest{Tables: dept, Req: plan.Reqd{Temp: true}}); err != nil {
				t.Fatal(err)
			}
		}
		root.Absorb(ovs[order[0]])
		root.Absorb(ovs[order[1]])
		return root.marks
	}
	a, b := marksAfter([2]int{0, 1}), marksAfter([2]int{1, 0})
	if len(a) < 3 {
		t.Fatalf("expected the three jobs' marks in the base, got %d", len(a))
	}
	for k, m := range a {
		if b[k] != m || m[0] != 0 || m[1] == 0 {
			t.Errorf("job %+v: mark %+v one way, %+v the other", k, m, b[k])
		}
	}
}

// TestDisabledPruningKeepsNoRebuiltTwins: with dominance off the table
// dedupes by plan identity alone, so repeating a reference must not leave
// another copy of a STORE or BUILDINDEX veneer behind (before the memo, and
// while temps carried generated names, every repeat did).
func TestDisabledPruningKeepsNoRebuiltTwins(t *testing.T) {
	gl, _, g := fixture(t)
	gl.Table.PruneDisabled = true
	emp := tables(g, "EMP")
	req := &star.GlueRequest{Tables: emp, Push: g.Universe().PredSet(deptEmpJoin),
		Req: plan.Reqd{PathCols: queryCols(gl, expr.ColID{Table: "EMP", Col: "DNO"})}}
	if _, err := gl.Glue(req); err != nil {
		t.Fatal(err)
	}
	size := gl.Table.Size()
	for i := 0; i < 3; i++ {
		if _, err := gl.Glue(req); err != nil {
			t.Fatal(err)
		}
	}
	if got := gl.Table.Size(); got != size {
		t.Errorf("repeated references grew the table from %d to %d plans with pruning off", size, got)
	}
}

// TestBoundSkipsOnlyStrictlyDearerCandidates drives the bound with plans of
// known cost. A candidate whose own cost is strictly above the cheapest plan
// already satisfying the requirement is not veneered; one that ties it is,
// because its veneer may still evict the incumbent; and a reference that
// returns every satisfying plan skips nothing.
func TestBoundSkipsOnlyStrictlyDearerCandidates(t *testing.T) {
	// Each plan offers an order of its own, so none dominates another; the
	// cost is all I/O, weight 1, so Total agrees with its components.
	mk := func(name string, total float64, temp bool) *plan.Node {
		return &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorHeap, Table: "DEPT", Path: name,
			Props: &plan.Props{Site: "NY", Temp: temp, Card: 10, Cost: plan.Cost{IO: total, Total: total},
				Order: keyCols(name)}}
	}
	seed := func(t *testing.T) (*Gluer, *star.GlueRequest) {
		gl, _, g := fixture(t)
		dept := tables(g, "DEPT")
		gl.Table.Seed(dept, g.EligibleWithin(dept), []*plan.Node{
			mk("tie", 5, false), mk("temp", 5, true), mk("dear", 50, false)})
		return gl, &star.GlueRequest{Tables: dept, Req: plan.Reqd{Temp: true}}
	}

	gl, req := seed(t)
	out, err := gl.Glue(req)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Path != "temp" {
		t.Errorf("returned %s, want the incumbent temp (first offered wins the tie)", plan.Functional(out[0]))
	}
	// "tie" costs what the incumbent does and is built; "dear" is not.
	if gl.Stats.Veneers != 1 || gl.Stats.Bounded != 1 || gl.Stats.Reused != 0 {
		t.Errorf("veneers %d, bounded %d, reused %d; want 1, 1, 0", gl.Stats.Veneers, gl.Stats.Bounded, gl.Stats.Reused)
	}
	for _, p := range gl.Table.Entry(req.Tables) {
		if p.Op == plan.OpStore && p.Inputs[0].Path == "dear" {
			t.Errorf("the bound let a veneer through: %s", plan.Functional(p))
		}
	}
	// The skipped candidate stays skipped: the repeat reuses all of them.
	if _, err := gl.Glue(req); err != nil {
		t.Fatal(err)
	}
	if gl.Stats.Veneers != 1 || gl.Stats.Bounded != 1 {
		t.Errorf("the repeat built or bounded again: %+v", gl.Stats)
	}

	// All plans wanted: no bound, and its own mark — the cheapest-only
	// reference above must not have hidden "dear" from it.
	for _, mode := range []string{"req.All", "KeepAll"} {
		gl, req := seed(t)
		if _, err := gl.Glue(req); err != nil {
			t.Fatal(err)
		}
		if mode == "KeepAll" {
			gl.KeepAll = true
		} else {
			req.All = true
		}
		out, err := gl.Glue(req)
		if err != nil {
			t.Fatal(err)
		}
		var stored []string
		for _, p := range out {
			if p.Op == plan.OpStore {
				stored = append(stored, p.Inputs[0].Path)
			}
		}
		if gl.Stats.Bounded != 1 || strings.Join(stored, ",") != "tie,dear" {
			t.Errorf("%s: returned STOREs over [%s] (bounded %d), want tie and dear, bounded only by the first reference",
				mode, strings.Join(stored, ","), gl.Stats.Bounded)
		}
	}
}

// TestGlueSkipEvent: a tracing sink gets one glue.skip record per reference
// that found instead of building — never one per candidate — naming the
// cheapest candidate the bound passed over and the plan it could not beat.
func TestGlueSkipEvent(t *testing.T) {
	gl, en, g := fixture(t)
	sink := obs.NewSink()
	en.Obs, en.Cost.Obs, gl.Table.Obs = sink, sink, sink
	dept := tables(g, "DEPT")
	la := "LA"
	req := &star.GlueRequest{Tables: dept, Req: plan.Reqd{Site: &la, Order: queryCols(gl, expr.ColID{Table: "DEPT", Col: "DNO"})}}
	var out []*plan.Node
	for i := 0; i < 2; i++ {
		var err error
		if out, err = gl.Glue(req); err != nil {
			t.Fatal(err)
		}
	}
	var skips []obs.Event
	for _, e := range sink.Events() {
		if e.Name == obs.EvGlueSkip {
			skips = append(skips, e)
		}
	}
	if len(skips) != 2 {
		t.Fatalf("%d glue.skip events for two references, want 2", len(skips))
	}
	// The first reference builds on the heap scan, bounds the unsorted index
	// scan (5222 against 885.7) and still tries the cheaper sorted one.
	first, second := skips[0], skips[1]
	if first.A1 != "DEPT" || first.N1 != 0 || first.N2 != 1 || first.P2 != out[0].ID() ||
		first.F1 <= first.F2 || first.F2 != out[0].Props.Cost.Total {
		t.Errorf("first reference's skip record: %+v", first)
	}
	// The repeat reuses the three access plans and its own veneer.
	if second.N1 != 4 || second.N2 != 0 || second.P1 != 0 || second.P2 != 0 {
		t.Errorf("repeat's skip record: %+v", second)
	}
	if gl.Stats.Reused != 4 || gl.Stats.Bounded != 1 {
		t.Errorf("stats: reused %d, bounded %d; want 4, 1", gl.Stats.Reused, gl.Stats.Bounded)
	}
}

// TestDominatedVeneersAllocateNothing: a candidate costs the heap nothing
// until it is kept. On a warm arena, a Glue reference that materializes every
// candidate, builds a dynamic index on it and probes that — three veneers and
// a PATHS list each — and then sees all of them dominated by what an earlier
// reference left in the table allocates no object at all: the nodes, property
// vectors, input and PATHS lists are arena slots, and a temp's name is
// rendered only when somebody shows it. The reference is made from a rule,
// as the enumeration makes it: Glue called from Go returns its answer in a
// heap slice (star.Engine.SAP).
func TestDominatedVeneersAllocateNothing(t *testing.T) {
	gl, en, g := fixture(t)
	rules, err := star.ParseRules(star.DefaultRuleText + "\nstar Probe(T, C, P) = DROP(Glue(T[paths = C], P))\n")
	if err != nil {
		t.Fatal(err)
	}
	en.Rules = rules
	en.Register(star.Signature{Name: "DROP", Result: star.KindSAP, ArityUnknown: true}, func(*star.Engine, []star.Value) (star.Value, error) { return star.SAPValue(nil), nil })

	// A warm arena: two chunks of every slab, grown by an earlier query.
	arena := plan.NewArena()
	for i := 0; i < 1024; i++ {
		n := arena.NewNode(plan.Node{Props: arena.NewProps(plan.Props{})})
		arena.NewNode(plan.Node{}, n).Props = &plan.Props{Paths: arena.JoinPaths(make([]plan.PathInfo, 1), nil)}
	}
	arena.Reset()
	en.Cost.Arena = arena

	for _, tc := range []struct{ table, col string }{{"EMP", "DNO"}, {"DEPT", "MGR"}} {
		args := []star.Value{
			star.StreamValue(tables(g, tc.table)),
			star.ColsValue(en.Cost.Vocab().List(expr.ColID{Table: tc.table, Col: tc.col})),
			star.PredsValue(g.Universe().PredSet(deptEmpJoin)),
		}
		reference := func() {
			// Forget how far the job got, so every candidate is veneered again.
			clear(gl.Table.marks)
			if _, err := en.EvalRule("Probe", args); err != nil {
				t.Fatal(err)
			}
		}
		reference()
		size, pruned, veneers := gl.Table.Size(), gl.Table.Pruned, gl.Stats.VeneersByOp
		if n := testing.AllocsPerRun(50, reference); n != 0 {
			t.Errorf("%s: a reference whose veneers are all dominated allocates %.0f objects, want 0", tc.table, n)
		}
		built := gl.Stats.VeneersByOp
		for i, op := range VeneerOps {
			if (op == plan.OpStore || op == plan.OpBuildIndex || op == plan.OpAccess) && built[i] < veneers[i]+51 {
				t.Errorf("%s: 51 references built %d %s veneers, want one per candidate each", tc.table, built[i]-veneers[i], op)
			}
		}
		if gl.Table.Size() != size || gl.Table.Pruned <= pruned {
			t.Errorf("%s: table went from %d plans to %d (%d more pruned): the veneers were not all dominated",
				tc.table, size, gl.Table.Size(), gl.Table.Pruned-pruned)
		}
	}
}
