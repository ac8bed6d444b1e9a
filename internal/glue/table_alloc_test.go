package glue

import (
	"fmt"
	"testing"

	"stars/internal/expr"
	"stars/internal/obs"
	"stars/internal/plan"
)

// TestProbePathsAllocationFree pins the plan table's hot probe paths at zero
// allocations: Lookup and a duplicate Offer build no strings and no
// intermediate slices per probe — the table keys on the sets' words. A
// regression here (say, a probe that renders TableSet.Key) fails the
// exact-zero comparison.
func TestProbePathsAllocationFree(t *testing.T) {
	pt := NewPlanTable()
	ts := deptSet()
	cheap := &plan.Node{Op: plan.OpAccess, Flavor: plan.FlavorHeap, Table: "DEPT",
		Props: &plan.Props{Cost: plan.Cost{Total: 5}}}
	pt.Insert(ts, predsK, []*plan.Node{cheap})

	if got := testing.AllocsPerRun(1000, func() {
		if pt.Lookup(ts, predsK).Len() == 0 {
			t.Fatal("lookup lost the entry")
		}
	}); got != 0 {
		t.Errorf("Lookup (hit) allocates %.1f per probe, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		if pt.Lookup(ts, predsOther).Len() != 0 {
			t.Fatal("lookup invented an entry")
		}
	}); got != 0 {
		t.Errorf("Lookup (miss) allocates %.1f per probe, want 0", got)
	}
	offer := []*plan.Node{cheap}
	if got := testing.AllocsPerRun(1000, func() {
		pt.Insert(ts, predsK, offer)
	}); got != 0 {
		t.Errorf("duplicate Offer allocates %.1f per probe, want 0", got)
	}

	// The overlay read path is probed at every enumeration step; it must be
	// as free as the base path when the overlay holds nothing local.
	ov := newOverlay(pt)
	if got := testing.AllocsPerRun(1000, func() {
		if ov.Lookup(ts, predsK).Len() == 0 {
			t.Fatal("overlay lookup lost the base entry")
		}
	}); got != 0 {
		t.Errorf("overlay Lookup allocates %.1f per probe, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		if !ov.HasEntry(ts) {
			t.Fatal("overlay HasEntry lost the base entry")
		}
	}); got != 0 {
		t.Errorf("overlay HasEntry allocates %.1f per probe, want 0", got)
	}
}

// incomparable returns n plans of one table set none of which dominates
// another: each is dearer than the last but the only one in its order.
func incomparable(n int) []*plan.Node {
	plans := make([]*plan.Node, n)
	for i := range plans {
		plans[i] = &plan.Node{Op: plan.OpSort, Props: &plan.Props{
			Order: keyCols(fmt.Sprint("C", i)),
			Cost:  plan.Cost{Total: float64(i + 1)},
		}}
	}
	return plans
}

// TestRecycledTableInsertsWithoutAllocating: a table recycled by Reset keeps
// its maps and slabs, so filling fresh cells again — cell creation, the
// per-table-set chain, retained lists growing past 8 plans, an overlay's
// replay log — allocates nothing, as a root table and as an overlay alike.
func TestRecycledTableInsertsWithoutAllocating(t *testing.T) {
	ts, plans := deptSet(), incomparable(12)
	cells := []expr.PredSet{predsK, predsOther, predsP, predsK.Union(predsP)}
	base := NewPlanTable()
	base.Insert(ts, predsK, plans[:1])
	for _, over := range []*PlanTable{nil, base} {
		pt := NewPlanTable()
		fill := func() {
			pt.Reset(over)
			for _, preds := range cells {
				pt.Insert(ts, preds, plans)
			}
		}
		fill()
		if n := testing.AllocsPerRun(100, fill); n != 0 {
			t.Errorf("overlay=%v: refilling %d fresh cells with %d plans each allocates %.1f, want 0", over != nil, len(cells), len(plans), n)
		}
		want := len(cells) * len(plans)
		if over != nil {
			want += base.Size() - 1 // the base's plan, which rejects its equal in predsK
		}
		if got := pt.Size(); got != want {
			t.Errorf("overlay=%v: %d plans retained, want %d", over != nil, got, want)
		}
		if got := pt.Entry(ts); got[len(got)-1] != plans[len(plans)-1] {
			t.Errorf("overlay=%v: Entry does not end with the last cell's last plan", over != nil)
		}
	}
}

// TestResetLeavesNothingBehind: a recycled overlay starts as empty as a new
// one — no cell, retained plan, mark, replay log entry, prune tally, counter
// or sink of its last task survives Reset (a stale mark would make Glue skip
// veneers silently) — and reads its new base through.
func TestResetLeavesNothingBehind(t *testing.T) {
	ts, plans := deptSet(), incomparable(3)
	old, base := NewPlanTable(), NewPlanTable()
	base.Insert(ts, predsOther, plans[:1])
	ov := newOverlay(old)
	ov.Obs = obs.NewSink()
	ov.Insert(ts, predsK, plans)
	ov.Insert(ts, predsK, []*plan.Node{{Op: plan.OpSort, Props: &plan.Props{Order: plans[0].Props.Order, Cost: plan.Cost{Total: 9}}}}) // dominated
	ov.Insert(ts, predsP, plans[:1])
	k := markKey{tables: ts.Mask(), lookup: predsK.Hash64()}
	ov.marks[k] = mark{2, 3}
	if ov.Pruned == 0 || len(ov.prunes) == 0 || len(ov.order) == 0 {
		t.Fatalf("fixture left no prune or replay log to clear: %+v", ov)
	}
	cell := ov.Lookup(ts, predsK)[1]

	ov.Reset(base)
	if len(ov.entries)+len(ov.byTables)+len(ov.marks)+len(ov.order)+len(ov.prunes) != 0 ||
		ov.Inserted != 0 || ov.Pruned != 0 || ov.Obs != nil {
		t.Fatalf("Reset left state behind: %d cells, %d chains, %d marks, %d log entries, %d tallies, counters %d/%d, sink %v",
			len(ov.entries), len(ov.byTables), len(ov.marks), len(ov.order), len(ov.prunes), ov.Inserted, ov.Pruned, ov.Obs)
	}
	if cell.tables.Mask() != 0 || cell.plans != nil || cell.seq != 0 || cell.next != nil || cell.sibling != nil {
		t.Fatalf("Reset left the old cell's slot filled: %+v", *cell)
	}
	if m := ov.markOf(k); m != (mark{}) {
		t.Fatalf("mark %v survived Reset", m)
	}
	if ov.Size() != 1 || !ov.HasEntry(ts) || ov.Lookup(ts, predsK).Len() != 0 || ov.Lookup(ts, predsOther).Len() != 1 {
		t.Fatal("the reset overlay does not read exactly its new base")
	}
	ov.Insert(ts, predsK, plans[1:2])
	if c := ov.Lookup(ts, predsK); c.Len() != 1 || c[1].seq != 1 || c[1].fresh(0) != 0 {
		t.Fatalf("a cell created after Reset starts at seq %d with %d plans", c[1].seq, c.Len())
	}
}
