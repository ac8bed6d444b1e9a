package glue

import (
	"testing"

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
	ov := NewOverlay(pt)
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
