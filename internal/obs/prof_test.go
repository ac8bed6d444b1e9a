package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeAllocs replaces the runtime allocation counter with a settable value
// so self-window attribution is testable exactly.
func fakeAllocs(p *Prof) *int64 {
	v := new(int64)
	p.allocFn = func() int64 { return *v }
	return v
}

// tallies is a profile's rows keyed by name, the shape these tests read.
type tallies struct {
	Phases, Rules, Spans map[string]Figures
	Activities           []ActivityRow
	Ranks                []Rank
}

// talliesOf keys p's rows.
func talliesOf(p *Prof) tallies {
	t := tallies{Phases: map[string]Figures{}, Rules: map[string]Figures{}, Spans: map[string]Figures{}}
	rows := p.Profile()
	for _, r := range rows.Phases {
		t.Phases[r.Phase] = r.Figures
	}
	for _, r := range rows.Rules {
		t.Rules[r.Name] = r.Figures
	}
	for _, r := range rows.Spans {
		t.Spans[r.Name] = r.Figures
	}
	t.Activities, t.Ranks = rows.Activities, rows.Ranks
	return t
}

// TestProfSelfTime drives the span stack with synthetic timestamps and
// checks the self/total/alloc math: self excludes nested spans of the same
// dimension, totals include them, and pausing/resuming attributes the
// allocation windows to the frame that was actually running.
func TestProfSelfTime(t *testing.T) {
	p := newProf(ProfOptions{})
	alloc := fakeAllocs(p)

	// R1 [0..100] contains R2 [10..30] and a glue call [40..60].
	p.spanBegin(EvRule, "R1", 0)
	*alloc = 2 // 2 allocs in R1 before R2 opens
	p.spanBegin(EvRule, "R2", 10)
	*alloc = 7 // 5 allocs inside R2
	p.spanEnd(EvRule, 30)
	p.spanBegin(EvGlue, "", 40)
	*alloc = 10 // 3 allocs inside the glue call
	p.spanEnd(EvGlue, 60)
	*alloc = 11 // 1 more alloc in R1's tail
	p.spanEnd(EvRule, 100)

	snap := talliesOf(p)
	r1 := snap.Rules["R1"]
	if r1.Count != 1 || r1.SelfNS != 60 || r1.TotalNS != 100 || r1.Allocs != 3 {
		t.Fatalf("R1 = %+v, want count=1 self=60 total=100 allocs=3", r1)
	}
	r2 := snap.Rules["R2"]
	if r2.Count != 1 || r2.SelfNS != 20 || r2.TotalNS != 20 || r2.Allocs != 5 {
		t.Fatalf("R2 = %+v, want count=1 self=20 total=20 allocs=5", r2)
	}
	gc := snap.Spans[EvGlue]
	if gc.Count != 1 || gc.SelfNS != 20 || gc.TotalNS != 20 || gc.Allocs != 3 {
		t.Fatalf("glue.call = %+v, want count=1 self=20 total=20 allocs=3", gc)
	}
}

// TestProfPhaseDimension checks that opt.phase spans tally on their own
// stack, keyed by phase name, independent of concurrent rule spans.
func TestProfPhaseDimension(t *testing.T) {
	p := newProf(ProfOptions{})
	fakeAllocs(p)
	p.spanBegin(EvPhase, "access", 0)
	p.spanBegin(EvRule, "AccessRoot", 5)
	p.spanEnd(EvRule, 25)
	p.spanEnd(EvPhase, 50)
	p.spanBegin(EvPhase, "join-2", 50)
	p.spanEnd(EvPhase, 90)

	snap := talliesOf(p)
	// Phases do not nest: rule spans must not subtract from phase self.
	if ph := snap.Phases["access"]; ph.SelfNS != 50 || ph.TotalNS != 50 || ph.Count != 1 {
		t.Fatalf("access = %+v, want self=50 total=50 count=1", ph)
	}
	if ph := snap.Phases["join-2"]; ph.SelfNS != 40 || ph.Count != 1 {
		t.Fatalf("join-2 = %+v, want self=40 count=1", ph)
	}
	if r := snap.Rules["AccessRoot"]; r.SelfNS != 20 {
		t.Fatalf("AccessRoot = %+v, want self=20", r)
	}
}

// TestProfChildAbsorbConcurrent is the Child/Absorb + Registry.Merge
// contract under concurrency: K children record spans, activities, ranks,
// and counters on their own goroutines; the parent absorbs them afterwards
// and every count must merge exactly. Run with -race.
func TestProfChildAbsorbConcurrent(t *testing.T) {
	parent := NewSink()
	parent.EnableProf(ProfOptions{})
	const K, M = 8, 25

	children := make([]*Sink, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		c := parent.Child()
		if c.Prof() == nil {
			t.Fatal("child of a profiled sink must carry its own profiler")
		}
		children[i] = c
		wg.Add(1)
		go func(c *Sink, id int) {
			defer wg.Done()
			for j := 0; j < M; j++ {
				sp := c.StartSpan(EvRule, "JoinRoot", "", 1)
				c.ProfActivity(ActGuard, time.Microsecond, 2)
				c.ProfActivity(ActCost, time.Microsecond, 1)
				sp.End(1)
				c.Registry().Counter("work_total").Add(1)
			}
			c.ProfRank(Rank{Rank: id, Tasks: M, Workers: 1, BusyNS: []int64{int64(id)}})
		}(c, i)
	}
	wg.Wait()
	for _, c := range children {
		parent.Absorb(c)
	}

	snap := talliesOf(parent.Prof())
	if got := snap.Rules["JoinRoot"].Count; got != K*M {
		t.Fatalf("merged rule count = %d, want %d", got, K*M)
	}
	if got := snap.Activities[ActGuard].Count; got != 2*K*M {
		t.Fatalf("merged guard count = %d, want %d", got, 2*K*M)
	}
	if got := snap.Activities[ActCost].Count; got != K*M {
		t.Fatalf("merged cost count = %d, want %d", got, K*M)
	}
	if got := len(snap.Ranks); got != K {
		t.Fatalf("merged ranks = %d, want %d", got, K)
	}
	if got := parent.Registry().Counters()["work_total"]; got != K*M {
		t.Fatalf("merged counter = %d, want %d", got, K*M)
	}
}

// TestProfPublishMetricsDeltas checks repeated publishing exports exact
// deltas, never double counts, and collapses join-<k> to one phase label.
func TestProfPublishMetricsDeltas(t *testing.T) {
	p := newProf(ProfOptions{})
	fakeAllocs(p)
	p.addPhase("parse", 10, 5)
	p.spanBegin(EvPhase, "join-2", 0)
	p.spanEnd(EvPhase, 40)
	p.spanBegin(EvPhase, "join-3", 40)
	p.spanEnd(EvPhase, 100)
	p.addRank(Rank{Rank: 2, Tasks: 3, Workers: 2, ExecNS: 50, BusyNS: []int64{30, 40}})

	reg := NewRegistry()
	p.PublishMetrics(reg)
	p.PublishMetrics(reg) // second call must add nothing
	c := reg.Counters()
	if got := c[`opt_phase_spans_total{phase="parse"}`]; got != 1 {
		t.Fatalf("parse spans = %d, want 1", got)
	}
	if got := c[`opt_phase_self_ns_total{phase="parse"}`]; got != 10 {
		t.Fatalf("parse self = %d, want 10", got)
	}
	if got := c[`opt_phase_allocs_total{phase="parse"}`]; got != 5 {
		t.Fatalf("parse allocs = %d, want 5", got)
	}
	if got := c[`opt_phase_self_ns_total{phase="join"}`]; got != 100 {
		t.Fatalf("join self = %d, want 100 (40+60 collapsed)", got)
	}
	if got := c["opt_rank_tasks_total"]; got != 3 {
		t.Fatalf("rank tasks = %d, want 3", got)
	}
	if got := c["opt_rank_busy_ns_total"]; got != 70 {
		t.Fatalf("rank busy = %d, want 70", got)
	}
	if got := c["opt_rank_idle_ns_total"]; got != 30 {
		t.Fatalf("rank idle = %d, want 2*50-70=30", got)
	}

	// New work after a publish exports only the increment.
	p.addPhase("parse", 7, 2)
	p.PublishMetrics(reg)
	c = reg.Counters()
	if got := c[`opt_phase_spans_total{phase="parse"}`]; got != 2 {
		t.Fatalf("parse spans after delta = %d, want 2", got)
	}
	if got := c[`opt_phase_self_ns_total{phase="parse"}`]; got != 17 {
		t.Fatalf("parse self after delta = %d, want 17", got)
	}
}

// TestProfDisabledZeroAlloc pins the disabled-path cost: a sink without a
// profiler must not allocate on the Prof* entry points, and the nil sink
// must stay free.
func TestProfDisabledZeroAlloc(t *testing.T) {
	s := NewMetricsSink()
	if n := testing.AllocsPerRun(100, func() {
		if s.ProfEnabled() {
			t.Fatal("no profiler attached")
		}
		s.ProfActivity(ActGuard, time.Microsecond, 1)
	}); n != 0 {
		t.Fatalf("unprofiled ProfActivity allocates %v/op, want 0", n)
	}
	var nilSink *Sink
	if n := testing.AllocsPerRun(100, func() {
		nilSink.ProfActivity(ActCost, time.Microsecond, 1)
		nilSink.ProfRank(Rank{})
	}); n != 0 {
		t.Fatalf("nil-sink prof path allocates %v/op, want 0", n)
	}
}

// TestProfMetricNamesCoverPublished checks the pre-registration list names
// every series an optimization publishes.
func TestProfMetricNamesCoverPublished(t *testing.T) {
	names := map[string]bool{}
	for _, n := range ProfMetricNames() {
		names[n] = true
	}
	p := newProf(ProfOptions{})
	fakeAllocs(p)
	for _, ph := range []string{"parse", "prepare", "access", "join-7", "root", "finalize"} {
		p.addPhase(ph, 1, 1)
	}
	p.addRank(Rank{Rank: 2, Tasks: 1, Workers: 1, BusyNS: []int64{1}})
	reg := NewRegistry()
	p.PublishMetrics(reg)
	for series := range reg.Counters() {
		if !names[series] {
			t.Fatalf("published series %q missing from ProfMetricNames", series)
		}
	}
}

// TestHeapAllocsMonotonic sanity-checks the runtime counter plumbing.
// Small-object counts reach the counter in span-sized batches, so the probe
// uses large allocations, which are counted immediately.
func TestHeapAllocsMonotonic(t *testing.T) {
	a := HeapAllocs()
	if a <= 0 {
		t.Fatalf("HeapAllocs = %d, want > 0", a)
	}
	sink := make([][]byte, 100)
	for i := range sink {
		sink[i] = make([]byte, 64<<10)
	}
	_ = fmt.Sprint(len(sink[0]))
	if b := HeapAllocs(); b < a+100 {
		t.Fatalf("HeapAllocs did not advance: before %d after %d", a, b)
	}
}

// sampleProfile records, through the accumulator, six phases out of display
// order, two rules (AccessRoot with more self-time, JoinRoot wrapping a Glue
// call), a guard meter and two samples of rank 2, and returns its rows.
func sampleProfile() *Profile {
	p := newProf(ProfOptions{})
	fakeAllocs(p)
	for _, ph := range []struct {
		name       string
		ns, allocs int64
	}{{"finalize", 5, 1}, {"access", 30, 10}, {"join-2", 50, 20}, {"join-10", 40, 15}, {"prepare", 10, 2}, {"root", 15, 3}} {
		p.addPhase(ph.name, time.Duration(ph.ns), ph.allocs)
	}
	p.spanBegin(EvRule, "AccessRoot", 0)
	p.spanEnd(EvRule, 90)
	p.spanBegin(EvRule, "JoinRoot", 100)
	p.spanBegin(EvGlue, "", 150)
	p.spanEnd(EvGlue, 190)
	p.spanEnd(EvRule, 220)
	p.activity(ActGuard, 1000, 100)
	p.addRank(Rank{Rank: 2, Tasks: 4, Workers: 2, WallNS: 100, CollectNS: 5, ExecNS: 80, AbsorbNS: 15, BusyNS: []int64{60, 20}})
	p.addRank(Rank{Rank: 2, Tasks: 2, Workers: 2, WallNS: 50, CollectNS: 2, ExecNS: 40, AbsorbNS: 8, BusyNS: []int64{30, 30}})
	return p.Profile()
}

func phaseSums(p *Profile) (self, allocs int64) {
	for _, ph := range p.Phases {
		self += ph.SelfNS
		allocs += ph.Allocs
	}
	return self, allocs
}

// TestProfileDerivations checks what a profile reads after recording: phases
// in pipeline order with join ranks numeric, rules by self-time, the samples
// of one rank folded into one row with its derived idle and imbalance
// figures, and the activity meters in enum order.
func TestProfileDerivations(t *testing.T) {
	p := sampleProfile()

	var order []string
	for _, ph := range p.Phases {
		order = append(order, ph.Phase)
	}
	want := []string{"prepare", "access", "join-2", "join-10", "root", "finalize"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("phase order = %v, want %v", order, want)
	}

	if p.Rules[0].Name != "AccessRoot" || p.Rules[1].Name != "JoinRoot" {
		t.Fatalf("rule order = %+v, want AccessRoot first", p.Rules)
	}
	if r := p.Rules[1]; r.SelfNS != 80 || r.TotalNS != 120 {
		t.Fatalf("JoinRoot = %+v, want self=80 total=120", r)
	}

	if self, allocs := phaseSums(p); self != 150 || allocs != 51 {
		t.Fatalf("phase sums = %d ns, %d allocs; want 150, 51", self, allocs)
	}

	// Two samples of rank 2 aggregate: busy 60+20+30+30=140, max 60+30=90,
	// idle = 2*120-140 = 100, imbalance = 90/(140/2) ≈ 1.286.
	if len(p.Ranks) != 1 {
		t.Fatalf("ranks = %+v, want one aggregated row", p.Ranks)
	}
	r := p.Ranks[0]
	if r.Tasks != 6 || r.BusyTotalNS != 140 || r.BusyMaxNS != 90 || r.IdleNS != 100 || len(r.BusyNS) != 4 {
		t.Fatalf("rank agg = %+v, want tasks=6 busyTotal=140 busyMax=90 idle=100 and 4 busy entries", r)
	}
	if r.Imbalance < 1.28 || r.Imbalance > 1.29 {
		t.Fatalf("imbalance = %f, want ~1.286", r.Imbalance)
	}

	if p.Activities[0].Name != ActGuard.String() || p.Activities[0].Count != 100 || len(p.Activities) != int(NumActivities) {
		t.Fatalf("activities = %+v", p.Activities)
	}
}

// TestProfileMergeAndClone checks Merge adds every figure by key, drops the
// per-worker busy vector of a rank row two runs fold into, and leaves the
// source of a Clone untouched; and that a warm aggregate folds a profile of
// rows it has seen without allocating.
func TestProfileMergeAndClone(t *testing.T) {
	a := sampleProfile()
	a.ElapsedNS, a.Allocs = 1000, 500
	b := sampleProfile()
	b.ElapsedNS, b.Allocs = 200, 100

	c := a.Clone()
	c.Merge(b)
	if c.ElapsedNS != 1200 || c.Allocs != 600 {
		t.Fatalf("merged totals = %d/%d, want 1200/600", c.ElapsedNS, c.Allocs)
	}
	if self, _ := phaseSums(c); self != 300 {
		t.Fatalf("merged phase self sum = %d, want 300", self)
	}
	for _, r := range c.Rules {
		if r.Name == "JoinRoot" && r.Count != 2 {
			t.Fatalf("merged JoinRoot count = %d, want 2", r.Count)
		}
	}
	if r := c.Ranks[0]; r.Tasks != 12 || r.BusyTotalNS != 280 || r.BusyNS != nil {
		t.Fatalf("merged rank = %+v, want tasks=12 busyTotal=280 and no busy vector", r)
	}
	if self, _ := phaseSums(a); self != 150 || a.Ranks[0].Tasks != 6 || len(a.Ranks[0].BusyNS) != 4 {
		t.Fatal("Merge mutated the Clone source")
	}

	agg := &Profile{}
	agg.Merge(a)
	if n := testing.AllocsPerRun(100, func() { agg.Merge(b) }); n != 0 {
		t.Fatalf("warm Merge allocates %v/op, want 0", n)
	}
}
