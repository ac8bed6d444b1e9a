package opt

import (
	"testing"
	"time"

	"stars/internal/obs"
	"stars/internal/workload"
)

// tallies is a profile's rows keyed by name, the shape these tests read.
type tallies struct {
	Phases, Rules, Spans map[string]obs.Figures
	Activities           []obs.ActivityRow
	Ranks                []obs.Rank
}

// talliesOf keys the profile accumulated on sink; empty when no profiler is
// attached.
func talliesOf(sink *obs.Sink) tallies {
	t := tallies{Phases: map[string]obs.Figures{}, Rules: map[string]obs.Figures{}, Spans: map[string]obs.Figures{}}
	p := sink.Prof().Profile()
	if p == nil {
		return t
	}
	for _, r := range p.Phases {
		t.Phases[r.Phase] = r.Figures
	}
	for _, r := range p.Rules {
		t.Rules[r.Name] = r.Figures
	}
	for _, r := range p.Spans {
		t.Spans[r.Name] = r.Figures
	}
	t.Activities, t.Ranks = p.Activities, p.Ranks
	return t
}

// profiledRun optimizes the star-k workload with a profiler attached at the
// given parallelism and returns its profile's tallies.
func profiledRun(t *testing.T, k, parallelism int) tallies {
	t.Helper()
	sink := obs.NewMetricsSink()
	sink.EnableProf(obs.ProfOptions{})
	o := New(workload.StarCatalog(k, 100000, 500), Options{Obs: sink, Parallelism: parallelism})
	if _, err := o.Optimize(workload.StarQuery(k)); err != nil {
		t.Fatalf("optimize (parallelism=%d): %v", parallelism, err)
	}
	return talliesOf(sink)
}

// counts projects the tallies down to their deterministic fields: span
// counts per key and activity operation counts. Durations and allocation
// figures are wall-clock-dependent and excluded by design.
func counts(s tallies) map[string]int64 {
	out := map[string]int64{}
	for k, e := range s.Phases {
		out["phase/"+k] = e.Count
	}
	for k, e := range s.Rules {
		out["rule/"+k] = e.Count
	}
	for k, e := range s.Spans {
		out["span/"+k] = e.Count
	}
	for a := obs.Activity(0); a < obs.NumActivities; a++ {
		out["act/"+a.String()] = s.Activities[a].Count
	}
	var tasks int64
	for _, r := range s.Ranks {
		tasks += int64(r.Tasks)
	}
	out["rank/tasks"] = tasks
	return out
}

// TestProfileTalliesDeterministicAcrossParallelism is the acceptance
// criterion: phase, rule, and activity tallies must be bit-identical at
// every parallelism level.
func TestProfileTalliesDeterministicAcrossParallelism(t *testing.T) {
	base := counts(profiledRun(t, 4, 1))
	if base["rule/JoinRoot"] == 0 || base["act/guard_eval"] == 0 ||
		base["act/cost_price"] == 0 || base["act/plantable_offer"] == 0 {
		t.Fatalf("serial profile missing expected tallies: %v", base)
	}
	for _, par := range []int{2, 4, 8} {
		got := counts(profiledRun(t, 4, par))
		if len(got) != len(base) {
			t.Fatalf("parallelism %d: key sets differ: %v vs %v", par, got, base)
		}
		for k, v := range base {
			if got[k] != v {
				t.Errorf("parallelism %d: %s = %d, want %d", par, k, got[k], v)
			}
		}
	}
}

// TestProfilePhasesCoverElapsed checks the attribution completeness
// property the CI smoke gates harder (95%) on star8: phase self-times are
// contiguous driver windows, so their sum accounts for nearly all of the
// measured wall clock. The test bound is loose to absorb scheduler noise
// on small runs.
func TestProfilePhasesCoverElapsed(t *testing.T) {
	sink := obs.NewMetricsSink()
	sink.EnableProf(obs.ProfOptions{})
	o := New(workload.StarCatalog(5, 100000, 500), Options{Obs: sink, Parallelism: 1})
	start := time.Now()
	if _, err := o.Optimize(workload.StarQuery(5)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start).Nanoseconds()
	snap := talliesOf(sink)
	var sum int64
	for _, e := range snap.Phases {
		sum += e.SelfNS
	}
	if sum > elapsed {
		t.Fatalf("phase self sum %d exceeds elapsed %d", sum, elapsed)
	}
	if float64(sum) < 0.7*float64(elapsed) {
		t.Fatalf("phase self sum %d covers only %.1f%% of elapsed %d",
			sum, 100*float64(sum)/float64(elapsed), elapsed)
	}
	for _, ph := range []string{"prepare", "access", "join-2", "join-5", "root", "finalize"} {
		if snap.Phases[ph].Count != 1 {
			t.Errorf("phase %s count = %d, want 1", ph, snap.Phases[ph].Count)
		}
	}
}

// TestProfileRankTelemetry checks the parallel-path imbalance telemetry:
// every join rank reports its task count and a busy vector sized to the
// workers actually used.
func TestProfileRankTelemetry(t *testing.T) {
	snap := profiledRun(t, 5, 4)
	if len(snap.Ranks) != 5 { // star-5 has 6 quantifiers: join-2 .. join-6
		t.Fatalf("ranks = %d, want 5 (%+v)", len(snap.Ranks), snap.Ranks)
	}
	var sawMultiWorker bool
	for _, r := range snap.Ranks {
		if r.Tasks <= 0 {
			t.Errorf("rank %d: tasks = %d, want > 0", r.Rank, r.Tasks)
		}
		if len(r.BusyNS) != r.Workers {
			t.Errorf("rank %d: busy vector len %d, want workers %d", r.Rank, len(r.BusyNS), r.Workers)
		}
		if r.Workers > 1 {
			sawMultiWorker = true
		}
		var busy int64
		for _, b := range r.BusyNS {
			busy += b
		}
		if r.ExecNS > 0 && busy <= 0 {
			t.Errorf("rank %d: exec window %dns with zero busy time", r.Rank, r.ExecNS)
		}
	}
	if !sawMultiWorker {
		t.Error("no rank used more than one worker at parallelism 4")
	}
}

// TestProfileAllocAttributionSerial cross-checks the per-phase allocation
// attribution against an independent bracket of the same runtime counter
// over the whole serial run.
func TestProfileAllocAttributionSerial(t *testing.T) {
	sink := obs.NewMetricsSink()
	sink.EnableProf(obs.ProfOptions{})
	o := New(workload.StarCatalog(5, 100000, 500), Options{Obs: sink, Parallelism: 1})
	a0 := obs.HeapAllocs()
	if _, err := o.Optimize(workload.StarQuery(5)); err != nil {
		t.Fatal(err)
	}
	total := obs.HeapAllocs() - a0
	snap := talliesOf(sink)
	var sum int64
	for _, e := range snap.Phases {
		sum += e.Allocs
	}
	if sum <= 0 || total <= 0 {
		t.Fatalf("allocs: phase sum %d, bracket %d — want both positive", sum, total)
	}
	ratio := float64(sum) / float64(total)
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("phase alloc sum %d vs bracketed %d (ratio %.2f), want within 15%%", sum, total, ratio)
	}
}

// TestProfileDisabledKeepsHotPathAllocFree re-pins the zero-overhead
// contract from the profiler's angle: with no profiler attached the
// optimizer's behavior and the nil-sink hot path (TestEnumerationHotPathAllocs)
// are untouched, and ProfEnabled stays false end to end.
func TestProfileDisabledKeepsHotPathAllocFree(t *testing.T) {
	sink := obs.NewMetricsSink()
	o := New(workload.StarCatalog(4, 100000, 500), Options{Obs: sink, Parallelism: 1})
	res, err := o.Optimize(workload.StarQuery(4))
	if err != nil {
		t.Fatal(err)
	}
	if sink.ProfEnabled() {
		t.Fatal("profiler attached without EnableProf")
	}
	if res.Obs.Prof() != nil {
		t.Fatal("result sink grew a profiler")
	}
	if len(talliesOf(sink).Phases) != 0 {
		t.Fatal("nil profiler snapshot not empty")
	}
}
