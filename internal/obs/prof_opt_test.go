package obs_test

import (
	"testing"

	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/workload"
)

// TestProfReadsAllocCounterPerPhase gives a tier-0 optimization of chain5 a
// counting allocation counter: it is read twice per phase span, however
// many rule references the search makes, and the phases still carry
// positive allocation counts.
func TestProfReadsAllocCounterPerPhase(t *testing.T) {
	run := func(o opt.Options) (reads, phases, refs int64) {
		sink := obs.NewMetricsSink()
		p := sink.EnableProf(obs.ProfOptions{})
		obs.SetProfAllocFn(p, func() int64 { reads++; return 10 * reads })
		o.Obs, o.Parallelism = sink, 1
		res, err := opt.New(workload.ChainCatalog(5), o).Optimize(workload.ChainQuery(5))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Release()
		for _, ph := range p.Profile().Phases {
			phases += ph.Count
			if ph.Allocs <= 0 {
				t.Errorf("phase %s: allocs %d, want > 0", ph.Phase, ph.Allocs)
			}
		}
		for _, r := range p.Profile().Rules {
			if r.Allocs != 0 {
				t.Errorf("rule %s: allocs %d, want 0 (not attributed)", r.Name, r.Allocs)
			}
		}
		return reads, phases, res.Stats.Star.RuleRefs
	}
	reads, phases, refs := run(opt.Options{})
	readsX, phasesX, refsX := run(opt.Options{CartesianProducts: true})
	if refsX <= refs {
		t.Fatalf("cartesian products made %d rule references against %d: the runs do not differ", refsX, refs)
	}
	if phases != phasesX || reads != 2*phases || readsX != reads {
		t.Fatalf("counter reads %d and %d for %d and %d rule references over %d and %d phase spans; want 2 per phase span",
			reads, readsX, refs, refsX, phases, phasesX)
	}
}
