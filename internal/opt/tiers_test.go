package opt

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"stars/internal/catalog"
	"stars/internal/obs"
	"stars/internal/query"
	"stars/internal/star"
	"stars/internal/workload"
)

// tierWorkload is one query of the tier tests: the coverage corpus plus the
// two enumeration fixtures.
type tierWorkload struct {
	name string
	cat  *catalog.Catalog
	mk   func() *query.Graph
}

func tierWorkloads() []tierWorkload {
	var out []tierWorkload
	for _, e := range workload.Corpus() {
		e := e
		out = append(out, tierWorkload{e.Name, e.Cat, func() *query.Graph { return e.Query }})
	}
	return append(out,
		tierWorkload{"chain8", workload.ChainCatalog(8), func() *query.Graph { return workload.ChainQuery(8) }},
		tierWorkload{"star6", workload.StarCatalog(6, 100000, 1000), func() *query.Graph { return workload.StarQuery(6) }})
}

// isSummary reports whether an event is one every enabled sink keeps.
func isSummary(e obs.Event) bool {
	return e.Name == obs.EvAltCoverage || e.Name == obs.EvVeneerCoverage
}

// stableCounters drops the wall-clock- and heap-derived series from a
// registry's counters; the rest is a pure function of the optimization.
func stableCounters(s *obs.Sink) map[string]int64 {
	out := s.Registry().Counters()
	for name := range out {
		if strings.Contains(name, "_ns_total") || strings.Contains(name, "_allocs_total") {
			delete(out, name)
		}
	}
	return out
}

// TestTiersAgree: an optimization reports the same plan, effort counters,
// metrics, coverage summary and profile phases whether its sink traces the
// search or not — and the non-tracing sink materialises the summary alone.
func TestTiersAgree(t *testing.T) {
	for _, w := range tierWorkloads() {
		for _, par := range []int{1, 4} {
			run := func(sink *obs.Sink) (*Result, []string) {
				sink.EnableProf(obs.ProfOptions{})
				res, err := New(w.cat, Options{Obs: sink, Parallelism: par}).Optimize(w.mk())
				if err != nil {
					t.Fatalf("%s par=%d: %v", w.name, par, err)
				}
				var phases []string
				for ph := range talliesOf(sink).Phases {
					phases = append(phases, ph)
				}
				sort.Strings(phases)
				return res, phases
			}
			tracing, quiet := obs.NewSink(), obs.NewMetricsSink()
			tres, tphases := run(tracing)
			qres, qphases := run(quiet)

			if a, b := tres.Best.Fingerprint(), qres.Best.Fingerprint(); a != b {
				t.Errorf("%s par=%d: best plan %s traced, %s untraced", w.name, par, a, b)
			}
			if a, b := counters(tres), counters(qres); !reflect.DeepEqual(a, b) {
				t.Errorf("%s par=%d: stats diverge\ntraced:   %+v\nuntraced: %+v", w.name, par, a, b)
			}
			if a, b := stableCounters(tracing), stableCounters(quiet); !reflect.DeepEqual(a, b) {
				t.Errorf("%s par=%d: metrics diverge\ntraced:   %v\nuntraced: %v", w.name, par, a, b)
			}
			if !reflect.DeepEqual(tphases, qphases) {
				t.Errorf("%s par=%d: profile phases %v traced, %v untraced", w.name, par, tphases, qphases)
			}
			var tsum, qsum []obs.Event
			for _, e := range tracing.Events() {
				if isSummary(e) {
					e.Seq, e.T = 0, 0
					tsum = append(tsum, e)
				}
			}
			for _, e := range quiet.Events() {
				if !isSummary(e) {
					t.Fatalf("%s par=%d: untraced sink materialised %s", w.name, par, e.Name)
				}
				e.Seq, e.T = 0, 0
				qsum = append(qsum, e)
			}
			if len(tsum) == 0 || !reflect.DeepEqual(tsum, qsum) {
				t.Errorf("%s par=%d: coverage summary diverges\ntraced:   %+v\nuntraced: %+v", w.name, par, tsum, qsum)
			}
			if quiet.Len() != int64(len(qsum)) {
				t.Errorf("%s par=%d: untraced Len %d, materialised %d", w.name, par, quiet.Len(), len(qsum))
			}
		}
	}
}

// TestTeeSeesEveryChildEvent: rank tasks report into their worker's sink —
// the request's own on a tracing run — and a tee on the request's sink sees
// exactly its log, every task's events included, in order, at either tier
// and any parallelism.
func TestTeeSeesEveryChildEvent(t *testing.T) {
	cat := workload.StarCatalog(5, 100000, 500)
	var serial int64
	for _, par := range []int{1, 4} {
		for _, sink := range []*obs.Sink{obs.NewSink(), obs.NewMetricsSink()} {
			var teed []int64
			sink.Tee(func(e obs.Event) { teed = append(teed, e.Seq) })
			if _, err := New(cat, Options{Obs: sink, Parallelism: par}).Optimize(workload.StarQuery(5)); err != nil {
				t.Fatal(err)
			}
			events := sink.Events()
			if int64(len(teed)) != sink.Len() || len(teed) != len(events) {
				t.Fatalf("par=%d tracing=%v: tee saw %d events, Len %d, log %d", par, sink.Tracing(), len(teed), sink.Len(), len(events))
			}
			for i, seq := range teed {
				if seq != int64(i+1) || events[i].Seq != seq {
					t.Fatalf("par=%d tracing=%v: tee event %d has seq %d", par, sink.Tracing(), i, seq)
				}
			}
			if !sink.Tracing() {
				continue
			}
			pairs := 0
			for _, e := range events {
				if e.Name == obs.EvPair {
					pairs++
				}
			}
			if pairs == 0 {
				t.Errorf("par=%d: no subset-task event reached the tracing sink", par)
			}
			if par == 1 {
				serial = sink.Len()
			} else if sink.Len() != serial {
				t.Errorf("tracing Len %d at parallelism %d, %d serially", sink.Len(), par, serial)
			}
		}
	}
}

// TestBuiltinRulesParsedOnce: optimizations without Options.Rules share one
// parsed repertoire (run with -race), while star.DefaultRules keeps handing
// out private copies.
func TestBuiltinRulesParsedOnce(t *testing.T) {
	const workers = 8
	engines := make([]*star.Engine, workers)
	fps := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sink := obs.NewMetricsSink()
			res, err := New(workload.EmpDept(), Options{Obs: sink, Parallelism: 2}).Optimize(workload.Figure1Query())
			if err != nil {
				t.Error(err)
				return
			}
			engines[w], fps[w] = res.Engine, res.Best.Fingerprint()
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 1; w < workers; w++ {
		if engines[w].Rules != engines[0].Rules {
			t.Fatalf("optimization %d parsed its own built-in rule set", w)
		}
		if fps[w] != fps[0] {
			t.Errorf("optimization %d chose %s, optimization 0 chose %s", w, fps[w], fps[0])
		}
	}
	if star.DefaultRules() == engines[0].Rules {
		t.Error("star.DefaultRules handed out the shared rule set")
	}
}
