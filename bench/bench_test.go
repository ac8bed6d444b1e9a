package main

import (
	"bytes"
	"math"
	"regexp"
	"sort"
	"testing"
	"time"
)

func listBytes(list []request) []byte {
	var b bytes.Buffer
	for _, r := range list {
		b.WriteString(r.sql)
		b.WriteByte('\n')
		b.Write(r.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestGenerateIsSeeded(t *testing.T) {
	cat := buildCatalog()
	for _, w := range workloads {
		a, again, other := generate(w, cat, 7), generate(w, cat, 7), generate(w, cat, 8)
		if !bytes.Equal(listBytes(a), listBytes(again)) {
			t.Errorf("%s: the same seed gave two different lists", w)
		}
		if bytes.Equal(listBytes(a), listBytes(other)) {
			t.Errorf("%s: two seeds gave the same list", w)
		}
	}
}

// plan_cost_geomean is comparable across seeds only if every seed's quality
// prefix holds the same templates.
func TestQualityPrefixIsTheSameTemplateSet(t *testing.T) {
	cat := buildCatalog()
	for _, w := range workloads {
		var sets [2][]string
		for i, seed := range []int64{1, 2} {
			list := generate(w, cat, seed)
			if quality(w) > len(list) {
				t.Fatalf("%s: quality prefix %d exceeds the list's %d", w, quality(w), len(list))
			}
			for _, r := range list[:quality(w)] {
				sets[i] = append(sets[i], r.tmpl.class+"|"+r.tmpl.head+"?"+r.tmpl.tail)
			}
			sort.Strings(sets[i])
		}
		for i := range sets[0] {
			if sets[0][i] != sets[1][i] {
				t.Errorf("%s: seeds 1 and 2 differ in the prefix: %q vs %q", w, sets[0][i], sets[1][i])
				break
			}
			if i > 0 && sets[0][i] == sets[0][i-1] && w != "serve_explain" {
				t.Errorf("%s: template %q twice in the prefix", w, sets[0][i])
			}
		}
	}
}

func TestTracedSamplesLieInsideTheList(t *testing.T) {
	cat := buildCatalog()
	for _, w := range workloads {
		list := generate(w, cat, 1)
		for _, idx := range append(samples(w), warmup(w, list)...) {
			if idx < 0 || idx >= len(list) {
				t.Errorf("%s: position %d outside the list of %d", w, idx, len(list))
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{10: 50, 39: 50, 40: 75, 68: 75, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99, 9999: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 91: 10, 100: 10, 1: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing is not 0")
	}
}

// The quartiles are those of Python's statistics.quantiles(values, n=4).
func TestSpreadOf(t *testing.T) {
	med, spread := spreadOf([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if med != 5.5 || math.Abs(spread-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spreadOf(1..10) = %g, %g; want 5.5, 1", med, spread)
	}
	if _, spread := spreadOf([]float64{3}); spread != 0 {
		t.Errorf("one value has spread %g", spread)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "b", Parent: 0, Start: 20 * ms, End: 50 * ms}, // overlaps a: counted once
		{Name: "c", Parent: 0, Start: 60 * ms, End: 70 * ms},
		{Name: "c1", Parent: 3, Start: 62 * ms, End: 65 * ms},
		{Name: "late", Parent: 0, Start: 95 * ms, End: 120 * ms}, // clipped to the parent
	}
	want := []time.Duration{100*ms - 40*ms - 10*ms - 5*ms, 20 * ms, 30 * ms, 7 * ms, 3 * ms, 25 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i])
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := boundedMetric{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		m    boundedMetric
		a, b []float64
		want string
	}{
		{lower, steady, []float64{120, 121, 119}, "REGRESSION"},
		{lower, steady, []float64{80, 81, 79}, "improved"},
		{lower, steady, []float64{100.2, 100.1, 100.3}, "unchanged"},
		{lower, []float64{80, 100, 120, 90, 110}, []float64{101, 102, 103}, "unresolved"},
		{higher, steady, []float64{80, 81, 79}, "REGRESSION"},
		{higher, steady, []float64{120, 121, 119}, "improved"},
	} {
		if _, _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

// The names the command prints and the names BENCHMARK.json declares are the
// same, with the same units, and all of them are plain.
func TestNamesMatchTheDeclaration(t *testing.T) {
	decl, err := readDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	plain := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	if !equalSets(declared, workloads) {
		t.Errorf("workloads: declared %v, run %v", declared, workloads)
	}
	for _, w := range workloads {
		if !plain.MatchString(w) {
			t.Errorf("workload name %q", w)
		}
	}
	for _, c := range []struct {
		what     string
		declared []boundedMetric
		printed  []metricDef
	}{{"end_to_end", decl.EndToEnd, endToEndMetrics}, {"per_layer", decl.PerLayer, perLayerMetrics}} {
		var a, b []string
		for _, m := range c.declared {
			a = append(a, m.Name+" "+m.Unit)
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better %q", c.what, m.Name, m.Better)
			}
		}
		for _, m := range c.printed {
			b = append(b, m.name+" "+m.unit)
			if !plain.MatchString(m.name) {
				t.Errorf("metric name %q", m.name)
			}
		}
		if !equalSets(a, b) {
			t.Errorf("%s: declared %v\nprinted %v", c.what, a, b)
		}
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] == a[i-1]) {
			return false
		}
	}
	return true
}

// A short closed loop through a real daemon with two clients, and the checks
// on what it served: the part of the benchmark that shares state between
// goroutines.
func TestClosedLoopSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a daemon")
	}
	cat := buildCatalog()
	list := generate("serve_explain", cat, 3)
	d, err := startDaemon(cat)
	if err != nil {
		t.Fatal(err)
	}
	tg := &target{cat: cat, d: d}
	var positions []int
	for i := 0; i < 3*len(explainMix); i++ {
		positions = append(positions, i)
	}
	ops := drive(tg, list, positions)
	if err := tg.stop(); err != nil {
		t.Fatal(err)
	}
	if len(ops) != len(positions) {
		t.Fatalf("%d ops for %d positions", len(ops), len(positions))
	}
	res := &result{Workload: "serve_explain", values: map[string]float64{}}
	for i, o := range ops {
		if o.idx != positions[i] || o.err != nil || o.lat <= 0 {
			t.Errorf("op %d: %+v", i, o)
		}
	}
	check(res, "serve_explain", cat, list, ops, 3)
	if res.Failed != 1 { // only the quality prefix is not covered by so short a run
		t.Errorf("%d checks failed, want only the quality-prefix one", res.Failed)
	}
}
