package obs

import (
	"strings"
	"testing"
)

func TestAltCoverageWire(t *testing.T) {
	in := &AltCoverage{
		Rule: "JMeth", Alt: 3,
		Fired: 12, Rejected: 4, Built: 36, Retained: 9, Pruned: 5, Winner: 2,
		PrunedBy: map[string]int64{"JMeth#1": 3, "Glue": 2},
	}
	e := (&Tally{Alt: in}).Event()
	if e.Name != EvAltCoverage || e.A1 != "JMeth" || e.N1 != 3 || e.A2 != "" || e.A3 != "" {
		t.Fatalf("event header: %+v", e)
	}
	if e.Tally.Alt != in || e.Tally.Veneer != nil {
		t.Fatalf("event does not carry the tally itself: %+v", e.Tally)
	}
	w := Wire("r1", e)
	if w.A2 != "fired=12 rejected=4 built=36 retained=9 pruned=5 winner=2" || w.A3 != "Glue:2 JMeth#1:3" {
		t.Errorf("wire payload: a2=%q a3=%q", w.A2, w.A3)
	}
	if w.Name != EvAltCoverage || w.Req != "r1" || w.A1 != "JMeth" || w.N1 != 3 || w.N2 != 0 {
		t.Errorf("wire header: %+v", w)
	}
}

func TestAltCoverageZeroWire(t *testing.T) {
	w := Wire("", (&Tally{Alt: &AltCoverage{Rule: "TableAccess", Alt: 2}}).Event())
	if w.A2 != "fired=0 rejected=0 built=0 retained=0 pruned=0 winner=0" {
		t.Errorf("zero tallies: %q", w.A2)
	}
	if w.A3 != "" {
		t.Errorf("empty dominator map must render empty, got %q", w.A3)
	}
}

func TestAltCoveragePackingIsDeterministic(t *testing.T) {
	e := (&Tally{Alt: &AltCoverage{Rule: "R", Alt: 1,
		PrunedBy: map[string]int64{"b#2": 1, "a#1": 2, "c#3": 3}}}).Event()
	first := Wire("", e)
	for i := 0; i < 20; i++ {
		if w := Wire("", e); w != first {
			t.Fatalf("packing varies: %+v vs %+v", first, w)
		}
	}
	if first.A3 != "a#1:2 b#2:1 c#3:3" {
		t.Errorf("dominators not sorted: %q", first.A3)
	}
}

func TestVeneerCoverageWire(t *testing.T) {
	in := &VeneerCoverage{Op: "SHIP", Injected: 7, Retained: 3, Winner: 1}
	e := (&Tally{Veneer: in}).Event()
	if e.Name != EvVeneerCoverage || e.A1 != "SHIP" || e.Tally.Veneer != in {
		t.Fatalf("event: %+v", e)
	}
	if w := Wire("", e); w.A2 != "injected=7 retained=3 winner=1" || w.A3 != "" {
		t.Errorf("wire payload: a2=%q a3=%q", w.A2, w.A3)
	}
}

// TestCoverageExports: every exporter shows a coverage summary's tallies as
// the packed text, and an event without a tally keeps its own a2/a3.
func TestCoverageExports(t *testing.T) {
	s := NewMetricsSink()
	s.Emit((&Tally{Veneer: &VeneerCoverage{Op: "SORT", Injected: 2}}).Event())
	s.Emit(Event{Name: EvAltRejected, A1: "R", N1: 1, A2: "cond"})
	var nd, ct strings.Builder
	if err := s.WriteNDJSON(&nd); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteChromeTrace(&ct); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nd.String(), `"a2":"injected=2 retained=0 winner=0"`) || !strings.Contains(nd.String(), `"a2":"cond"`) {
		t.Errorf("NDJSON:\n%s", nd.String())
	}
	if !strings.Contains(ct.String(), `"detail":"injected=2 retained=0 winner=0"`) || !strings.Contains(ct.String(), `"detail":"cond"`) {
		t.Errorf("Chrome trace:\n%s", ct.String())
	}
}

func TestTracing(t *testing.T) {
	var nilSink *Sink
	if nilSink.Tracing() || nilSink.KeepsEvents() {
		t.Error("nil sink claims to trace")
	}
	if s := NewSink(); !s.Tracing() || !s.KeepsEvents() {
		t.Error("recording sink denies tracing")
	}
	if s := NewRequestSink("r1"); !s.Tracing() {
		t.Error("request sink denies tracing")
	}
	if s := NewMetricsSink(); s.Tracing() || s.KeepsEvents() {
		t.Error("metrics-only sink claims to trace")
	}
}

func TestFloatGauge(t *testing.T) {
	var nilG *FloatGauge
	nilG.Set(3.5) // must not panic
	if v := nilG.Value(); v != 0 {
		t.Errorf("nil gauge value = %v", v)
	}

	r := NewRegistry()
	g := r.FloatGauge("qerror_p99")
	if g.Value() != 0 {
		t.Errorf("fresh gauge = %v", g.Value())
	}
	g.Set(2.75)
	if g.Value() != 2.75 {
		t.Errorf("after Set: %v", g.Value())
	}
	if r.FloatGauge("qerror_p99") != g {
		t.Error("FloatGauge not idempotent per name")
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, "# TYPE qerror_p99 gauge") || !strings.Contains(text, "qerror_p99 2.75") {
		t.Errorf("exposition missing float gauge:\n%s", text)
	}
}

func TestMergeSkipsFloatGauges(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	b.FloatGauge("coverage_ratio").Set(0.5)
	b.Counter("x_total").Add(2)
	a.Merge(b)
	if v := a.FloatGauge("coverage_ratio").Value(); v != 0 {
		t.Errorf("Merge copied a float gauge: %v", v)
	}
	if v := a.Counter("x_total").Value(); v != 2 {
		t.Errorf("Merge lost a counter: %v", v)
	}
}
