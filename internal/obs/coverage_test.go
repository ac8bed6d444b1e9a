package obs

import (
	"reflect"
	"strings"
	"testing"
)

func TestAltCoverageRoundTrip(t *testing.T) {
	in := AltCoverage{
		Rule: "JMeth", Alt: 3,
		Fired: 12, Rejected: 4, Built: 36, Retained: 9, Pruned: 5, Winner: 2,
		PrunedBy: map[string]int64{"JMeth#1": 3, "Glue": 2},
	}
	e := in.Event()
	if e.Name != EvAltCoverage || e.A1 != "JMeth" || e.N1 != 3 {
		t.Fatalf("event header: %+v", e)
	}
	out, ok := ParseAltCoverage(e)
	if !ok {
		t.Fatalf("ParseAltCoverage failed on %+v", e)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip:\nin:  %+v\nout: %+v", in, out)
	}
}

func TestAltCoverageZeroRoundTrip(t *testing.T) {
	in := AltCoverage{Rule: "TableAccess", Alt: 2}
	out, ok := ParseAltCoverage(in.Event())
	if !ok || !reflect.DeepEqual(in, out) {
		t.Errorf("zero round trip: ok=%v out=%+v", ok, out)
	}
	if out.PrunedBy != nil {
		t.Errorf("empty dominator map must stay nil, got %v", out.PrunedBy)
	}
}

func TestAltCoveragePackingIsDeterministic(t *testing.T) {
	c := AltCoverage{Rule: "R", Alt: 1,
		PrunedBy: map[string]int64{"b#2": 1, "a#1": 2, "c#3": 3}}
	first := c.Event()
	for i := 0; i < 20; i++ {
		if e := c.Event(); e != first {
			t.Fatalf("packing varies: %+v vs %+v", first, e)
		}
	}
	if !strings.Contains(first.A3, "a#1:2 b#2:1 c#3:3") {
		t.Errorf("dominators not sorted: %q", first.A3)
	}
}

func TestVeneerCoverageRoundTrip(t *testing.T) {
	in := VeneerCoverage{Op: "SHIP", Injected: 7, Retained: 3, Winner: 1}
	e := in.Event()
	if e.Name != EvVeneerCoverage {
		t.Fatalf("event name %q", e.Name)
	}
	out, ok := ParseVeneerCoverage(e)
	if !ok || in != out {
		t.Errorf("round trip: ok=%v out=%+v", ok, out)
	}
}

func TestParseRejectsForeignEvents(t *testing.T) {
	if _, ok := ParseAltCoverage(Event{Name: EvAltFired, A1: "R", N1: 1}); ok {
		t.Error("ParseAltCoverage accepted a non-coverage event")
	}
	if _, ok := ParseVeneerCoverage(Event{Name: EvVeneer, A1: "SHIP"}); ok {
		t.Error("ParseVeneerCoverage accepted a non-coverage event")
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
