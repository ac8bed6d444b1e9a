package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestNilSinkIsSafeAndFree(t *testing.T) {
	var s *Sink
	if s.Enabled() {
		t.Fatal("nil sink reports enabled")
	}
	// Every entry point must tolerate the nil receiver.
	s.Emit(Event{Name: EvAltFired, A1: "R", N1: 1})
	sp := s.StartSpan(EvRule, "R", "args", 3)
	sp.End(7)
	if got := s.Events(); got != nil {
		t.Fatalf("nil sink recorded %v", got)
	}
	if err := s.WriteNDJSON(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct map[string]any
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("nil-sink chrome trace is not JSON: %v", err)
	}
	s.Registry().Counter("x").Add(1)
	s.Registry().Histogram("y").Observe(time.Millisecond)
	s.Registry().Gauge("z").Set(9)
	s.Reset("r1")

	// The disabled fast path must not allocate — including the enriched
	// provenance payloads (victim/dominator fingerprints and costs ride in
	// the Event's flat value fields).
	allocs := testing.AllocsPerRun(100, func() {
		s.Emit(Event{Name: EvAltFired, A1: "R", N1: 1, N2: 2})
		s.Emit(Event{Name: EvPlanPrune, A1: "DEPT,EMP", P1: 0xc02d0ccb80ef20c4,
			P2: 0x32dd2088733d3006, N1: 1, F1: 111.7, F2: 2.0})
		s.Emit(Event{Name: EvPlanOffer, A1: "DEPT,EMP", P1: 0xc02d0ccb80ef20c4,
			A3: "JMeth#1 JOIN(NL)", F1: 111.7, F2: 111})
		sp := s.StartSpan(EvRule, "R", "", 1)
		sp.End(0)
	})
	if allocs != 0 {
		t.Fatalf("nil-sink emit allocates %.1f objects/op, want 0", allocs)
	}
}

// TestEventsIsAStableView: Events returns the log's prefix uncopied, so what
// a reader holds must not move under it — later emits (enough of them to
// regrow the log) leave an earlier view as it was, and appending to a view
// never lands in the live log.
func TestEventsIsAStableView(t *testing.T) {
	s := NewSink()
	for i := 0; i < 3; i++ {
		s.Emit(Event{Name: EvAltFired, N1: int64(i)})
	}
	view := s.Events()
	if len(view) != 3 || cap(view) != 3 {
		t.Fatalf("view has len %d cap %d, want 3 and 3 (capacity clipped)", len(view), cap(view))
	}
	_ = append(view, Event{Name: "a caller's own"})
	for i := 3; i < 100; i++ {
		s.Emit(Event{Name: EvAltFired, N1: int64(i)})
	}
	for i, e := range view {
		if e.Name != EvAltFired || e.N1 != int64(i) || e.Seq != int64(i+1) {
			t.Errorf("view[%d] changed under later emits: %+v", i, e)
		}
	}
	if all := s.Events(); len(all) != 100 || all[3].Name != EvAltFired || all[3].N1 != 3 {
		t.Errorf("appending to a view wrote into the live log: len %d, [3] = %+v", len(all), all[3])
	}
}

func TestSinkRecordsEventsAndSpans(t *testing.T) {
	s := NewSink()
	sp := s.StartSpan(EvRule, "JoinRoot", "T1, T2", 1)
	s.Emit(Event{Name: EvAltFired, A1: "JoinRoot", Depth: 2, N1: 1, N2: 3})
	s.Emit(Event{Name: EvAltRejected, A1: "JoinRoot", Depth: 2, N1: 2})
	sp.End(3)

	events := s.Events()
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	if events[0].Kind != KindSpanBegin || events[0].A1 != "JoinRoot" || events[0].Depth != 1 {
		t.Errorf("begin event = %+v", events[0])
	}
	if events[3].Kind != KindSpanEnd || events[3].Span != events[0].Span || events[3].N1 != 3 {
		t.Errorf("end event = %+v", events[3])
	}
	for i, e := range events {
		if e.Seq != int64(i+1) {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
	// The span observed its duration histogram.
	h := s.Registry().Histogram(`star_rule_seconds{name="JoinRoot"}`)
	if h.Count() != 1 {
		t.Errorf("span histogram count = %d, want 1", h.Count())
	}
}

func TestMetricsConcurrent(t *testing.T) {
	s := NewSink()
	reg := s.Registry()
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				reg.Counter("c_total").Add(1)
				reg.Gauge("g").Add(1)
				reg.Histogram("h_seconds").Observe(time.Duration(i) * time.Microsecond)
				s.Emit(Event{Name: EvPair, N1: int64(i)})
				sp := s.StartSpan(EvGlue, "T", "", 0)
				sp.End(1)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c_total").Value(); got != workers*each {
		t.Errorf("counter = %d, want %d", got, workers*each)
	}
	if got := reg.Gauge("g").Value(); got != workers*each {
		t.Errorf("gauge = %d, want %d", got, workers*each)
	}
	if got := reg.Histogram("h_seconds").Count(); got != workers*each {
		t.Errorf("histogram count = %d, want %d", got, workers*each)
	}
	if got := s.Len(); got != workers*each*3 {
		t.Errorf("event count = %d, want %d", got, workers*each*3)
	}
}

// TestMetricsSinkTier pins the non-tracing tier: spans leave no event record
// but still feed their histogram, an unconditional Emit is materialised, and
// Len counts exactly what was.
func TestMetricsSinkTier(t *testing.T) {
	s := NewMetricsSink()
	if !s.Enabled() || s.Tracing() {
		t.Fatalf("metrics sink: Enabled %v Tracing %v, want true false", s.Enabled(), s.Tracing())
	}
	s.Emit(Event{Name: EvAltCoverage})
	for i := 0; i < 3; i++ {
		sp := s.StartSpan(EvPhase, "access", "rendered", 0)
		sp.End(0)
	}
	if got := s.Events(); len(got) != 1 || got[0].Name != EvAltCoverage || s.Len() != 1 {
		t.Fatalf("metrics sink materialised %d events (Len %d): %+v", len(got), s.Len(), got)
	}
	if h := s.Registry().Histogram(`opt_phase_seconds{name="access"}`); h.Count() != 3 {
		t.Errorf("span histogram count = %d, want 3", h.Count())
	}
	s.SetTracing(true)
	s.StartSpan(EvPhase, "root", "", 0).End(0)
	if s.Len() != 3 {
		t.Errorf("after SetTracing(true) Len = %d, want 3", s.Len())
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},         // 1024µs -> 2^10
		{time.Second, 20},              // ~1.05M µs -> 2^20
		{2 * time.Minute, histBuckets}, // past the last bound -> +Inf
	}
	for _, c := range cases {
		if got := bucketFor(c.d); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	s := NewSink()
	reg := s.Registry()
	reg.Counter("star_rule_refs_total").Add(42)
	reg.Gauge("plantable_plans").Set(17)
	reg.Histogram(`star_rule_seconds{name="AccessRoot"}`).Observe(3 * time.Microsecond)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE star_rule_refs_total counter",
		"star_rule_refs_total 42",
		"# TYPE plantable_plans gauge",
		"plantable_plans 17",
		"# TYPE star_rule_seconds histogram",
		`star_rule_seconds_bucket{name="AccessRoot",le="+Inf"} 1`,
		`star_rule_seconds_count{name="AccessRoot"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	// Buckets must be cumulative and end at the total count.
	if !strings.Contains(text, `star_rule_seconds_bucket{name="AccessRoot",le="4e-06"} 1`) {
		t.Errorf("expected the 4µs bucket to contain the 3µs observation:\n%s", text)
	}
}

func TestExportersProduceValidJSON(t *testing.T) {
	s := NewSink()
	sp := s.StartSpan(EvPhase, "access", "", 0)
	s.Emit(Event{Name: EvVeneer, A1: "SORT", N1: 1})
	sp.End(2)

	var nd bytes.Buffer
	if err := s.WriteNDJSON(&nd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(nd.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("ndjson has %d lines, want 3", len(lines))
	}
	for _, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("ndjson line %q: %v", line, err)
		}
	}

	var ct bytes.Buffer
	if err := s.WriteChromeTrace(&ct); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(ct.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	if len(trace.TraceEvents) != 3 {
		t.Fatalf("chrome trace has %d events, want 3", len(trace.TraceEvents))
	}
	phases := map[string]int{}
	for _, e := range trace.TraceEvents {
		phases[e["ph"].(string)]++
	}
	if phases["B"] != 1 || phases["E"] != 1 || phases["i"] != 1 {
		t.Errorf("phases = %v, want one each of B/E/i", phases)
	}
}

// TestExportersRoundTripProvenancePayload pins the wire contract of the identity words:
// an event carrying plan identities in P1/P2 exports, through both exporters,
// the very bytes an event carrying the 16-hex fingerprints as A2/A3 strings
// does, alongside the other provenance fields (A3, F1, F2).
func TestExportersRoundTripProvenancePayload(t *testing.T) {
	export := func(e Event) (ndjson, chrome string) {
		s := NewRequestSink("r1")
		s.append(e) // like Emit, but leaves the clock field alone
		var nd, ct bytes.Buffer
		if err := s.WriteNDJSON(&nd); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteChromeTrace(&ct); err != nil {
			t.Fatal(err)
		}
		return nd.String(), ct.String()
	}
	const victim, dominator = 0xc02d0ccb80ef20c4, 0x00dd2088733d3006 // leading zeros must survive
	wordsND, wordsCT := export(Event{Name: EvPlanPrune, A1: "DEPT,EMP", P1: victim, P2: dominator, N1: 1, F1: 111.7, F2: 2.5})
	textND, textCT := export(Event{Name: EvPlanPrune, A1: "DEPT,EMP", A2: fmt.Sprintf("%016x", uint64(victim)),
		A3: fmt.Sprintf("%016x", uint64(dominator)), N1: 1, F1: 111.7, F2: 2.5})
	if wordsND != textND || wordsCT != textCT {
		t.Errorf("P1/P2 export differs from the A2/A3 strings:\n%s%s%s%s", wordsND, textND, wordsCT, textCT)
	}
	for _, want := range []string{`"req":"r1"`, `"a2":"c02d0ccb80ef20c4"`, `"a3":"00dd2088733d3006"`, `"f1":111.7`, `"f2":2.5`} {
		if !strings.Contains(wordsND, want) {
			t.Errorf("ndjson line lacks %s: %s", want, wordsND)
		}
	}
	for _, want := range []string{`"req":"r1"`, `"detail":"c02d0ccb80ef20c4"`, `"detail2":"00dd2088733d3006"`, `"f1":111.7`} {
		if !strings.Contains(wordsCT, want) {
			t.Errorf("chrome trace lacks %s: %s", want, wordsCT)
		}
	}
	// A zero word is "no identity" and is never rendered.
	if w := Wire("", Event{Name: EvVeneer, A1: "SORT"}); w.A2 != "" || w.A3 != "" {
		t.Errorf("zero identity words rendered: %+v", w)
	}
}

// TestEventSize pins what carrying identities as words cost: nothing. The
// two words took the place of the per-event request id (now the sink's), so
// an event is as big as it was — and every traced search step appends one.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 152 {
		t.Errorf("obs.Event is %d bytes, want <= 152", n)
	}
}

// TestChildAbsorb pins the worker-sink fold the parallel enumeration uses: a
// child of any sink is metrics-only — its spans leave no record — and Absorb
// merges its registry and profiler into the parent without touching the
// parent's log or tees.
func TestChildAbsorb(t *testing.T) {
	for _, parent := range []*Sink{NewSink(), NewMetricsSink()} {
		parent.EnableProf(ProfOptions{})
		var teed int
		parent.Tee(func(Event) { teed++ })
		c := parent.Child()
		if !c.Enabled() || c.Tracing() || c.Prof() == nil {
			t.Fatalf("child: enabled %v, tracing %v, profiler %v; want a metrics-only sink with a profiler", c.Enabled(), c.Tracing(), c.Prof() != nil)
		}
		sp := c.StartSpan(EvRule, "JoinRoot", "", 1)
		c.ProfActivity(ActGuard, time.Microsecond, 2)
		sp.End(3)
		c.Registry().Counter("worker_total").Add(2)
		if c.Len() != 0 {
			t.Fatalf("child kept %d events", c.Len())
		}
		before := parent.Len()
		parent.Absorb(c)
		if parent.Len() != before || teed != 0 {
			t.Fatalf("tracing=%v: Absorb added %d events, tee saw %d; want none", parent.Tracing(), parent.Len()-before, teed)
		}
		if got := parent.Registry().Counters()["worker_total"]; got != 2 {
			t.Fatalf("tracing=%v: merged counter = %d", parent.Tracing(), got)
		}
		var b strings.Builder
		parent.Registry().WritePrometheus(&b)
		if !strings.Contains(b.String(), `star_rule_seconds_count{name="JoinRoot"} 1`) {
			t.Fatalf("tracing=%v: the child's span histogram did not merge:\n%s", parent.Tracing(), b.String())
		}
		snap := talliesOf(parent.Prof())
		if snap.Rules["JoinRoot"].Count != 1 || snap.Activities[ActGuard].Count != 2 {
			t.Fatalf("tracing=%v: merged profile %+v, guard %+v", parent.Tracing(), snap.Rules["JoinRoot"], snap.Activities[ActGuard])
		}
	}
	// Nil child and nil parent are no-ops.
	parent := NewSink()
	parent.Absorb(nil)
	var nilSink *Sink
	if c := nilSink.Child(); c != nil {
		t.Fatal("nil sink's child must be nil")
	}
	nilSink.Absorb(parent)
}
