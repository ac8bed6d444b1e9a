package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRequestSinkTagsEvents: every event recorded by a request sink — emit
// path and span path — leaves tagged with the request id, and the tee sees
// exactly the recorded events.
func TestRequestSinkTagsEvents(t *testing.T) {
	s := NewRequestSink("r42")
	if s.Tag() != "r42" {
		t.Fatalf("Tag() = %q, want r42", s.Tag())
	}
	var teed []Event
	s.Tee(func(e Event) { teed = append(teed, e) })

	s.Emit(Event{Name: EvAltFired, A1: "JoinRoot", N1: 1})
	sp := s.StartSpan(EvRule, "JoinRoot", "", 1)
	sp.End(3)

	events := s.Events()
	if len(events) != 3 {
		t.Fatalf("recorded %d events, want 3", len(events))
	}
	var nd bytes.Buffer
	if err := s.WriteNDJSON(&nd); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(nd.String(), `"req":"r42"`); n != 3 {
		t.Errorf("%d of 3 exported lines carry the request id:\n%s", n, nd.String())
	}
	if len(teed) != 3 {
		t.Fatalf("teed %d events, want 3", len(teed))
	}
	for i, e := range teed {
		if e != events[i] {
			t.Errorf("tee event %d = %+v, want %+v", i, e, events[i])
		}
	}
}

// TestTeeSeesMetricsSinkEvents: a non-tracing sink fans out exactly the
// events it materialises — a server's live stream still carries the
// request and summary events of requests that ran without tracing.
func TestTeeSeesMetricsSinkEvents(t *testing.T) {
	s := NewMetricsSink()
	var n int
	s.Tee(func(Event) { n++ })
	s.Emit(Event{Name: EvAltCoverage})
	s.Emit(Event{Name: EvExecFeedback})
	s.StartSpan(EvGlue, "A", "", 0).End(0)
	if len(s.Events()) != 2 || n != 2 {
		t.Errorf("metrics sink kept %d events, tee saw %d, want 2 and 2", len(s.Events()), n)
	}
}

// TestNDJSONCarriesRequestID: the req field round-trips through the NDJSON
// exporter and the single-event encoder agrees with the batch writer.
func TestNDJSONCarriesRequestID(t *testing.T) {
	s := NewRequestSink("req-7")
	s.Emit(Event{Name: EvPlanPrune, A1: "EMP"})

	var batch bytes.Buffer
	if err := s.WriteNDJSON(&batch); err != nil {
		t.Fatal(err)
	}
	var single bytes.Buffer
	if err := EncodeNDJSON(&single, s.Tag(), s.Events()[0]); err != nil {
		t.Fatal(err)
	}
	if batch.String() != single.String() {
		t.Errorf("EncodeNDJSON framing diverges from WriteNDJSON:\n%s\n%s",
			single.String(), batch.String())
	}
	var line map[string]any
	if err := json.Unmarshal(single.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if line["req"] != "req-7" {
		t.Errorf(`req = %v, want "req-7" in %s`, line["req"], single.String())
	}
	// Untagged sinks omit the field entirely.
	u := NewSink()
	u.Emit(Event{Name: EvGlueHit})
	var out bytes.Buffer
	if err := u.WriteNDJSON(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), `"req"`) {
		t.Errorf("untagged event leaked a req field: %s", out.String())
	}
}

// TestDefaultSinkAtomic: installing, reading, and clearing the process-wide
// default sink from many goroutines is race-free (run under -race).
func TestDefaultSinkAtomic(t *testing.T) {
	old := DefaultSink()
	defer SetDefault(old)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				SetDefault(NewMetricsSink())
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				DefaultSink().Emit(Event{Name: EvGlueHit})
			}
		}()
	}
	wg.Wait()
	SetDefault(nil)
	if DefaultSink() != nil {
		t.Error("SetDefault(nil) did not clear the default sink")
	}
}

// TestRegistryMerge: counters add, histograms merge bucket-exactly, gauges
// are left alone, and merging from/into nil is a no-op.
func TestRegistryMerge(t *testing.T) {
	dst := NewRegistry()
	dst.Counter("star_rule_refs_total").Add(5)
	dst.Histogram("opt_elapsed_seconds").Observe(2 * time.Millisecond)
	dst.Gauge("plantable_plans").Set(9)

	src := NewRegistry()
	src.Counter("star_rule_refs_total").Add(3)
	src.Counter("glue_calls_total").Add(7)
	src.Histogram("opt_elapsed_seconds").Observe(4 * time.Millisecond)
	src.Histogram("opt_elapsed_seconds").Observe(8 * time.Second)
	src.Gauge("plantable_plans").Set(100)

	dst.Merge(src)

	if got := dst.Counter("star_rule_refs_total").Value(); got != 8 {
		t.Errorf("merged counter = %d, want 8", got)
	}
	if got := dst.Counter("glue_calls_total").Value(); got != 7 {
		t.Errorf("new counter = %d, want 7", got)
	}
	h := dst.Histogram("opt_elapsed_seconds")
	if h.Count() != 3 {
		t.Errorf("merged histogram count = %d, want 3", h.Count())
	}
	if want := 2*time.Millisecond + 4*time.Millisecond + 8*time.Second; h.Sum() != want {
		t.Errorf("merged histogram sum = %v, want %v", h.Sum(), want)
	}
	if got := dst.Gauge("plantable_plans").Value(); got != 9 {
		t.Errorf("gauge after merge = %d, want 9 (gauges must not merge)", got)
	}
	// Source is untouched; nil endpoints are no-ops.
	if got := src.Counter("star_rule_refs_total").Value(); got != 3 {
		t.Errorf("source counter mutated: %d", got)
	}
	dst.Merge(nil)
	(*Registry)(nil).Merge(src)
}

// TestRegistryMergeWarmAllocatesNothing: once the destination holds every
// series of the source, a fold reads the source where it lies — no copy of
// its series maps — and allocates nothing. A self-merge is a no-op.
func TestRegistryMergeWarmAllocatesNothing(t *testing.T) {
	src, dst := NewRegistry(), NewRegistry()
	for _, name := range []string{"a_total", "b_total", `c_total{alt="1"}`} {
		src.Counter(name).Add(2)
		src.Histogram(name + "_seconds").Observe(time.Millisecond)
	}
	dst.Merge(src)
	if n := testing.AllocsPerRun(100, func() { dst.Merge(src) }); n != 0 {
		t.Errorf("a warm Merge allocates %.0f objects, want 0", n)
	}
	if got := dst.Counter("a_total").Value(); got != 2*102 {
		t.Errorf("counter after 102 merges = %d, want %d", got, 2*102)
	}
	src.Merge(src)
	if got := src.Counter("a_total").Value(); got != 2 {
		t.Errorf("a self-merge changed a counter to %d, want 2", got)
	}
}

// TestRegistryMergeConcurrent: per-request registries folded into one shared
// registry from several goroutines at once, new series among them, lose no
// count while the shared registry is read (run under -race).
func TestRegistryMergeConcurrent(t *testing.T) {
	dst := NewRegistry()
	const workers, each = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				src := NewRegistry()
				src.Counter("req_total").Add(1)
				src.Histogram(fmt.Sprintf("h%d_seconds", i%3)).Observe(time.Millisecond)
				dst.Merge(src)
				_ = dst.Counters()
			}
		}()
	}
	wg.Wait()
	if got := dst.Counter("req_total").Value(); got != workers*each {
		t.Errorf("merged counter = %d, want %d", got, workers*each)
	}
	var n int64
	for i := 0; i < 3; i++ {
		n += dst.Histogram(fmt.Sprintf("h%d_seconds", i)).Count()
	}
	if n != workers*each {
		t.Errorf("merged histogram counts = %d, want %d", n, workers*each)
	}
}

// TestAbsorbFoldsChildIntoParent: Absorb merges the child's registry into the
// parent's and never the reverse — the one direction Registry.Merge's lock
// order allows while other children are absorbed into the same parent.
func TestAbsorbFoldsChildIntoParent(t *testing.T) {
	parent := NewMetricsSink()
	parent.Registry().Counter("parent_total").Add(1)
	child := parent.Child()
	if child.Registry() == parent.Registry() {
		t.Fatal("a child shares its parent's registry")
	}
	child.Registry().Counter("child_total").Add(2)
	parent.Absorb(child)
	if got := parent.Registry().Counters()["child_total"]; got != 2 {
		t.Errorf("parent's child_total = %d, want 2", got)
	}
	if got := child.Registry().Counters(); len(got) != 1 || got["child_total"] != 2 {
		t.Errorf("child's counters after Absorb = %v, want only child_total 2", got)
	}
}
