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

// recordRun drives one request's worth of telemetry into s: a phase with a
// rule and a Glue span inside, a summary event, counters, a parse phase and
// a rank, then publishes the profiler's series into s's registry.
func recordRun(s *Sink, rule string, refs int) {
	s.ProfPhase("parse", time.Microsecond, 3)
	ph := s.StartSpan(EvPhase, "join-2", "", 0)
	for range refs {
		sp := s.StartSpan(EvRule, rule, "", 1)
		s.StartSpan(EvGlue, "{A,B}", "", 2).End(1)
		sp.End(1)
		s.Registry().Counter("star_rule_refs_total").Add(1)
	}
	ph.End(0)
	s.Emit(Event{Name: EvAltCoverage, A1: rule, N1: 1})
	s.ProfRank(Rank{Rank: 2, Tasks: refs, Workers: 1, BusyNS: []int64{5}})
	s.Prof().PublishMetrics(s.Registry())
}

// TestSinkResetForgetsTheLastRun: a reset sink shows nothing of its previous
// run (events, tag, tees, tracing, counter values, histogram counts, profile
// rows), and a run recorded on it reads as the same run on a new sink does.
// A warm reset and rerun allocates nothing.
func TestSinkResetForgetsTheLastRun(t *testing.T) {
	old := NewRequestSink("r1")
	old.EnableProf(ProfOptions{})
	teed := 0
	old.Tee(func(Event) { teed++ })
	recordRun(old, "OldRule", 5)
	old.Registry().Counter("only_in_r1_total").Add(7)

	old.Reset("r2")
	if old.Tag() != "r2" || old.Tracing() || old.Len() != 0 || len(old.Events()) != 0 {
		t.Fatalf("reset sink: tag %q tracing %v len %d events %d", old.Tag(), old.Tracing(), old.Len(), len(old.Events()))
	}
	if c := old.Registry().Counters(); len(c) != 0 {
		t.Fatalf("reset registry still lists counters: %v", c)
	}
	if h := old.Registry().Histogram(`star_rule_seconds{name="OldRule"}`); h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("reset histogram holds %d observations", h.Count())
	}
	if p := old.Prof().Profile(); len(p.Phases)+len(p.Rules)+len(p.Spans)+len(p.Ranks) != 0 || p.Activities[ActGuard].Count != 0 {
		t.Fatalf("reset profile keeps rows: %+v", p)
	}
	teedBefore := teed
	old.SetTracing(true)
	fresh := NewRequestSink("r2")
	fresh.EnableProf(ProfOptions{})
	for _, s := range []*Sink{old, fresh} {
		recordRun(s, "NewRule", 3)
	}
	if teed != teedBefore {
		t.Fatalf("a tee of the previous run saw %d events of the next", teed-teedBefore)
	}

	if a, b := old.Registry().Counters(), fresh.Registry().Counters(); !sameDeterministic(a, b) {
		t.Fatalf("recycled counters %v, new sink's %v", a, b)
	}
	ev := func(s *Sink) (out []string) {
		for _, e := range s.Events() {
			out = append(out, fmt.Sprintf("%d %s %s %s %d", e.Seq, e.Kind, e.Name, e.A1, e.Span))
		}
		return out
	}
	if a, b := ev(old), ev(fresh); strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("recycled events:\n%s\nnew sink's:\n%s", strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
	rows := func(s *Sink) string {
		p := s.Prof().Profile()
		var b strings.Builder
		for _, r := range p.Phases {
			fmt.Fprintf(&b, "phase %s %d;", r.Phase, r.Count)
		}
		for _, r := range append(p.Rules, p.Spans...) {
			fmt.Fprintf(&b, "%s %d %d;", r.Name, r.Count, r.Allocs)
		}
		for _, r := range p.Ranks {
			fmt.Fprintf(&b, "rank %d %d;", r.Rank, r.Tasks)
		}
		return b.String()
	}
	if a, b := rows(old), rows(fresh); a != b {
		t.Fatalf("recycled profile %s, new sink's %s", a, b)
	}

	if n := testing.AllocsPerRun(20, func() {
		old.Reset("r3")
		recordRun(old, "NewRule", 3)
	}); n != 0 {
		t.Fatalf("a warm reset and rerun allocates %.0f times, want 0", n)
	}
}

// sameDeterministic compares two counter snapshots by name, and by value
// except for the series that read a clock or the allocation counter.
func sameDeterministic(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for name, v := range a {
		w, ok := b[name]
		if !ok {
			return false
		}
		if !strings.Contains(name, "_ns_") && !strings.Contains(name, "allocs") && v != w {
			return false
		}
	}
	return true
}
