// Package obs is the observability layer shared by the optimizer and the
// executor: a concurrency-safe event sink, a hierarchical span tracer, and a
// metrics registry (counters, gauges, fixed-bucket log-scale duration
// histograms), built on the standard library only.
//
// The design constraint is that the *disabled* path must cost nothing: every
// entry point is safe on a nil *Sink (and nil *Registry, *Counter, ...), so
// instrumented code pays only a nil check when observability is off.
// BenchmarkObsOverhead in the repository root verifies the disabled-path
// overhead stays under a few percent.
//
// An enabled sink works at one of two tiers. Every enabled sink (Enabled)
// feeds the metrics registry, the duration histograms, the self-profiler
// and the fixed-size tallies instrumented code keeps; only a tracing sink
// (Tracing) also records the search-step event stream — one record per rule
// reference, alternative, Glue lookup, veneer, plan-table offer and prune —
// whose arguments cost an allocation each to render. Instrumented code
// therefore writes
//
//	if en.Obs.Tracing() {
//		en.Obs.Emit(obs.Event{Name: obs.EvAltFired, ...})
//	}
//
// and a non-tracing sink is left holding only the handful of summary events
// emitted unconditionally (opt.alt.coverage, exec.feedback, ...).
//
// Event taxonomy, metric names, and exporter formats are documented in
// docs/OBSERVABILITY.md.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies an event: a point-in-time instant, or the begin/end pair
// of a span.
type Kind uint8

const (
	// KindInstant is a point event.
	KindInstant Kind = iota
	// KindSpanBegin opens a span; a KindSpanEnd with the same Span id
	// closes it.
	KindSpanBegin
	// KindSpanEnd closes a span.
	KindSpanEnd
)

// String renders the kind for exporters.
func (k Kind) String() string {
	switch k {
	case KindSpanBegin:
		return "begin"
	case KindSpanEnd:
		return "end"
	default:
		return "instant"
	}
}

// Event names — the taxonomy. Span names double as the base of the duration
// histogram the span observes into (dots become underscores, "_seconds" is
// appended): a "star.rule" span feeds star_rule_seconds{name="<rule>"}, a
// "glue.call" span the label-free glue_call_seconds (see spanHist).
const (
	// EvRule spans one STAR reference; A1 is the rule name, A2 the
	// rendered arguments, end N1 the SAP size returned.
	EvRule = "star.rule"
	// EvAltFired marks an alternative whose condition held; A1 rule,
	// N1 1-based alternative index, N2 plans the body produced.
	EvAltFired = "star.alt.fired"
	// EvAltRejected marks an alternative whose condition failed (or an
	// OTHERWISE skipped because an earlier alternative fired); A1 rule,
	// N1 1-based alternative index, A2 the failing condition of
	// applicability in DSL syntax (so WHYNOT can cite it).
	EvAltRejected = "star.alt.rejected"
	// EvGlue spans one Glue reference; A1 is the table-set key, A2 the
	// required properties, end N1 the number of satisfying plans.
	EvGlue = "glue.call"
	// EvGlueHit / EvGlueMiss mark plan-table lookup outcomes inside Glue;
	// A1 is the table-set key.
	EvGlueHit  = "glue.hit"
	EvGlueMiss = "glue.miss"
	// EvGlueSkip reports, once per Glue reference that found plans instead of
	// building them, what it did not build: A1 is the table-set key, N1 the
	// candidates an earlier reference with the same requirement had already
	// veneered (the mark), N2 the candidates whose own cost was already above
	// the cheapest satisfying plan (the bound). When N2 > 0, P1 and F1 are the
	// identity and cost of the cheapest such candidate, P2 and F2 those of the
	// plan it could not beat — the one the reference returned.
	EvGlueSkip = "glue.skip"
	// EvVeneer marks a Glue operator injected over a plan; A1 is the
	// LOLEPOP name (SHIP, SORT, STORE, BUILDINDEX, FILTER, ...), P1 the
	// veneer node's identity, P2 its input plan's, F1 its estimated total
	// cost.
	EvVeneer = "glue.veneer"
	// EvPlanInsert marks a plan-table insertion; A1 table-set key, A2 the
	// predicate key, N1 plans offered, N2 plans retained in the entry
	// afterwards.
	EvPlanInsert = "plantable.insert"
	// EvPlanOffer marks one plan offered to a plan-table entry, before
	// dominance is decided; A1 table-set key, P1 the plan's identity,
	// A3 "origin desc" (the STAR alternative that built it and the
	// operator), F1 estimated total cost, F2 estimated cardinality.
	// Provenance reconstructs pruned plans' identities from these.
	EvPlanOffer = "plantable.offer"
	// EvPlanPrune marks a dominance decision; A1 table-set key, N1 0 when
	// the incoming plan was rejected as dominated, 1 when an existing plan
	// was evicted by the incoming one. P1 is the victim's identity, P2
	// the dominator's, F1 the victim's total cost, F2 the dominator's.
	EvPlanPrune = "plantable.prune"
	// EvPhase spans one optimizer phase; A1 names it ("access", "join-2",
	// ..., "root").
	EvPhase = "opt.phase"
	// EvPair marks one joinable partition handed to the root join STAR;
	// A1 renders "{left}|{right}".
	EvPair = "opt.pair"
	// EvExecRun spans one plan execution; end N1 is the result row count.
	EvExecRun = "exec.run"
	// EvExecOp reports one operator's actuals after a run; A1 describes
	// the node, N1 rows produced, N2 inclusive tuple operations.
	EvExecOp = "exec.op"
	// EvAltCoverage summarizes one STAR alternative's fate at the end of
	// an optimization: A1 is the rule name, N1 the 1-based alternative
	// ordinal, Tally.Alt the typed tallies. One event is emitted per
	// alternative of the active repertoire — including never-exercised
	// ones, so consumers see the whole alternative space. In process the
	// tallies stay numbers; only the exporters (Wire) pack them, as a2
	// "fired=... rejected=... built=... retained=... pruned=... winner=..."
	// and a3 the dominator attribution for pruned plans ("origin:count ...").
	EvAltCoverage = "opt.alt.coverage"
	// EvVeneerCoverage summarizes one Glue veneer operator's fate at the
	// end of an optimization: A1 is the LOLEPOP name, Tally.Veneer the
	// typed tallies, exported as a2 "injected=... retained=... winner=...".
	EvVeneerCoverage = "opt.veneer.coverage"
	// EvExecFeedback closes the estimate-vs-actual loop after an execution
	// with per-operator attribution: A1 is the operator name, P1 the plan
	// node's identity, N1 actual rows (summed over loops), N2 the loop
	// (open) count, F1 the optimizer's estimated cardinality, F2 the
	// resulting Q-error (max(est/act, act/est), both clamped to >= 1).
	EvExecFeedback = "exec.feedback"
)

// Event is one observation. Sequence number and timestamp are assigned by
// the sink; callers fill the rest. The fixed payload slots keep the struct
// flat (no per-event allocations on the emit path). The request an event
// belongs to is its sink's Tag, not a field: it is the same on every event of
// a sink, so exporters stamp it (Wire) instead of every event carrying it.
type Event struct {
	// Seq is the sink-assigned sequence number (1-based).
	Seq int64
	// T is the offset from the sink's start time.
	T time.Duration
	// Kind is instant, span-begin, or span-end.
	Kind Kind
	// Depth is the caller's nesting depth, when meaningful (STAR
	// recursion depth).
	Depth int32
	// Name is the taxonomy name (Ev* constants).
	Name string
	// A1, A2, and A3 are string payloads (rule name, table-set key,
	// rendered arguments, ...).
	A1, A2, A3 string
	// P1 and P2 are plan identities (plan.Node.ID) carried as words, so the
	// emit path renders no hex; the exporters show a nonzero P1 as a2 and a
	// nonzero P2 as a3. An event sets P1 or A2, never both (likewise P2/A3).
	P1, P2 uint64
	// Tally is the typed payload of the two coverage summary events
	// (EvAltCoverage, EvVeneerCoverage), nil on every other event. The
	// exporters render it as a2/a3 (Wire).
	Tally *Tally
	// Span links a begin to its end (sink-assigned id).
	Span int64
	// N1 and N2 are integer payloads (alternative index, plan counts,
	// row counts).
	N1, N2 int64
	// F1 and F2 are float payloads (estimated costs, cardinalities).
	F1, F2 float64
}

// Sink collects events and owns a metrics registry. It is safe for
// concurrent use; the nil sink discards everything at nil-check cost.
type Sink struct {
	mu      sync.Mutex
	start   time.Time
	events  []Event
	seq     int64
	spanSeq atomic.Int64
	tracing bool   // records span and search-step events (see Tracing)
	tag     string // request id of every event recorded here (Tag)
	tees    []func(Event)
	reg     *Registry
	hists   map[histKey]*Histogram // span histograms by (name, label); under mu
	prof    *Prof                  // optional self-profiler (EnableProf); nil costs one check
}

// histKey addresses a span's duration histogram without rendering its name.
type histKey struct{ name, a1 string }

// NewSink returns a tracing sink: it records the full event stream and
// metrics.
func NewSink() *Sink {
	return &Sink{start: time.Now(), reg: NewRegistry(), tracing: true}
}

// NewMetricsSink returns a non-tracing sink: metrics, histograms, profiler
// and tallies, but no span or search-step events, so instrumented code
// renders no arguments for it. Its log holds only the summary events emitted
// unconditionally — O(#alternatives) per optimization.
func NewMetricsSink() *Sink {
	s := NewSink()
	s.tracing = false
	return s
}

// NewRequestSink returns a sink tagged with the request id req — the
// per-request isolation unit of a long-running server: each concurrent
// optimization writes into its own sink, so traces never interleave, and the
// exporters stamp the tag on every event they write (Wire), which keeps
// attribution after streams from many requests are merged.
func NewRequestSink(req string) *Sink {
	s := NewSink()
	s.tag = req
	return s
}

// Reset readies the sink for the next unit of work, tagged tag, as NewSink
// would make it except that it is not tracing: the event log empties but
// keeps its capacity, the registry and the profiler zero their values but
// keep their series and rows, the span histograms stay resolved, and the
// tees, sequence numbers and clock start over. A slice Events returned
// before is overwritten by the next events, so nothing may still read it.
// Must be called before the sink is shared across goroutines. No-op on nil.
func (s *Sink) Reset(tag string) {
	if s == nil {
		return
	}
	clear(s.events)
	s.events = s.events[:0]
	clear(s.tees)
	s.tees = s.tees[:0]
	s.seq = 0
	s.spanSeq.Store(0)
	s.tracing = false
	s.tag = tag
	s.start = time.Now()
	s.reg.Reset()
	s.prof.reset()
}

// SetTracing moves the sink between the two tiers (see Tracing). Must be
// called before the sink is shared across goroutines. No-op on nil.
func (s *Sink) SetTracing(on bool) {
	if s != nil {
		s.tracing = on
	}
}

// Child returns a metrics-only sink for one worker of the parallel join
// enumeration: never tracing, with its own registry and, when s has one, its
// own profiler, which Absorb folds back into s. Events recorded in a child are
// never absorbed. Nil for the nil sink.
func (s *Sink) Child() *Sink {
	if s == nil {
		return nil
	}
	c := &Sink{start: s.start, reg: NewRegistry()}
	if s.prof != nil {
		c.prof = newProf(ProfOptions{Labels: s.prof.labels})
	}
	return c
}

// Absorb merges a child sink's metrics registry and profiler tallies into s.
// Both are sums, so the order children are absorbed in does not matter. The
// child must have finished its work. No-op when either side is nil.
func (s *Sink) Absorb(child *Sink) {
	if s == nil || child == nil {
		return
	}
	s.reg.Merge(child.Registry())
	s.prof.absorb(child.prof)
}

// Tag returns the sink's request id ("" for untagged and nil sinks).
func (s *Sink) Tag() string {
	if s == nil {
		return ""
	}
	return s.tag
}

// Tee registers fn to be called with every event the sink materialises
// (after Seq and T are stamped) — the fan-out hook live event streaming
// subscribes through; a subscriber merging several sinks pairs each event
// with its sink's Tag. fn is
// invoked under the sink's lock so subscribers observe one sink's events in
// order; it must be fast, must not block, and must not call back into the
// sink. Tee must be called before the sink is shared across goroutines.
func (s *Sink) Tee(fn func(Event)) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	s.tees = append(s.tees, fn)
	s.mu.Unlock()
}

// defaultSink is the process-wide fallback sink, swapped atomically: it is
// read on every instrumented emit path (optimizer, executor) and may be
// installed or replaced while those run concurrently (a serving daemon, a
// test), so a plain package variable would be a data race.
var defaultSink atomic.Pointer[Sink]

// DefaultSink returns the fallback sink the optimizer and executor use when
// none is injected explicitly — the process-wide aggregation point
// (prometheus's default-registry idiom). Nil unless a tool opted in via
// SetDefault.
func DefaultSink() *Sink { return defaultSink.Load() }

// SetDefault installs (or, with nil, removes) the process-wide fallback
// sink. Safe to call concurrently with optimizations in flight; they pick
// up the new sink on their next resolution.
func SetDefault(s *Sink) { defaultSink.Store(s) }

// Enabled reports whether the sink records anything: metrics, span
// durations (histograms and the self-profiler) and the tallies instrumented
// code keeps. Spans open behind it; tally increments need no guard at all.
func (s *Sink) Enabled() bool { return s != nil }

// Tracing reports whether the sink records the search-step event stream —
// span begin/end records and the per-step instants (star.alt.*, glue.hit,
// glue.miss, glue.veneer, plantable.*, opt.pair). Instrumented code guards
// those Emit calls, and the rendering of their arguments and of span
// arguments, with it. Work derived from that stream (provenance, the
// rule-firing trace) needs a tracing sink.
func (s *Sink) Tracing() bool { return s != nil && s.tracing }

// KeepsEvents is the older name of Tracing.
func (s *Sink) KeepsEvents() bool { return s.Tracing() }

// Registry returns the sink's metrics registry (nil for the nil sink —
// every Registry method is nil-safe too).
func (s *Sink) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Emit records an instant event. Seq and T are assigned here.
func (s *Sink) Emit(e Event) {
	if s == nil {
		return
	}
	e.Kind = KindInstant
	e.T = time.Since(s.start)
	s.append(e)
}

// append records an event whose Kind and T are filled, under the lock.
func (s *Sink) append(e Event) {
	s.mu.Lock()
	s.seq++
	e.Seq = s.seq
	s.events = append(s.events, e)
	for _, fn := range s.tees {
		fn(e)
	}
	s.mu.Unlock()
}

// Span is an open interval produced by StartSpan. The zero Span (from a nil
// sink) is a no-op.
type Span struct {
	s    *Sink
	id   int64
	name string
	a1   string
	t0   time.Duration
}

// StartSpan opens a span. depth is the caller's nesting depth (0 when not
// meaningful). Ending the span observes its duration into the histogram
// named after the span (see the Ev* docs) and into the self-profiler; the
// begin/end event records — the only use of a2, depth and End's n1 — are
// written by a tracing sink alone.
func (s *Sink) StartSpan(name, a1, a2 string, depth int) Span {
	if s == nil {
		return Span{}
	}
	var id int64
	t := time.Since(s.start)
	if s.tracing {
		id = s.spanSeq.Add(1)
		s.append(Event{Kind: KindSpanBegin, Name: name, A1: a1, A2: a2, Depth: int32(depth), Span: id, T: t})
	}
	s.prof.spanBegin(name, a1, t)
	return Span{s: s, id: id, name: name, a1: a1, t0: t}
}

// End closes the span, recording n1 as the end event's numeric payload and
// observing the duration histogram.
func (sp Span) End(n1 int64) {
	if sp.s == nil {
		return
	}
	t := time.Since(sp.s.start)
	if sp.s.tracing {
		sp.s.append(Event{Kind: KindSpanEnd, Name: sp.name, A1: sp.a1, Span: sp.id, T: t, N1: n1})
	}
	sp.s.spanHist(sp.name, sp.a1).Observe(t - sp.t0)
	sp.s.prof.spanEnd(sp.name, t)
}

// spanHist resolves a span's histogram, rendering its name only on the
// first span of each (name, label) the sink sees. Only span kinds whose a1
// comes from a bounded vocabulary (rule, phase and operator names) are
// labelled by it: a Glue span's a1 is a table-set key of user-chosen aliases,
// and one series per key would grow a serving process's registry forever.
func (s *Sink) spanHist(name, a1 string) *Histogram {
	switch name {
	case EvRule, EvPhase, EvExecRun:
	default:
		a1 = ""
	}
	k := histKey{name, a1}
	s.mu.Lock()
	h := s.hists[k]
	if h == nil {
		if s.hists == nil {
			s.hists = map[histKey]*Histogram{}
		}
		h = s.reg.Histogram(spanHistName(name, a1))
		s.hists[k] = h
	}
	s.mu.Unlock()
	return h
}

// spanHistName derives the histogram name a span observes into:
// "star.rule" + "JoinRoot" -> `star_rule_seconds{name="JoinRoot"}`.
func spanHistName(name, a1 string) string {
	base := make([]byte, 0, len(name)+len(a1)+18)
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '.' {
			c = '_'
		}
		base = append(base, c)
	}
	base = append(base, "_seconds"...)
	if a1 != "" {
		base = append(base, `{name="`...)
		base = append(base, a1...)
		base = append(base, `"}`...)
	}
	return string(base)
}

// Events returns the event log recorded so far as a read-only view, not a
// copy: the log is append-only, so the returned prefix stays as it is while
// the sink goes on recording, and its capacity is clipped so that appending
// to it copies instead of writing into the live log. Callers must not modify
// its elements.
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events[:len(s.events):len(s.events)]
}

// Len returns the number of events the sink has materialised. On a
// non-tracing sink that is the few summary events, not the search steps
// taken.
func (s *Sink) Len() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}
