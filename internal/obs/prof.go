// Self-profiling accumulators: the collection half of the optimizer's
// profiler (the analysis/report half is internal/prof).
//
// A Prof rides on a Sink (EnableProf) and turns the span stream the
// instrumented code already emits — phase spans, per-STAR rule spans, Glue
// calls — into per-key tallies: invocation counts, self-time (span time
// minus time spent in nested spans), total time, and allocation counts read
// from the runtime's heap-allocation counter at span boundaries. Hot
// micro-operations that are too frequent to be spans (guard evaluations,
// cost pricing, plan-table offers) report through ProfActivity, and the
// rank-parallel enumeration reports per-rank worker telemetry through
// ProfRank.
//
// The lifecycle mirrors the sink's: a worker's Child sink gets its own empty
// Prof, and Absorb folds its tallies back into the parent, so the merged
// counts are exact and deterministic at every parallelism level. The
// disabled path stays free: a sink without a profiler pays one nil check
// per span, and the nil sink pays nothing.
//
// Determinism contract: the Count fields (spans per phase, references per
// rule, activity operation counts) are a pure function of the optimization
// and are bit-identical across Parallelism levels. Durations are wall-clock
// and vary run to run; allocation attribution is exact for serial runs and
// phase-accurate (but cross-worker-noisy at rule granularity) for parallel
// runs, because the runtime exposes only a process-wide allocation counter.
package obs

import (
	"runtime/metrics"
	"strconv"
	"sync"
	"time"
)

// Activity identifies one fine-grained profiled operation — work too hot to
// span per call, metered by cheap accumulators instead.
type Activity uint8

const (
	// ActGuard is one STAR alternative guard-condition evaluation.
	ActGuard Activity = iota
	// ActCost is one cost-model Price call.
	ActCost
	// ActOffer is one plan-table Insert (its count field is plans offered,
	// including the dominance scans deciding their fate).
	ActOffer
	// ActAbsorb is one plan-table overlay Absorb — the barrier merge of the
	// parallel enumeration. Its duration includes the replayed offers, which
	// ActOffer also meters; the activities are independent meters, not a
	// partition.
	ActAbsorb
	// NumActivities bounds the enum.
	NumActivities
)

// String names the activity for reports.
func (a Activity) String() string {
	switch a {
	case ActGuard:
		return "guard_eval"
	case ActCost:
		return "cost_price"
	case ActOffer:
		return "plantable_offer"
	case ActAbsorb:
		return "plantable_absorb"
	default:
		return "activity_" + strconv.Itoa(int(a))
	}
}

// ProfEntry is one profiled key's tallies.
type ProfEntry struct {
	// Count is the number of completed spans (deterministic).
	Count int64
	// SelfNS is wall time inside the span excluding nested spans of the
	// same dimension.
	SelfNS int64
	// TotalNS is wall time including nested spans.
	TotalNS int64
	// Allocs is the heap allocations attributed to the span's self window.
	Allocs int64
}

func (e *ProfEntry) add(o ProfEntry) {
	e.Count += o.Count
	e.SelfNS += o.SelfNS
	e.TotalNS += o.TotalNS
	e.Allocs += o.Allocs
}

// ProfActivity is one activity's tallies.
type ProfActivity struct {
	// Count is the number of operations (deterministic).
	Count int64
	// NS is the accumulated wall time.
	NS int64
}

// RankSample is one enumeration rank's parallel-path telemetry: where the
// rank's wall clock went (task collection, worker execution, the barrier's
// absorb merge) and how evenly the work spread over the workers.
type RankSample struct {
	// Rank is the subset size (the "join-<k>" phase).
	Rank int
	// Tasks is the number of subset tasks the rank fanned out
	// (deterministic).
	Tasks int
	// Workers is the worker count actually used (min of the parallelism
	// and the task count).
	Workers int
	// WallNS is the rank's total wall time (collection + execution +
	// barrier merge).
	WallNS int64
	// CollectNS is the task-collection (Gosper enumeration) time.
	CollectNS int64
	// ExecNS is the wall time of the worker-execution window.
	ExecNS int64
	// AbsorbNS is the barrier's ordered overlay-replay time.
	AbsorbNS int64
	// BusyNS is per-worker busy time over the execution window.
	BusyNS []int64
}

// ProfSnapshot is a deep copy of a profiler's state, safe to analyze while
// the profiler keeps collecting.
type ProfSnapshot struct {
	// Phases holds driver-phase tallies keyed by phase name ("prepare",
	// "access", "join-2", ..., "root", "finalize", plus tool-recorded
	// phases like "parse"). Phases do not nest, so SelfNS == TotalNS.
	Phases map[string]ProfEntry
	// Rules holds per-STAR tallies keyed by rule name, with self-time
	// semantics (a rule's SelfNS excludes nested rule references and Glue
	// calls).
	Rules map[string]ProfEntry
	// Spans holds the remaining span taxonomy (glue.call, exec.run, ...)
	// keyed by span name, same self-time semantics, shared stack with
	// Rules.
	Spans map[string]ProfEntry
	// Activities holds the fine-grained operation meters.
	Activities [NumActivities]ProfActivity
	// Ranks holds the parallel-enumeration telemetry in recording order.
	Ranks []RankSample
}

// ProfOptions configures EnableProf.
type ProfOptions struct {
	// Labels additionally pins runtime/pprof goroutine labels (phase=,
	// rank=, star=) while the optimizer runs, so externally captured CPU
	// profiles are domain-attributable. Label churn allocates, so it is
	// opt-in.
	Labels bool
}

// frame dimension selectors.
const (
	dimPhase = iota
	dimRule
	dimSpan
)

// profFrame is one open span on a profiler stack.
type profFrame struct {
	dim        uint8
	key        string
	beginT     time.Duration
	selfMark   time.Duration
	allocMark  int64
	selfAccNS  int64
	allocAccum int64
}

// Prof is the per-sink profiling accumulator. All methods are nil-safe.
type Prof struct {
	labels bool

	mu         sync.Mutex
	phases     map[string]*ProfEntry
	rules      map[string]*ProfEntry
	spans      map[string]*ProfEntry
	acts       [NumActivities]ProfActivity
	ranks      []RankSample
	phaseStack []profFrame
	spanStack  []profFrame
	sample     []metrics.Sample
	allocFn    func() int64 // test hook; defaults to the runtime counter

	// published tracks what PublishMetrics already exported, so repeated
	// publishes on a long-lived profiler export exact deltas.
	pubPhases map[string]ProfEntry
	pubRanks  int
}

// heapAllocsMetric is the runtime/metrics cumulative heap-allocation count.
const heapAllocsMetric = "/gc/heap/allocs:objects"

func newProf(o ProfOptions) *Prof {
	p := &Prof{
		labels:    o.Labels,
		phases:    map[string]*ProfEntry{},
		rules:     map[string]*ProfEntry{},
		spans:     map[string]*ProfEntry{},
		pubPhases: map[string]ProfEntry{},
		sample:    []metrics.Sample{{Name: heapAllocsMetric}},
	}
	p.allocFn = p.readAllocs
	return p
}

func (p *Prof) readAllocs() int64 {
	metrics.Read(p.sample)
	if p.sample[0].Value.Kind() == metrics.KindUint64 {
		return int64(p.sample[0].Value.Uint64())
	}
	return 0
}

// HeapAllocs returns the runtime's cumulative heap-allocation count — the
// same counter the profiler attributes to spans, exposed so tools can
// bracket whole runs consistently with per-phase figures.
func HeapAllocs() int64 {
	sample := []metrics.Sample{{Name: heapAllocsMetric}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindUint64 {
		return int64(sample[0].Value.Uint64())
	}
	return 0
}

// spanBegin pauses the enclosing frame's self accounting and opens a frame
// for the new span. t is the sink-relative begin time.
func (p *Prof) spanBegin(name, a1 string, t time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	alloc := p.allocFn()
	stack := &p.spanStack
	dim, key := uint8(dimSpan), name
	switch name {
	case EvPhase:
		stack, dim, key = &p.phaseStack, dimPhase, a1
	case EvRule:
		dim, key = dimRule, a1
	}
	if n := len(*stack); n > 0 {
		top := &(*stack)[n-1]
		top.selfAccNS += int64(t - top.selfMark)
		top.allocAccum += alloc - top.allocMark
	}
	*stack = append(*stack, profFrame{dim: dim, key: key, beginT: t, selfMark: t, allocMark: alloc})
	p.mu.Unlock()
}

// spanEnd closes the top frame and folds its tallies into the entry map.
func (p *Prof) spanEnd(name string, t time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	alloc := p.allocFn()
	stack := &p.spanStack
	if name == EvPhase {
		stack = &p.phaseStack
	}
	n := len(*stack)
	if n == 0 {
		p.mu.Unlock()
		return
	}
	f := (*stack)[n-1]
	*stack = (*stack)[:n-1]
	f.selfAccNS += int64(t - f.selfMark)
	f.allocAccum += alloc - f.allocMark
	e := p.entry(f.dim, f.key)
	e.Count++
	e.SelfNS += f.selfAccNS
	e.TotalNS += int64(t - f.beginT)
	e.Allocs += f.allocAccum
	if n > 1 {
		top := &(*stack)[n-2]
		top.selfMark = t
		top.allocMark = alloc
	}
	p.mu.Unlock()
}

// entry returns (creating) the tally for a dimension and key. Caller holds
// the lock.
func (p *Prof) entry(dim uint8, key string) *ProfEntry {
	m := p.spans
	switch dim {
	case dimPhase:
		m = p.phases
	case dimRule:
		m = p.rules
	}
	e := m[key]
	if e == nil {
		e = &ProfEntry{}
		m[key] = e
	}
	return e
}

// activity folds one timed batch of activity a.
func (p *Prof) activity(a Activity, d time.Duration, n int64) {
	if p == nil || a >= NumActivities {
		return
	}
	p.mu.Lock()
	p.acts[a].Count += n
	p.acts[a].NS += int64(d)
	p.mu.Unlock()
}

// addPhase records an externally timed phase (the SQL parse a tool or
// server measures around the optimizer, execution windows, ...). Phases do
// not nest, so self == total.
func (p *Prof) addPhase(name string, d time.Duration, allocs int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	e := p.entry(dimPhase, name)
	e.Count++
	e.SelfNS += int64(d)
	e.TotalNS += int64(d)
	e.Allocs += allocs
	p.mu.Unlock()
}

// addRank appends one rank's telemetry.
func (p *Prof) addRank(r RankSample) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.ranks = append(p.ranks, r)
	p.mu.Unlock()
}

// merge folds a child profiler's tallies into p — the profiling half of
// Sink.Absorb. Counts add exactly; open frames (there should be none when a
// worker finishes) are not transferred.
func (p *Prof) merge(o *Prof) {
	if p == nil || o == nil {
		return
	}
	o.mu.Lock()
	snap := o.snapshotLocked()
	o.mu.Unlock()
	p.mu.Lock()
	for k, e := range snap.Phases {
		p.entry(dimPhase, k).add(e)
	}
	for k, e := range snap.Rules {
		p.entry(dimRule, k).add(e)
	}
	for k, e := range snap.Spans {
		p.entry(dimSpan, k).add(e)
	}
	for i := range snap.Activities {
		p.acts[i].Count += snap.Activities[i].Count
		p.acts[i].NS += snap.Activities[i].NS
	}
	p.ranks = append(p.ranks, snap.Ranks...)
	p.mu.Unlock()
}

// Snapshot deep-copies the profiler's state.
func (p *Prof) Snapshot() ProfSnapshot {
	if p == nil {
		return ProfSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotLocked()
}

func (p *Prof) snapshotLocked() ProfSnapshot {
	s := ProfSnapshot{
		Phases: make(map[string]ProfEntry, len(p.phases)),
		Rules:  make(map[string]ProfEntry, len(p.rules)),
		Spans:  make(map[string]ProfEntry, len(p.spans)),
	}
	for k, e := range p.phases {
		s.Phases[k] = *e
	}
	for k, e := range p.rules {
		s.Rules[k] = *e
	}
	for k, e := range p.spans {
		s.Spans[k] = *e
	}
	s.Activities = p.acts
	s.Ranks = make([]RankSample, len(p.ranks))
	for i, r := range p.ranks {
		r.BusyNS = append([]int64(nil), r.BusyNS...)
		s.Ranks[i] = r
	}
	return s
}

// phaseMetricLabel collapses the unbounded join-<k> phase family to one
// "join" series so metric cardinality stays fixed; the JSON reports keep
// the per-rank detail.
func phaseMetricLabel(name string) string {
	if len(name) > 5 && name[:5] == "join-" {
		return "join"
	}
	return name
}

// PublishMetrics exports the profiler's phase and rank tallies into reg as
// opt_phase_* / opt_rank_* counters, adding only the delta accumulated
// since the previous call — safe to call repeatedly on a long-lived
// profiler without double counting. Gauge-free by design so Registry.Merge
// aggregates the series exactly.
func (p *Prof) PublishMetrics(reg *Registry) {
	if p == nil || reg == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for name, e := range p.phases {
		last := p.pubPhases[name]
		label := `{phase="` + phaseMetricLabel(name) + `"}`
		reg.Counter("opt_phase_spans_total" + label).Add(e.Count - last.Count)
		reg.Counter("opt_phase_self_ns_total" + label).Add(e.SelfNS - last.SelfNS)
		reg.Counter("opt_phase_allocs_total" + label).Add(e.Allocs - last.Allocs)
		p.pubPhases[name] = *e
	}
	for _, r := range p.ranks[p.pubRanks:] {
		var busy int64
		for _, b := range r.BusyNS {
			busy += b
		}
		idle := int64(r.Workers)*r.ExecNS - busy
		if idle < 0 {
			idle = 0
		}
		reg.Counter("opt_rank_ranks_total").Add(1)
		reg.Counter("opt_rank_tasks_total").Add(int64(r.Tasks))
		reg.Counter("opt_rank_busy_ns_total").Add(busy)
		reg.Counter("opt_rank_idle_ns_total").Add(idle)
		reg.Counter("opt_rank_collect_ns_total").Add(r.CollectNS)
		reg.Counter("opt_rank_absorb_ns_total").Add(r.AbsorbNS)
	}
	p.pubRanks = len(p.ranks)
}

// ProfMetricNames lists the metric series PublishMetrics writes, with the
// phase label values the optimizer uses — servers pre-register them at zero
// so scrapers see the whole surface before traffic.
func ProfMetricNames() []string {
	phases := []string{"parse", "prepare", "access", "join", "root", "finalize"}
	out := make([]string, 0, len(phases)*3+6)
	for _, ph := range phases {
		label := `{phase="` + ph + `"}`
		out = append(out,
			"opt_phase_spans_total"+label,
			"opt_phase_self_ns_total"+label,
			"opt_phase_allocs_total"+label)
	}
	return append(out,
		"opt_rank_ranks_total", "opt_rank_tasks_total",
		"opt_rank_busy_ns_total", "opt_rank_idle_ns_total",
		"opt_rank_collect_ns_total", "opt_rank_absorb_ns_total")
}

// EnableProf attaches a profiler to the sink (idempotent: an existing one
// is returned unchanged). Must be called before the sink is shared across
// goroutines. Nil sink returns nil.
func (s *Sink) EnableProf(o ProfOptions) *Prof {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.prof == nil {
		s.prof = newProf(o)
	}
	return s.prof
}

// Prof returns the attached profiler, nil when none (and for the nil sink).
func (s *Sink) Prof() *Prof {
	if s == nil {
		return nil
	}
	return s.prof
}

// ProfEnabled reports whether a profiler is attached — the guard
// instrumented code uses before timing micro-operations.
func (s *Sink) ProfEnabled() bool { return s != nil && s.prof != nil }

// ProfLabels reports whether the attached profiler wants pprof goroutine
// labels pinned.
func (s *Sink) ProfLabels() bool { return s != nil && s.prof != nil && s.prof.labels }

// ProfActivity folds one timed batch of activity a (n operations taking d)
// into the attached profiler; free when none is attached.
func (s *Sink) ProfActivity(a Activity, d time.Duration, n int64) {
	if s == nil || s.prof == nil {
		return
	}
	s.prof.activity(a, d, n)
}

// ProfRank records one enumeration rank's parallel telemetry.
func (s *Sink) ProfRank(r RankSample) {
	if s == nil || s.prof == nil {
		return
	}
	s.prof.addRank(r)
}

// ProfPhase records an externally timed phase (e.g. "parse") with its
// allocation delta, measured by the caller via HeapAllocs.
func (s *Sink) ProfPhase(name string, d time.Duration, allocs int64) {
	if s == nil || s.prof == nil {
		return
	}
	s.prof.addPhase(name, d, allocs)
}
