// Self-profiling: the optimizer's profiler records its figures straight into
// the rows every report reads (internal/prof renders them).
//
// A Prof rides on a Sink (EnableProf) and turns the span stream the
// instrumented code already emits — phase spans, per-STAR rule spans, Glue
// calls — into per-key tallies: invocation counts, self-time (span time
// minus time spent in nested spans) and total time. Phases also carry
// allocation counts, read from the runtime's heap-allocation counter at
// their begin and end only: that read takes a process-wide lock and costs
// about as much as a small rule reference, so rule and span rows do not
// attribute allocations and their Allocs read 0. Hot micro-operations that
// are too frequent to be spans (guard evaluations, cost pricing, plan-table
// offers) report through ProfActivity, and the rank-parallel enumeration
// reports per-rank worker telemetry through ProfRank.
//
// The tallies live in a Profile, the one representation of a profile: a
// worker's Child sink gets its own empty Prof, Absorb folds its Profile into
// the parent's with Merge, and the same Merge folds requests into a server's
// rolling aggregate and workloads into a report's totals. The merged counts
// are exact and deterministic at every parallelism level. The disabled path
// stays free: a sink without a profiler pays one nil check per span, and the
// nil sink pays nothing.
//
// Determinism contract: the Count fields (spans per phase, references per
// rule, activity operation counts) are a pure function of the optimization
// and are bit-identical across Parallelism levels. Durations are wall-clock
// and vary run to run. A phase's allocation count is the runtime counter's
// advance over the phase's whole window, which is exact for a serial run and
// for a parallel one alike (the workers of a join rank run inside its
// window), as long as nothing else in the process allocates meanwhile.
package obs

import (
	"cmp"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
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

// Figures are one profiled key's tallies.
type Figures struct {
	// Count is the number of completed spans (deterministic).
	Count int64 `json:"count"`
	// SelfNS is wall time inside the span excluding nested spans of the
	// same dimension.
	SelfNS int64 `json:"self_ns"`
	// TotalNS is wall time including nested spans.
	TotalNS int64 `json:"total_ns"`
	// Allocs is the heap allocations made in a phase's window. Rule and
	// span rows do not attribute allocations: theirs read 0.
	Allocs int64 `json:"allocs"`
}

func (t *Figures) add(o Figures) {
	t.Count += o.Count
	t.SelfNS += o.SelfNS
	t.TotalNS += o.TotalNS
	t.Allocs += o.Allocs
}

// Phase is one driver phase's tallies, keyed by phase name ("prepare",
// "access", "join-2", ..., "root", "finalize", plus tool-recorded phases
// like "parse"). Phases do not nest, so SelfNS == TotalNS.
type Phase struct {
	Phase string `json:"phase"`
	Figures
}

// Rule is one STAR's tallies, or one other span's (glue.call, exec.run,
// ...). Rules and other spans share one stack, so a rule's SelfNS excludes
// nested rule references and Glue calls.
type Rule struct {
	Name string `json:"name"`
	Figures
}

// ActivityRow is one activity's meter.
type ActivityRow struct {
	Name string `json:"name"`
	// Count is the number of operations (deterministic).
	Count int64 `json:"count"`
	// NS is the accumulated wall time.
	NS int64 `json:"ns"`
}

// Rank is one enumeration rank's parallel-path telemetry: where the rank's
// wall clock went (task collection, worker execution, the barrier's absorb
// merge) and how evenly the work spread over the workers.
type Rank struct {
	// Rank is the subset size (the "join-<k>" phase).
	Rank int `json:"rank"`
	// Tasks is the number of subset tasks the rank fanned out
	// (deterministic).
	Tasks int `json:"tasks"`
	// Workers is the worker count actually used (min of the parallelism
	// and the task count).
	Workers int `json:"workers"`
	// WallNS is the rank's total wall time (collection + execution +
	// barrier merge).
	WallNS int64 `json:"wall_ns"`
	// CollectNS is the task-collection (Gosper enumeration) time.
	CollectNS int64 `json:"collect_ns"`
	// ExecNS is the wall time of the worker-execution window.
	ExecNS int64 `json:"exec_ns"`
	// AbsorbNS is the barrier's ordered overlay-replay time.
	AbsorbNS int64 `json:"absorb_ns"`
	// BusyNS is per-worker busy time over the execution window, kept by a
	// row one run recorded: Merge drops it, as worker identities do not
	// line up across runs.
	BusyNS []int64 `json:"busy_ns,omitempty"`
	// BusyTotalNS sums worker busy time; BusyMaxNS is the slowest worker.
	BusyTotalNS int64 `json:"busy_total_ns"`
	BusyMaxNS   int64 `json:"busy_max_ns"`
	// IdleNS is worker-seconds spent waiting inside the execution window:
	// workers*exec_ns - busy_total_ns (clamped at zero).
	IdleNS int64 `json:"idle_ns"`
	// Imbalance is busy_max / (busy_total/workers); 1.0 is perfectly level.
	Imbalance float64 `json:"imbalance"`
}

// Profile is one profiled run's attribution, or an aggregate of many: the
// rows a profiler accumulates and a report renders.
type Profile struct {
	// ElapsedNS and Allocs are the caller-measured run totals the phase
	// figures are compared against.
	ElapsedNS  int64         `json:"elapsed_ns"`
	Allocs     int64         `json:"allocs"`
	Phases     []Phase       `json:"phases"`
	Rules      []Rule        `json:"rules"`
	Spans      []Rule        `json:"spans,omitempty"`
	Activities []ActivityRow `json:"activities"`
	Ranks      []Rank        `json:"ranks,omitempty"`

	// idx maps each dimension's keys to their row positions. It is built
	// on first use, so a zero or decoded Profile folds like any other.
	idx [3]map[string]int
}

// dimension selectors: which stack a frame sits on and which rows it tallies
// into.
const (
	dimPhase = iota
	dimRule
	dimSpan
)

// tally returns the figures of key's row in dimension dim, appending the row
// on first use.
func (p *Profile) tally(dim uint8, key string) *Figures {
	if p.idx[dim] == nil {
		p.reindex()
	}
	i, ok := p.idx[dim][key]
	if dim == dimPhase {
		if !ok {
			i = len(p.Phases)
			p.Phases = append(p.Phases, Phase{Phase: key})
			p.idx[dim][key] = i
		}
		return &p.Phases[i].Figures
	}
	rows := &p.Rules
	if dim == dimSpan {
		rows = &p.Spans
	}
	if !ok {
		i = len(*rows)
		*rows = append(*rows, Rule{Name: key})
		p.idx[dim][key] = i
	}
	return &(*rows)[i].Figures
}

// reindex points idx at the rows' current positions.
func (p *Profile) reindex() {
	for d := range p.idx {
		if p.idx[d] == nil {
			p.idx[d] = map[string]int{}
		}
	}
	for i, r := range p.Phases {
		p.idx[dimPhase][r.Phase] = i
	}
	for i, r := range p.Rules {
		p.idx[dimRule][r.Name] = i
	}
	for i, r := range p.Spans {
		p.idx[dimSpan][r.Name] = i
	}
}

// rank folds r into p's row for the same rank and returns the row.
func (p *Profile) rank(r Rank) *Rank {
	i := 0
	for i < len(p.Ranks) && p.Ranks[i].Rank != r.Rank {
		i++
	}
	if i == len(p.Ranks) {
		// A reset profile's rows keep their busy vectors' storage.
		p.Ranks = slices.Grow(p.Ranks, 1)[:i+1]
		p.Ranks[i] = Rank{Rank: r.Rank, BusyNS: p.Ranks[i].BusyNS[:0]}
	}
	e := &p.Ranks[i]
	e.Tasks += r.Tasks
	e.Workers = max(e.Workers, r.Workers)
	e.WallNS += r.WallNS
	e.CollectNS += r.CollectNS
	e.ExecNS += r.ExecNS
	e.AbsorbNS += r.AbsorbNS
	e.BusyTotalNS += r.BusyTotalNS
	e.BusyMaxNS += r.BusyMaxNS
	e.BusyNS = append(e.BusyNS, r.BusyNS...)
	return e
}

// Merge folds o into p: a worker's profile into its parent sink's, a
// request's into a server's rolling aggregate, a workload's into a report's
// totals. Tallies, meters and rank figures add by key; a rank row that
// two runs fold into keeps no per-worker busy vector. New rows are appended
// unsorted and the derived rank figures left stale: a reader sorts once,
// with Sort or Clone, not every fold.
func (p *Profile) Merge(o *Profile) {
	if o == nil {
		return
	}
	p.ElapsedNS += o.ElapsedNS
	p.Allocs += o.Allocs
	for _, r := range o.Phases {
		p.tally(dimPhase, r.Phase).add(r.Figures)
	}
	for _, r := range o.Rules {
		p.tally(dimRule, r.Name).add(r.Figures)
	}
	for _, r := range o.Spans {
		p.tally(dimSpan, r.Name).add(r.Figures)
	}
	for i, a := range o.Activities {
		if i == len(p.Activities) {
			p.Activities = append(p.Activities, ActivityRow{Name: a.Name})
		}
		p.Activities[i].Count += a.Count
		p.Activities[i].NS += a.NS
	}
	for _, r := range o.Ranks {
		r.BusyNS = nil
		p.rank(r).BusyNS = nil
	}
}

// Clone deep-copies the profile and sorts the copy for display, for a
// reader that must not see later merges (the serve daemon renders its
// rolling aggregate outside the lock).
func (p *Profile) Clone() *Profile {
	if p == nil {
		return nil
	}
	c := *p
	c.idx = [3]map[string]int{}
	c.Phases = slices.Clone(p.Phases)
	c.Rules = slices.Clone(p.Rules)
	c.Spans = slices.Clone(p.Spans)
	c.Activities = slices.Clone(p.Activities)
	c.Ranks = slices.Clone(p.Ranks)
	for i := range c.Ranks {
		c.Ranks[i].BusyNS = slices.Clone(c.Ranks[i].BusyNS)
	}
	c.Sort()
	return &c
}

// Sort orders the rows for display — phases in pipeline order, rules and
// spans by self-time — and derives the rank figures.
func (p *Profile) Sort() {
	slices.SortFunc(p.Phases, func(a, b Phase) int {
		return cmp.Or(cmp.Compare(phaseOrder(a.Phase), phaseOrder(b.Phase)), strings.Compare(a.Phase, b.Phase))
	})
	bySelf := func(a, b Rule) int {
		return cmp.Or(cmp.Compare(b.SelfNS, a.SelfNS), strings.Compare(a.Name, b.Name))
	}
	slices.SortFunc(p.Rules, bySelf)
	slices.SortFunc(p.Spans, bySelf)
	slices.SortFunc(p.Ranks, func(a, b Rank) int { return cmp.Compare(a.Rank, b.Rank) })
	p.reindex()
	for i := range p.Ranks {
		r := &p.Ranks[i]
		r.IdleNS = max(int64(r.Workers)*r.ExecNS-r.BusyTotalNS, 0)
		r.Imbalance = 0
		if r.Workers > 0 && r.BusyTotalNS > 0 {
			r.Imbalance = float64(r.BusyMaxNS) / (float64(r.BusyTotalNS) / float64(r.Workers))
		}
	}
}

// phaseOrder pins the canonical phase display order: the pipeline order a
// request actually flows through, with join ranks numeric.
func phaseOrder(name string) int {
	switch name {
	case "parse":
		return 0
	case "prepare":
		return 1
	case "access":
		return 2
	case "root":
		return 1 << 20
	case "finalize":
		return 1<<20 + 1
	}
	if k, ok := strings.CutPrefix(name, "join-"); ok {
		if n, err := strconv.Atoi(k); err == nil {
			return 100 + n
		}
	}
	return 1<<20 + 2 // tool-defined phases trail
}

// ProfOptions configures EnableProf.
type ProfOptions struct {
	// Labels additionally pins runtime/pprof goroutine labels (phase=,
	// rank=, star=) while the optimizer runs, so externally captured CPU
	// profiles are domain-attributable. Label churn allocates, so it is
	// opt-in.
	Labels bool
}

// profFrame is one open span on a profiler stack. allocMark, the allocation
// counter at the span's begin, is read for phase frames only.
type profFrame struct {
	dim       uint8
	key       string
	beginT    time.Duration
	selfMark  time.Duration
	selfAccNS int64
	allocMark int64
}

// rankSeries are the opt_rank_* counters, in the order Prof.pubRanks holds
// their unpublished figures.
var rankSeries = [...]string{
	"opt_rank_ranks_total", "opt_rank_tasks_total",
	"opt_rank_busy_ns_total", "opt_rank_idle_ns_total",
	"opt_rank_collect_ns_total", "opt_rank_absorb_ns_total",
}

// Prof is the per-sink profiling accumulator. All methods are nil-safe.
type Prof struct {
	labels bool

	mu         sync.Mutex
	rows       Profile
	phaseStack []profFrame
	spanStack  []profFrame
	allocFn    func() int64 // test hook; defaults to HeapAllocs

	// pubPhases holds each phase's tallies as PublishMetrics last exported
	// them and pubRanks the rank figures recorded since, so repeated
	// publishes on a long-lived profiler export exact deltas.
	pubPhases map[string]Figures
	pubRanks  [len(rankSeries)]int64
}

func newProf(o ProfOptions) *Prof {
	p := &Prof{
		labels:    o.Labels,
		pubPhases: map[string]Figures{},
		allocFn:   HeapAllocs,
	}
	p.rows.Activities = make([]ActivityRow, NumActivities)
	for a := range p.rows.Activities {
		p.rows.Activities[a].Name = Activity(a).String()
	}
	return p
}

// reset empties the profiler for the next run on its sink (Sink.Reset). The
// rows go but their storage and index maps stay, so the next run tallies the
// same keys without allocating.
func (p *Prof) reset() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	r := &p.rows
	r.ElapsedNS, r.Allocs = 0, 0
	r.Phases, r.Rules, r.Spans, r.Ranks = r.Phases[:0], r.Rules[:0], r.Spans[:0], r.Ranks[:0]
	for d := range r.idx {
		clear(r.idx[d])
	}
	for a := range r.Activities {
		r.Activities[a].Count, r.Activities[a].NS = 0, 0
	}
	p.phaseStack, p.spanStack = p.phaseStack[:0], p.spanStack[:0]
	clear(p.pubPhases)
	p.pubRanks = [len(rankSeries)]int64{}
}

// heapAllocsMetric is the runtime/metrics cumulative heap-allocation count.
const heapAllocsMetric = "/gc/heap/allocs:objects"

// heapSamples holds metrics.Read's argument between HeapAllocs calls: Read
// takes a slice, which would otherwise move to the heap on every call.
var heapSamples = sync.Pool{New: func() any { return &[1]metrics.Sample{{Name: heapAllocsMetric}} }}

// HeapAllocs returns the runtime's cumulative heap-allocation count — the
// counter the profiler reads at phase boundaries, exposed so tools can
// bracket whole runs consistently with per-phase figures. It allocates
// nothing, but each call takes the runtime's process-wide metrics lock.
func HeapAllocs() int64 {
	s := heapSamples.Get().(*[1]metrics.Sample)
	defer heapSamples.Put(s)
	metrics.Read(s[:])
	if s[0].Value.Kind() == metrics.KindUint64 {
		return int64(s[0].Value.Uint64())
	}
	return 0
}

// spanBegin pauses the enclosing frame's self accounting and opens a frame
// for the new span. t is the sink-relative begin time.
func (p *Prof) spanBegin(name, a1 string, t time.Duration) {
	if p == nil {
		return
	}
	f := profFrame{dim: dimSpan, key: name, beginT: t, selfMark: t}
	stack := &p.spanStack
	p.mu.Lock()
	switch name {
	case EvPhase:
		stack, f.dim, f.key = &p.phaseStack, dimPhase, a1
		f.allocMark = p.allocFn()
	case EvRule:
		f.dim, f.key = dimRule, a1
	}
	if n := len(*stack); n > 0 {
		top := &(*stack)[n-1]
		top.selfAccNS += int64(t - top.selfMark)
	}
	*stack = append(*stack, f)
	p.mu.Unlock()
}

// spanEnd closes the top frame and folds its figures into its row.
func (p *Prof) spanEnd(name string, t time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
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
	fig := Figures{Count: 1, SelfNS: f.selfAccNS + int64(t-f.selfMark), TotalNS: int64(t - f.beginT)}
	if f.dim == dimPhase {
		fig.Allocs = p.allocFn() - f.allocMark
	}
	p.rows.tally(f.dim, f.key).add(fig)
	if n > 1 {
		(*stack)[n-2].selfMark = t
	}
	p.mu.Unlock()
}

// activity folds one timed batch of activity a.
func (p *Prof) activity(a Activity, d time.Duration, n int64) {
	if p == nil || a >= NumActivities {
		return
	}
	p.mu.Lock()
	p.rows.Activities[a].Count += n
	p.rows.Activities[a].NS += int64(d)
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
	p.rows.tally(dimPhase, name).add(Figures{Count: 1, SelfNS: int64(d), TotalNS: int64(d), Allocs: allocs})
	p.mu.Unlock()
}

// addRank folds one rank's telemetry into its row, deriving BusyTotalNS and
// BusyMaxNS from r.BusyNS.
func (p *Prof) addRank(r Rank) {
	if p == nil {
		return
	}
	for _, b := range r.BusyNS {
		r.BusyTotalNS += b
		r.BusyMaxNS = max(r.BusyMaxNS, b)
	}
	idle := max(int64(r.Workers)*r.ExecNS-r.BusyTotalNS, 0)
	p.mu.Lock()
	p.rows.rank(r)
	for i, d := range [...]int64{1, int64(r.Tasks), r.BusyTotalNS, idle, r.CollectNS, r.AbsorbNS} {
		p.pubRanks[i] += d
	}
	p.mu.Unlock()
}

// absorb folds a finished child profiler into p — the profiling half of
// Sink.Absorb. Open frames (there should be none) stay behind.
func (p *Prof) absorb(o *Prof) {
	if p == nil || o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rows.Merge(&o.rows)
	for i, d := range o.pubRanks {
		p.pubRanks[i] += d
	}
}

// Profile sorts the profiler's rows for display, derives the rank figures
// and returns the rows themselves, not a copy: read them once the profiled
// work is done, and Clone them to keep them apart from later recording. Nil
// for the nil profiler.
func (p *Prof) Profile() *Profile {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	p.rows.Sort()
	p.mu.Unlock()
	return &p.rows
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

// phaseLabels are the phase label values the optimizer and its callers
// publish, and phaseSeries their opt_phase_* series names, rendered once.
var (
	phaseLabels = []string{"parse", "prepare", "access", "join", "root", "finalize"}
	phaseSeries = map[string][3]string{}
)

func init() {
	for _, l := range phaseLabels {
		phaseSeries[l] = phaseSeriesOf(l)
	}
}

// phaseSeriesOf names the spans, self-time and allocation counters of one
// phase label.
func phaseSeriesOf(label string) [3]string {
	l := `{phase="` + label + `"}`
	return [3]string{"opt_phase_spans_total" + l, "opt_phase_self_ns_total" + l, "opt_phase_allocs_total" + l}
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
	for _, ph := range p.rows.Phases {
		label := phaseMetricLabel(ph.Phase)
		names, ok := phaseSeries[label]
		if !ok {
			names = phaseSeriesOf(label)
		}
		last := p.pubPhases[ph.Phase]
		for i, d := range [...]int64{ph.Count - last.Count, ph.SelfNS - last.SelfNS, ph.Allocs - last.Allocs} {
			reg.Counter(names[i]).Add(d)
		}
		p.pubPhases[ph.Phase] = ph.Figures
	}
	if p.pubRanks[0] > 0 {
		for i, name := range rankSeries {
			reg.Counter(name).Add(p.pubRanks[i])
		}
		p.pubRanks = [len(rankSeries)]int64{}
	}
}

// ProfMetricNames lists the metric series PublishMetrics writes, with the
// phase label values the optimizer uses — servers pre-register them at zero
// so scrapers see the whole surface before traffic.
func ProfMetricNames() []string {
	var out []string
	for _, l := range phaseLabels {
		names := phaseSeries[l]
		out = append(out, names[:]...)
	}
	return append(out, rankSeries[:]...)
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

// ProfRank records one enumeration rank's parallel telemetry: the rank, its
// tasks and workers, its time windows and per-worker BusyNS. The busy
// aggregates and the idle and imbalance figures are derived.
func (s *Sink) ProfRank(r Rank) {
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
