// Package flight is the serving optimizer's flight recorder and
// plan-stability watchdog: an always-on, bounded memory of what the daemon
// recently decided, and an anomaly detector that snapshots a self-contained
// incident bundle the moment a decision looks wrong.
//
// The paper's rules-as-data thesis makes every plan change explainable — the
// derivation DAG names the alternative that fired — but an explanation is
// only useful if the moment is captured. The Recorder folds one compact
// Record per /optimize request into a global recent-request ring; the
// watchdog (Judge) compares each new record against its template's History
// and flags
//
//   - plan flips: the plan's shape (its fingerprint with literals masked, so
//     a template's different constants don't count) changed although the
//     template, the catalog-stats epoch, and the rule-set hash all stayed
//     the same,
//   - latency outliers: wall time beyond LatencyFactor times the template's
//     rolling baseline (and above LatencyFloor, the noise gate), and
//   - Q-error blowups: an executed request whose worst per-operator
//     estimate-vs-actual Q-error reached QErrorThreshold.
//
// The package keeps no per-template state of its own: a History is one
// half of the serving daemon's per-template record (internal/serve), whose
// table holds at most 256 templates and evicts the least recently used,
// counting templates_evicted_total. An evicted template comes back with an
// empty History, so an eviction never reads as a plan flip.
//
// On a trigger the caller snapshots an Incident (schema stars/incident/v1):
// the offending request's SQL, catalog and rule text, event trace,
// provenance DAG, self-profile, and the recent-request ring for context —
// everything Replay needs to re-optimize the moment later, on another
// machine, and diff the result against what the daemon saw.
//
// Determinism is the contract: the clock is injectable, every method is
// nil-safe (a nil *Recorder records nothing at nil-check cost, keeping a
// disabled daemon's request path allocation-identical), and a fixed clock
// plus fixed inputs produce bit-identical incident bundles.
package flight

import (
	"fmt"
	"maps"
	"sync"
	"time"
)

// Kinds enumerates the watchdog's trigger kinds in priority order, the order
// Judge appends them in: an incident caused by several triggers at once is
// filed under the first.
var Kinds = []string{KindPlanFlip, KindQError, KindLatency}

const (
	// KindPlanFlip: plan shape changed for an unchanged
	// template+catalog-epoch+rule-hash.
	KindPlanFlip = "plan_flip"
	// KindQError: an executed plan's worst operator Q-error reached the
	// threshold.
	KindQError = "qerror"
	// KindLatency: wall time beyond the template's rolling baseline.
	KindLatency = "latency"
)

// The recorder's memory bounds: the global recent-request ring, each
// template's rolling wall-time window, and the in-memory incident store (the
// oldest incident is dropped when full).
const (
	ringSize     = 128
	historySize  = 32
	maxIncidents = 32
)

// Config tunes the recorder and watchdog. The zero value is a sensible
// always-on default; fields are only consulted at construction.
type Config struct {
	// IncidentDir, when non-empty, also writes every incident bundle to
	// <dir>/<id>.json.
	IncidentDir string
	// LatencyFactor flags a request slower than this multiple of its
	// template's rolling baseline (default 4).
	LatencyFactor float64
	// LatencyFloor is the absolute latency a request must also exceed to
	// be flagged — the noise gate for micro-queries (default 10ms).
	LatencyFloor time.Duration
	// MinSamples is the history size a template needs before latency
	// judgments begin (default 8). Plan-flip and Q-error detection start
	// from the second and first record respectively.
	MinSamples int
	// QErrorThreshold flags an executed request whose worst per-operator
	// Q-error reaches it (default 100).
	QErrorThreshold float64
	// Now is the clock (default time.Now); tests inject a fixed one to
	// make incident bundles bit-stable.
	Now func() time.Time
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.LatencyFactor <= 0 {
		c.LatencyFactor = 4
	}
	if c.LatencyFloor <= 0 {
		c.LatencyFloor = 10 * time.Millisecond
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.QErrorThreshold <= 0 {
		c.QErrorThreshold = 100
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Record is one request's compact flight-recorder entry.
type Record struct {
	// Seq is the recorder-assigned sequence number (1-based).
	Seq int64 `json:"seq"`
	// Time is the recorder clock's stamp at Observe.
	Time time.Time `json:"time"`
	// Req is the serving request id ("r17").
	Req string `json:"req,omitempty"`
	// Template is the normalized query template (coverage.Template).
	Template string `json:"template"`
	// SQL is the raw query text.
	SQL string `json:"sql"`
	// Status is the HTTP status the request answered with.
	Status int `json:"status"`
	// PlanFP is the chosen plan's stable fingerprint (empty on failures).
	PlanFP string `json:"plan_fp,omitempty"`
	// ShapeFP is the plan's literal-insensitive fingerprint
	// (plan.Node.ShapeFingerprint) — what the plan-flip watchdog compares,
	// since PlanFP differs between two constants of one template. Records
	// without one are compared on PlanFP.
	ShapeFP string `json:"shape_fp,omitempty"`
	// EstCost and EstRows are the optimizer's estimates for the chosen
	// plan.
	EstCost float64 `json:"est_cost,omitempty"`
	EstRows float64 `json:"est_rows,omitempty"`
	// WallNS is the request's wall-clock nanoseconds (optimize and, when
	// requested, execute).
	WallNS int64 `json:"wall_ns"`
	// Parallelism is the join-enumeration fan-out the request ran with.
	Parallelism int `json:"parallelism,omitempty"`
	// CatalogEpoch and RulesHash identify the inputs the plan depends on
	// besides the query; a flip is only a flip while both are unchanged.
	CatalogEpoch string `json:"catalog_epoch,omitempty"`
	RulesHash    string `json:"rules_hash,omitempty"`
	// Executed reports the plan ran; MaxQError is the worst per-operator
	// Q-error the run's exec.feedback events carried.
	Executed  bool    `json:"executed,omitempty"`
	MaxQError float64 `json:"max_qerror,omitempty"`
}

// shape is the identity plan-flip detection compares.
func (r *Record) shape() string {
	if r.ShapeFP != "" {
		return r.ShapeFP
	}
	return r.PlanFP
}

// Trigger is one watchdog rule that fired on a record.
type Trigger struct {
	// Kind is KindPlanFlip, KindLatency, or KindQError.
	Kind string `json:"kind"`
	// Detail is the human-readable one-liner.
	Detail string `json:"detail"`
	// Observed and Threshold quantify the violation in the kind's unit
	// (latency: ns; qerror: Q-error; plan_flip: unused).
	Observed  float64 `json:"observed,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// BaselineNS and Samples describe the rolling baseline a latency
	// trigger compared against.
	BaselineNS float64 `json:"baseline_ns,omitempty"`
	Samples    int     `json:"samples,omitempty"`
	// PrevFP is the fingerprint the template previously planned to
	// (plan_flip only).
	PrevFP string `json:"prev_fp,omitempty"`
}

// Observation is Observe's result as Judge completes it: the stamped
// record, the triggers that fired in priority order (nil when the record is
// unremarkable), and the history context an incident snapshot wants.
type Observation struct {
	Record   Record    `json:"record"`
	Triggers []Trigger `json:"triggers"`
	// Prev is the template's previous successful record (nil on first
	// sight) — the "before" of a plan flip. Judge keeps that record in the
	// observation (Previous reads it) and File sets Prev on the incident it
	// files, so judging a repeat that files nothing copies no record to the
	// heap.
	Prev *Record `json:"prev,omitempty"`
	// BaselineNS and Samples are the template's rolling latency baseline
	// before this record was folded in.
	BaselineNS float64 `json:"baseline_ns,omitempty"`
	Samples    int     `json:"samples,omitempty"`

	prev    Record // valid when hasPrev
	hasPrev bool
}

// Previous returns the template's previous successful record as Judge
// found it, nil on first sight.
func (o *Observation) Previous() *Record {
	if !o.hasPrev {
		return nil
	}
	return &o.prev
}

// Kind returns the observation's primary incident kind — the
// highest-priority trigger, which Judge appends first — or "" when nothing
// fired.
func (o *Observation) Kind() string {
	if len(o.Triggers) == 0 {
		return ""
	}
	return o.Triggers[0].Kind
}

// History is one template's watchdog memory: the last successful record —
// the "before" of a plan flip — and a rolling window of the last
// historySize wall times with their running sum, the latency baseline. The
// zero value is an empty history. Not safe for concurrent use; the serving
// daemon's template table serializes access.
type History struct {
	last Record
	wall [historySize]int64 // ring: sample i sits at i % historySize
	n    int                // samples ever folded
	sum  int64              // sum of the window's wall times
}

// Baseline returns the mean wall latency over the window and its depth.
func (h *History) Baseline() (ns float64, samples int) {
	samples = min(h.n, historySize)
	if samples == 0 {
		return 0, 0
	}
	return float64(h.sum) / float64(samples), samples
}

// Reset empties the history for reuse by another template.
func (h *History) Reset() { *h = History{} }

// State renders the history for GET /debug/flight; ok is false while it
// holds no sample (the template has only failed so far).
func (h *History) State(template string) (st TemplateState, ok bool) {
	ns, n := h.Baseline()
	if n == 0 {
		return TemplateState{}, false
	}
	return TemplateState{
		Template: template, Requests: n, PlanFP: h.last.PlanFP,
		BaselineNS: ns, EstCost: h.last.EstCost,
	}, true
}

// Stats is a point-in-time census of the recorder for metrics and debug
// surfaces.
type Stats struct {
	Records int64 `json:"records"`
	// Templates is the History owner's to fill.
	Templates int `json:"templates"`
	Incidents int `json:"incidents"`
	// ByKind counts the triggers of filed incidents, per kind.
	ByKind map[string]int64 `json:"by_kind"`
	// IncidentsTotal counts incidents ever filed (the in-memory store is
	// bounded; this is not).
	IncidentsTotal int64 `json:"incidents_total"`
	// Dropped counts incidents evicted from the bounded store.
	Dropped int64 `json:"dropped"`
	// WriteErrors counts failed incident-file writes.
	WriteErrors int64 `json:"write_errors"`
}

// Recorder is the flight recorder: a bounded ring of recent requests, the
// watchdog's configuration, and the bounded incident store. Safe for
// concurrent use; all methods are no-ops on nil.
type Recorder struct {
	cfg Config

	mu   sync.Mutex
	seq  int64
	ring []Record // up to ringSize; once full, the oldest sits at head
	head int

	incSeq    int64
	incidents []*Incident // bounded by maxIncidents, oldest first
	byKind    map[string]int64
	dropped   int64
	writeErrs int64
}

// New builds a recorder.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{cfg: cfg, byKind: map[string]int64{}}
}

// Observe stamps one request's record with Seq/Time and folds it into the
// ring; judging it is Judge's, against the template's History. Nil-safe: a
// nil recorder returns a zero Observation and allocates nothing.
func (r *Recorder) Observe(rec Record) Observation {
	if r == nil {
		return Observation{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	rec.Seq = r.seq
	rec.Time = r.cfg.Now()
	if len(r.ring) < ringSize {
		r.ring = append(r.ring, rec)
	} else {
		r.ring[r.head] = rec
		r.head = (r.head + 1) % ringSize
	}
	return Observation{Record: rec}
}

// Judge runs the watchdog on an observed record against its template's
// history h, then folds the record into h. Only successful optimizations
// (Status 200 with a plan fingerprint) are judged and folded; failures stay
// in the ring only. The record is judged against h as it stood before it,
// so an anomaly can't raise its own bar. Nil-safe on the recorder.
func (r *Recorder) Judge(h *History, o *Observation) {
	rec := &o.Record
	if r == nil || rec.Status != 200 || rec.PlanFP == "" {
		return
	}
	o.prev, o.hasPrev = h.last, h.n > 0
	o.BaselineNS, o.Samples = h.Baseline()

	if p := &o.prev; o.hasPrev && p.shape() != rec.shape() &&
		p.CatalogEpoch == rec.CatalogEpoch && p.RulesHash == rec.RulesHash {
		o.Triggers = append(o.Triggers, Trigger{
			Kind:   KindPlanFlip,
			PrevFP: p.PlanFP,
			Detail: fmt.Sprintf("plan fingerprint flipped %s -> %s with catalog epoch %s and rules hash %s unchanged",
				p.PlanFP, rec.PlanFP, rec.CatalogEpoch, rec.RulesHash),
		})
	}
	if rec.Executed && rec.MaxQError >= r.cfg.QErrorThreshold {
		o.Triggers = append(o.Triggers, Trigger{
			Kind:      KindQError,
			Observed:  rec.MaxQError,
			Threshold: r.cfg.QErrorThreshold,
			Detail: fmt.Sprintf("worst per-operator Q-error %.1f reached threshold %.1f",
				rec.MaxQError, r.cfg.QErrorThreshold),
		})
	}
	if o.Samples >= r.cfg.MinSamples &&
		rec.WallNS > int64(r.cfg.LatencyFloor) &&
		float64(rec.WallNS) > r.cfg.LatencyFactor*o.BaselineNS {
		o.Triggers = append(o.Triggers, Trigger{
			Kind:       KindLatency,
			Observed:   float64(rec.WallNS),
			Threshold:  r.cfg.LatencyFactor * o.BaselineNS,
			BaselineNS: o.BaselineNS,
			Samples:    o.Samples,
			Detail: fmt.Sprintf("wall time %s exceeds %.1fx the rolling baseline %s (%d samples)",
				time.Duration(rec.WallNS), r.cfg.LatencyFactor,
				time.Duration(int64(o.BaselineNS)), o.Samples),
		})
	}
	i := h.n % historySize
	h.sum += rec.WallNS - h.wall[i] // the slot is zero until the window fills
	h.wall[i] = rec.WallNS
	h.n++
	h.last = *rec
}

// Recent returns a copy of the recent-request ring, oldest first.
func (r *Recorder) Recent() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recent()
}

// recent copies the ring oldest first; r.mu must be held.
func (r *Recorder) recent() []Record {
	return append(append(make([]Record, 0, len(r.ring)), r.ring[r.head:]...), r.ring[:r.head]...)
}

// Stats returns a census snapshot.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Records:        r.seq,
		Incidents:      len(r.incidents),
		IncidentsTotal: r.incSeq,
		Dropped:        r.dropped,
		WriteErrors:    r.writeErrs,
		ByKind:         maps.Clone(r.byKind),
	}
}

// TemplateState is one template's rolling view for GET /debug/flight.
type TemplateState struct {
	Template   string  `json:"template"`
	Requests   int     `json:"requests"` // history depth (bounded)
	PlanFP     string  `json:"plan_fp"`  // latest fingerprint
	BaselineNS float64 `json:"baseline_ns"`
	EstCost    float64 `json:"est_cost"`
}
