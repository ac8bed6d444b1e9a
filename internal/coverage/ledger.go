package coverage

import (
	"math"
	"slices"
	"sort"
	"strings"

	"stars/internal/obs"
	"stars/internal/plan"
	"stars/internal/star"
)

// Template normalizes a SQL text to its query template: whitespace is
// collapsed, string and numeric literals are replaced with '?', and runs of
// '?' separated by commas (the shape an IN-list leaves behind) collapse to a
// single '?', so "SELECT ... WHERE SAL > 100" and "... > 250" — and
// "DNO IN (1,2)" and "DNO IN (1,2,3)" — land in the same ledger bucket.
// Identifiers and keywords are left as written.
func Template(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	space := false    // a pending collapsed space
	wrote := false    // anything emitted yet (suppresses leading space)
	prevWord := false // previous emitted rune is part of an identifier
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f':
			space = wrote
			prevWord = false // whitespace ends an identifier
			continue
		case c == '\'':
			// String literal, '' escaping included.
			j := i + 1
			for j < len(sql) {
				if sql[j] == '\'' {
					if j+1 < len(sql) && sql[j+1] == '\'' {
						j += 2
						continue
					}
					break
				}
				j++
			}
			i = j
			c = '?'
		case c >= '0' && c <= '9' && !prevWord:
			// Numeric literal (not a digit inside an identifier like T1).
			j := i
			for j+1 < len(sql) {
				d := sql[j+1]
				if (d >= '0' && d <= '9') || d == '.' {
					j++
					continue
				}
				break
			}
			i = j
			c = '?'
		}
		if space {
			b.WriteByte(' ')
			space = false
		}
		b.WriteByte(c)
		wrote = true
		prevWord = c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
	}
	return collapseParamList(strings.TrimSuffix(b.String(), ";"))
}

// collapseParamList rewrites runs of '?' parameters separated by commas
// (and optional spaces) into a single '?'. After literal normalization an
// IN-list is exactly such a run, so IN (1,2) and IN (1, 2, 3) share one
// template regardless of arity. A run with no comma — "? ?" — is left
// alone; that shape is not a list. The substring pre-checks keep the
// common no-list case allocation-free.
func collapseParamList(t string) string {
	if !strings.Contains(t, "?,") && !strings.Contains(t, "? ,") {
		return t
	}
	var b strings.Builder
	b.Grow(len(t))
	for i := 0; i < len(t); i++ {
		b.WriteByte(t[i])
		if t[i] != '?' {
			continue
		}
		// Swallow every ", ?" continuation of the run.
		j := i
		for {
			k := j + 1
			comma := false
			for k < len(t) && (t[k] == ' ' || t[k] == ',') {
				comma = comma || t[k] == ','
				k++
			}
			if comma && k < len(t) && t[k] == '?' {
				j = k
				continue
			}
			break
		}
		i = j
	}
	return b.String()
}

// qerrBounds are the Sketch's fixed bucket upper bounds. Q-errors are >= 1
// by construction; the resolution is finest near 1 (good estimates) and
// coarsens toward the tail, which is what estimation-quality triage needs.
var qerrBounds = [...]float64{1, 1.1, 1.2, 1.35, 1.5, 1.75, 2, 2.5, 3, 4, 5, 7.5, 10, 15, 25, 50, 100, 1000}

// Sketch is a fixed-bucket digest of Q-error observations supporting
// approximate quantiles. The zero value is ready to use. Not safe for
// concurrent use.
type Sketch struct {
	counts [len(qerrBounds) + 1]int64 // the last bucket is the overflow
	n      int64
	max    float64
}

// Observe folds one Q-error into the digest.
func (s *Sketch) Observe(q float64) {
	if math.IsNaN(q) {
		return
	}
	q = max(q, 1)
	s.counts[sort.SearchFloat64s(qerrBounds[:], q)]++ // first bound >= q
	s.n++
	s.max = max(s.max, q)
}

// N returns the observation count.
func (s *Sketch) N() int64 { return s.n }

// Max returns the largest observed Q-error (0 when empty).
func (s *Sketch) Max() float64 { return s.max }

// Quantile returns the upper bound of the bucket holding the p-quantile
// (0 < p <= 1), clamped to the observed maximum; 0 when empty.
func (s *Sketch) Quantile(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(p*float64(s.n))), 1)
	var cum int64
	for i, c := range s.counts {
		cum += c
		if cum >= rank {
			bound := s.max
			if i < len(qerrBounds) {
				bound = qerrBounds[i]
			}
			return math.Min(bound, s.max)
		}
	}
	return s.max
}

// QErrorDigest is a Sketch rendered for reports.
type QErrorDigest struct {
	Count int64   `json:"count"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Digest renders the sketch, nil when it holds no observations.
func (s *Sketch) Digest() *QErrorDigest {
	if s.n == 0 {
		return nil
	}
	return &QErrorDigest{
		Count: s.n, Max: s.max,
		P50: s.Quantile(0.50), P90: s.Quantile(0.90), P99: s.Quantile(0.99),
	}
}

// opFeedback aggregates exec.feedback events for one plan operator within a
// template.
type opFeedback struct {
	id   uint64 // plan-node identity (plan.Node.ID)
	op   string
	n    int64
	est  float64
	act  float64
	maxQ float64
}

// maxLedgerOps bounds a template's operator list: plans are small, so the
// bound only guards against fingerprint churn.
const maxLedgerOps = 64

// TemplateLedger is one query template's ledger entry: request and
// execution counts, the template's Q-error digest, and per-operator
// estimate-vs-actual feedback — one half of the serving daemon's
// per-template record, filled by Ledger.Fold. The zero value is ready to
// use; Reset empties it for reuse. Not safe for concurrent use.
type TemplateLedger struct {
	requests   int64
	executions int64
	qerr       Sketch
	ops        []opFeedback // first-seen order, bounded by maxLedgerOps
}

// observe folds one exec.feedback event into the entry.
func (t *TemplateLedger) observe(e *obs.Event) {
	t.qerr.Observe(e.F2)
	i := slices.IndexFunc(t.ops, func(of opFeedback) bool { return of.id == e.P1 })
	if i < 0 && len(t.ops) < maxLedgerOps {
		i = len(t.ops)
		t.ops = append(t.ops, opFeedback{id: e.P1, op: e.A1})
	}
	if i >= 0 {
		of := &t.ops[i]
		of.n++
		of.est, of.act = e.F1, float64(e.N1)/float64(max(e.N2, 1))
		of.maxQ = max(of.maxQ, e.F2)
	}
}

// Reset empties the entry for reuse by another template, keeping its
// operator list's storage.
func (t *TemplateLedger) Reset() {
	*t = TemplateLedger{ops: t.ops[:0]}
}

// Report renders the entry under its template's name.
func (t *TemplateLedger) Report(template string) TemplateReport {
	tr := TemplateReport{
		Template: template, Requests: t.requests, Executions: t.executions,
		QError: t.qerr.Digest(),
	}
	for _, of := range t.ops {
		tr.Ops = append(tr.Ops, OpReport{
			Op: of.op, Fingerprint: plan.FormatID(of.id), Count: of.n,
			EstimatedRows: of.est, ActualRows: of.act, MaxQError: of.maxQ,
		})
	}
	return tr
}

// Ledger is the serving-time rolling view over every optimized request:
// accumulated coverage, the aggregate Q-error digest fed by the
// exec.feedback events an execute+analyze request emits, and the request
// count. Per-template entries (TemplateLedger) live with the caller. Not
// safe for concurrent use; the serving daemon guards it with the lock of its
// rolling state.
type Ledger struct {
	acc      *Accumulator
	requests int64
	all      Sketch
}

// NewLedger returns an empty ledger. The argument is unused; it stays
// because the benchmark (bench/layers.go) passes it.
func NewLedger(int) *Ledger {
	return &Ledger{acc: NewAccumulator()}
}

// Fold counts one request, failed ones included, in the ledger and in t when
// non-nil, and folds its events in one pass: coverage summary events into the
// accumulator, exec.feedback events into the aggregate Q-error digest and t.
// It returns the worst exec.feedback Q-error (0 when nothing was executed).
func (l *Ledger) Fold(t *TemplateLedger, events []obs.Event) (maxQ float64) {
	l.requests++
	first, executed := altKey{}, false
	for i := range events {
		switch e := &events[i]; {
		case e.Tally != nil:
			l.acc.addTally(e.Tally, &first)
		case e.Name == obs.EvExecFeedback:
			executed = true
			maxQ = max(maxQ, e.F2)
			l.all.Observe(e.F2)
			if t != nil {
				t.observe(e)
			}
		}
	}
	if t != nil {
		t.requests++
		if executed {
			t.executions++
		}
	}
	return maxQ
}

// Record is Fold without a template entry. The template argument is unused;
// it stays because the benchmark (bench/layers.go) passes it.
func (l *Ledger) Record(_ string, events []obs.Event) (maxQ float64) {
	return l.Fold(nil, events)
}

// Requests returns the number of requests folded.
func (l *Ledger) Requests() int64 { return l.requests }

// LedgerReport is the ledger rendered for GET /coverage, JSON-ready.
type LedgerReport struct {
	Schema    string           `json:"schema"`
	Requests  int64            `json:"requests"`
	QError    *QErrorDigest    `json:"qerror,omitempty"`
	Coverage  *Report          `json:"coverage"`
	Templates []TemplateReport `json:"templates"`
}

// TemplateReport is one query template's ledger entry, rendered.
type TemplateReport struct {
	Template   string        `json:"template"`
	Requests   int64         `json:"requests"`
	Executions int64         `json:"executions"`
	QError     *QErrorDigest `json:"qerror,omitempty"`
	Ops        []OpReport    `json:"ops,omitempty"`
}

// OpReport is one plan operator's estimate-vs-actual record.
type OpReport struct {
	Op            string  `json:"op"`
	Fingerprint   string  `json:"fp"`
	Count         int64   `json:"count"`
	EstimatedRows float64 `json:"estimated_rows"`
	ActualRows    float64 `json:"actual_rows"`
	MaxQError     float64 `json:"max_qerror"`
}

// Snapshot renders the ledger with an empty template list for the caller
// to fill. rs, when non-nil, defines the coverage universe (the server
// passes its effective rule set so never-exercised alternatives show up).
func (l *Ledger) Snapshot(rs *star.RuleSet) *LedgerReport {
	return &LedgerReport{
		Schema:    SchemaV1,
		Requests:  l.requests,
		QError:    l.all.Digest(),
		Coverage:  l.acc.Report(rs),
		Templates: []TemplateReport{},
	}
}

// PublishMetrics refreshes the registry's coverage and Q-error gauges from
// the ledger's current state: coverage_alternatives{,_exercised} (int
// gauges), coverage_ratio (0..1 float gauge), and qerror_p50/p90/p99/max
// float gauges. Counters (coverage_*_total, qerror_observations_total) are
// cumulative and flow through the per-request registry merge instead.
func (l *Ledger) PublishMetrics(reg *obs.Registry, rs *star.RuleSet) {
	total, exercised := l.acc.counts(rs)
	reg.Gauge("coverage_alternatives").Set(int64(total))
	reg.Gauge("coverage_alternatives_exercised").Set(int64(exercised))
	ratio := 1.0
	if total > 0 {
		ratio = float64(exercised) / float64(total)
	}
	reg.FloatGauge("coverage_ratio").Set(ratio)
	reg.FloatGauge("qerror_p50").Set(l.all.Quantile(0.50))
	reg.FloatGauge("qerror_p90").Set(l.all.Quantile(0.90))
	reg.FloatGauge("qerror_p99").Set(l.all.Quantile(0.99))
	reg.FloatGauge("qerror_max").Set(l.all.Max())
}

// counts sizes the alternative space (universe rs when non-nil, else the
// accumulated set) and the exercised portion. Accumulated alternatives
// outside the universe count too; only accumulated ones can be exercised.
func (a *Accumulator) counts(rs *star.RuleSet) (total, exercised int) {
	if rs != nil {
		for _, name := range rs.Names() {
			total += len(rs.Get(name).Alts)
		}
	}
	for _, k := range a.order {
		if rs == nil || !inUniverse(rs, k) {
			total++
		}
		if c := a.alts[k]; c.Fired > 0 || c.Built > 0 {
			exercised++
		}
	}
	return total, exercised
}

// inUniverse reports whether k is an alternative of rs.
func inUniverse(rs *star.RuleSet, k altKey) bool {
	r := rs.Get(k.rule)
	return r != nil && k.alt >= 1 && k.alt <= len(r.Alts)
}
