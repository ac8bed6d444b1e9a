// Package prof renders the optimizer's self-profile: the rows internal/obs
// records and folds (obs.Profile — phase/rule/span tallies, activity
// meters, per-rank parallel telemetry) as the `stars/profile/v1` JSON
// document and the text tables `starburst profile`, `starbench -profile`,
// and the serve daemon's GET /profile share.
//
// Reading the numbers: self_ns is wall time inside a key excluding nested
// profiled work of the same dimension, so phase self-times partition the
// optimization wall clock (they sum to ~elapsed, the property CI asserts),
// and rule self-times say which STAR the evaluation budget goes to.
// Activities (guard_eval, cost_price, plantable_offer, plantable_absorb)
// are independent meters that overlap the phases — they answer "what kind
// of work", not "when". Rank rows decompose each parallel join rank into
// task collection, worker execution, and the barrier's absorb merge;
// imbalance is max worker busy time over the mean, so 1.0 is a perfectly
// level rank and the idle share plus the absorb share explain a parallel
// slowdown.
package prof

import (
	"fmt"
	"strconv"
	"strings"

	"stars/internal/obs"
)

// SchemaV1 identifies the profile report JSON shape.
const SchemaV1 = "stars/profile/v1"

// Profile is one optimization run's (or an aggregate's) full attribution:
// the rows internal/obs accumulates and folds with Merge.
type Profile = obs.Profile

// FromSink returns the profile accumulated by the profiler attached to s,
// sorted for display; nil when no profiler is attached. The rows are the
// profiler's own, so read them once the run is done. ElapsedNS and Allocs
// are left for the caller, which owns the run brackets.
func FromSink(s *obs.Sink) *Profile { return s.Prof().Profile() }

// Format renders a profile as aligned text tables, listing at most topN
// rules and spans (<=0 means all).
func Format(p *Profile, topN int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed %s, %s allocs", fmtNS(p.ElapsedNS), fmtCount(p.Allocs))
	if p.ElapsedNS > 0 {
		var sum int64
		for _, ph := range p.Phases {
			sum += ph.SelfNS
		}
		fmt.Fprintf(&b, " (phases cover %.1f%%)", 100*float64(sum)/float64(p.ElapsedNS))
	}
	b.WriteString("\n\nPHASE         COUNT       SELF      %ELAPSED      ALLOCS\n")
	for _, ph := range p.Phases {
		pct := ""
		if p.ElapsedNS > 0 {
			pct = fmt.Sprintf("%5.1f%%", 100*float64(ph.SelfNS)/float64(p.ElapsedNS))
		}
		fmt.Fprintf(&b, "%-12s %6d %10s %12s %11s\n", ph.Phase, ph.Count, fmtNS(ph.SelfNS), pct, fmtCount(ph.Allocs))
	}
	writeRuleTable(&b, "RULE (by self-time)", p.Rules, topN)
	writeRuleTable(&b, "SPAN", p.Spans, topN)
	if len(p.Activities) > 0 {
		b.WriteString("\nACTIVITY               OPS       TIME\n")
		for _, a := range p.Activities {
			fmt.Fprintf(&b, "%-18s %8d %10s\n", a.Name, a.Count, fmtNS(a.NS))
		}
	}
	if len(p.Ranks) > 0 {
		b.WriteString("\nRANK  TASKS  WORKERS    COLLECT       EXEC     ABSORB   BUSY(max/avg)   IDLE%   IMBAL\n")
		for _, r := range p.Ranks {
			avg := "-"
			if r.Workers > 0 {
				avg = fmtNS(r.BusyTotalNS / int64(r.Workers))
			}
			idlePct := 0.0
			if d := int64(r.Workers) * r.ExecNS; d > 0 {
				idlePct = 100 * float64(r.IdleNS) / float64(d)
			}
			fmt.Fprintf(&b, "%4d %6d %8d %10s %10s %10s %9s/%-9s %5.1f%% %7.2f\n",
				r.Rank, r.Tasks, r.Workers, fmtNS(r.CollectNS), fmtNS(r.ExecNS), fmtNS(r.AbsorbNS),
				fmtNS(r.BusyMaxNS), avg, idlePct, r.Imbalance)
		}
	}
	return b.String()
}

func writeRuleTable(b *strings.Builder, title string, rows []obs.Rule, topN int) {
	if len(rows) == 0 {
		return
	}
	n := len(rows)
	if topN > 0 && topN < n {
		n = topN
	}
	fmt.Fprintf(b, "\n%-22s %8s %10s %10s\n", title, "COUNT", "SELF", "TOTAL")
	for _, r := range rows[:n] {
		fmt.Fprintf(b, "%-22s %8d %10s %10s\n", r.Name, r.Count, fmtNS(r.SelfNS), fmtNS(r.TotalNS))
	}
	if n < len(rows) {
		fmt.Fprintf(b, "... %d more\n", len(rows)-n)
	}
}

func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

func fmtCount(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fG", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return strconv.FormatInt(n, 10)
	}
}

// WorkloadProfile names one workload's profile inside a report.
type WorkloadProfile struct {
	Name string `json:"name"`
	*Profile
}

// Report is the stars/profile/v1 document: per-workload profiles plus the
// merged totals.
type Report struct {
	Schema      string `json:"schema"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Parallelism int    `json:"parallelism"`
	// Requests counts the optimizations folded into Totals (the serve
	// daemon's rolling aggregate reports it; batch tools leave it 0 and
	// list Workloads instead).
	Requests  int64             `json:"requests,omitempty"`
	Workloads []WorkloadProfile `json:"workloads,omitempty"`
	Totals    *Profile          `json:"totals"`
}

// NewReport shapes a schema-stamped report.
func NewReport(gomaxprocs, parallelism int) *Report {
	return &Report{Schema: SchemaV1, GOMAXPROCS: gomaxprocs, Parallelism: parallelism, Totals: &Profile{}}
}

// Add appends one workload's profile, kept by reference, and folds it into
// the totals.
func (r *Report) Add(name string, p *Profile) {
	r.Workloads = append(r.Workloads, WorkloadProfile{Name: name, Profile: p})
	r.Totals.Merge(p)
}

// Format renders the whole report: a compact phase line per workload, then
// the merged totals in full.
func (r *Report) Format(topN int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "gomaxprocs=%d parallelism=%d\n", r.GOMAXPROCS, r.Parallelism)
	if r.Requests > 0 {
		fmt.Fprintf(&b, "requests aggregated: %d\n", r.Requests)
	}
	for _, w := range r.Workloads {
		fmt.Fprintf(&b, "\n── %s: %s, %s allocs\n", w.Name, fmtNS(w.ElapsedNS), fmtCount(w.Allocs))
		for _, ph := range w.Phases {
			pct := 0.0
			if w.ElapsedNS > 0 {
				pct = 100 * float64(ph.SelfNS) / float64(w.ElapsedNS)
			}
			fmt.Fprintf(&b, "   %-12s %10s %5.1f%% %11s allocs\n", ph.Phase, fmtNS(ph.SelfNS), pct, fmtCount(ph.Allocs))
		}
	}
	b.WriteString("\n═══ totals ═══\n")
	b.WriteString(Format(r.Totals, topN))
	return b.String()
}
