package coverage

import (
	"fmt"
	"sort"
	"strings"

	"stars/internal/obs"
	"stars/internal/star"
)

// SchemaV1 identifies the JSON coverage report shape.
const SchemaV1 = "stars/coverage/v1"

// Report is the aggregated coverage view, JSON-ready under SchemaV1.
type Report struct {
	Schema  string         `json:"schema"`
	Runs    int64          `json:"runs"`
	Summary Summary        `json:"summary"`
	Rules   []RuleReport   `json:"rules"`
	Veneers []VeneerReport `json:"veneers,omitempty"`
}

// Summary rolls the alternative space up to headline numbers.
type Summary struct {
	// Rules and Alternatives size the alternative space.
	Rules        int `json:"rules"`
	Alternatives int `json:"alternatives"`
	// Exercised counts alternatives that fired (or, for DAG replays, built
	// at least one plan); Retained and Winning count alternatives with at
	// least one surviving / winning plan.
	Exercised int `json:"exercised"`
	Retained  int `json:"retained"`
	Winning   int `json:"winning"`
	// NeverExercised = Alternatives - Exercised; StaticallyDead of those
	// are already flagged by the starcheck linter (see CrossCheck), so the
	// interesting gap is NeverExercised - StaticallyDead.
	NeverExercised int `json:"never_exercised"`
	StaticallyDead int `json:"statically_dead,omitempty"`
	// CoveragePct is 100 * Exercised / Alternatives (100 when the space is
	// empty) — the number the cover command's -min flag gates on.
	CoveragePct float64 `json:"coverage_pct"`
}

// RuleReport groups one rule's alternatives.
type RuleReport struct {
	Rule         string      `json:"rule"`
	File         string      `json:"file,omitempty"`
	Line         int         `json:"line,omitempty"`
	Alternatives []AltReport `json:"alternatives"`
}

// AltReport is one alternative arm's aggregated tallies.
type AltReport struct {
	// Alt is the 1-based ordinal within the rule.
	Alt int `json:"alt"`
	// Line locates the alternative in its rule file (0 when the repertoire
	// was not available to the report).
	Line int `json:"line,omitempty"`
	// Cond renders the guarding condition ("otherwise", "" when
	// unconditional).
	Cond string `json:"cond,omitempty"`
	// Fired counts references where this arm's condition held and the body
	// was evaluated; Rejected counts references where the condition failed.
	Fired    int64 `json:"fired"`
	Rejected int64 `json:"rejected"`
	// Built counts plans the arm produced; Retained those surviving in the
	// final plan table; Pruned those evicted by dominance; Winner those on
	// a chosen plan's derivation chain.
	Built    int64 `json:"built"`
	Retained int64 `json:"retained"`
	Pruned   int64 `json:"pruned"`
	Winner   int64 `json:"winner"`
	// PrunedBy attributes prunes to the dominating plan's origin.
	PrunedBy map[string]int64 `json:"pruned_by,omitempty"`
	// Exercised is Fired > 0 || Built > 0 (DAG replays have no firing
	// counts).
	Exercised bool `json:"exercised"`
	// StaticallyDead marks arms the starcheck linter already proves can
	// never fire (set by CrossCheck); a zero here is expected, not a
	// workload gap.
	StaticallyDead bool `json:"statically_dead,omitempty"`
}

// Key renders the alternative's "Rule#alt" identity.
func (a AltReport) Key(rule string) string { return altKey{rule, a.Alt}.String() }

// VeneerReport is one Glue operator's aggregated tallies.
type VeneerReport struct {
	Op       string `json:"op"`
	Injected int64  `json:"injected"`
	Retained int64  `json:"retained"`
	Winner   int64  `json:"winner"`
}

// Report renders the accumulated tallies. When rs is non-nil it defines the
// universe: every alternative of every rule appears (zero-filled when never
// seen), in repertoire order, enriched with source positions and condition
// text; accumulated alternatives outside rs are appended sorted. With a nil
// rs the report covers exactly what was accumulated, in first-seen order.
func (a *Accumulator) Report(rs *star.RuleSet) *Report {
	rep := &Report{Schema: SchemaV1, Runs: a.runs}

	// Rules are addressed by index: appends reallocate the slice, so
	// pointers into it must not be cached.
	ruleIx := map[string]int{}
	addRule := func(name string) *RuleReport {
		if ix, ok := ruleIx[name]; ok {
			return &rep.Rules[ix]
		}
		ruleIx[name] = len(rep.Rules)
		rep.Rules = append(rep.Rules, RuleReport{Rule: name})
		return &rep.Rules[len(rep.Rules)-1]
	}

	var zero obs.AltCoverage
	addAlt := func(rule string, alt int, line int, cond string) {
		c := a.alts[altKey{rule, alt}]
		if c == nil {
			c = &zero
		}
		ar := AltReport{
			Alt: alt, Line: line, Cond: cond,
			Fired: c.Fired, Rejected: c.Rejected, Built: c.Built,
			Retained: c.Retained, Pruned: c.Pruned, Winner: c.Winner,
			Exercised: c.Fired > 0 || c.Built > 0,
		}
		if len(c.PrunedBy) > 0 {
			ar.PrunedBy = map[string]int64{}
			for o, n := range c.PrunedBy {
				ar.PrunedBy[o] = n
			}
		}
		r := addRule(rule)
		r.Alternatives = append(r.Alternatives, ar)
	}

	if rs != nil {
		for _, name := range rs.Names() {
			r := rs.Get(name)
			rr := addRule(name)
			rr.File, rr.Line = r.Pos.File, r.Pos.Line
			for i, alt := range r.Alts {
				addAlt(name, i+1, alt.Pos.Line, condString(alt))
			}
		}
	}
	// Accumulated alternatives not in rs (or all of them when rs is nil),
	// in first-seen order then sorted extras for a nil-rs report, sorted
	// always when appended after a universe.
	var extras []altKey
	for _, k := range a.order {
		if rs == nil || !inUniverse(rs, k) {
			extras = append(extras, k)
		}
	}
	if rs != nil {
		sort.Slice(extras, func(i, j int) bool {
			if extras[i].rule != extras[j].rule {
				return extras[i].rule < extras[j].rule
			}
			return extras[i].alt < extras[j].alt
		})
	}
	for _, k := range extras {
		addAlt(k.rule, k.alt, 0, "")
	}

	for _, v := range a.veneers {
		rep.Veneers = append(rep.Veneers, VeneerReport{
			Op: v.Op, Injected: v.Injected, Retained: v.Retained, Winner: v.Winner,
		})
	}
	sort.Slice(rep.Veneers, func(i, j int) bool { return rep.Veneers[i].Op < rep.Veneers[j].Op })

	rep.recompute()
	return rep
}

// recompute refreshes the summary from the per-alternative reports (called
// after building and again after CrossCheck marks statically dead arms).
func (r *Report) recompute() {
	s := Summary{Rules: len(r.Rules)}
	for i := range r.Rules {
		for _, a := range r.Rules[i].Alternatives {
			s.Alternatives++
			if a.Exercised {
				s.Exercised++
			} else {
				s.NeverExercised++
				if a.StaticallyDead {
					s.StaticallyDead++
				}
			}
			if a.Retained > 0 {
				s.Retained++
			}
			if a.Winner > 0 {
				s.Winning++
			}
		}
	}
	if s.Alternatives > 0 {
		s.CoveragePct = 100 * float64(s.Exercised) / float64(s.Alternatives)
	} else {
		s.CoveragePct = 100
	}
	r.Summary = s
}

// Meets reports whether the coverage percentage reaches min (a percentage,
// e.g. 80 for 80%).
func (r *Report) Meets(min float64) bool { return r.Summary.CoveragePct >= min }

// Dead lists the never-exercised alternatives as "Rule#alt" keys, the
// statically-dead ones (per CrossCheck) marked with a trailing
// " (statically dead)".
func (r *Report) Dead() []string {
	var out []string
	for i := range r.Rules {
		for _, a := range r.Rules[i].Alternatives {
			if a.Exercised {
				continue
			}
			k := a.Key(r.Rules[i].Rule)
			if a.StaticallyDead {
				k += " (statically dead)"
			}
			out = append(out, k)
		}
	}
	return out
}

// Format renders the report as a text table followed by the
// never-exercised section.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "coverage: %d/%d alternatives exercised (%.1f%%) across %d run(s)\n",
		r.Summary.Exercised, r.Summary.Alternatives, r.Summary.CoveragePct, r.Runs)
	fmt.Fprintf(&b, "          %d retained a plan, %d contributed to a winning plan\n\n",
		r.Summary.Retained, r.Summary.Winning)

	w := 4
	for i := range r.Rules {
		if n := len(r.Rules[i].Rule); n > w {
			w = n
		}
	}
	fmt.Fprintf(&b, "%-*s  %4s %8s %9s %7s %9s %7s %7s\n",
		w, "rule", "alt", "fired", "rejected", "built", "retained", "pruned", "winner")
	for i := range r.Rules {
		rr := &r.Rules[i]
		for _, a := range rr.Alternatives {
			fmt.Fprintf(&b, "%-*s  #%-3d %8d %9d %7d %9d %7d %7d",
				w, rr.Rule, a.Alt, a.Fired, a.Rejected, a.Built, a.Retained, a.Pruned, a.Winner)
			if !a.Exercised {
				if a.StaticallyDead {
					b.WriteString("   DEAD (statically flagged)")
				} else {
					b.WriteString("   NEVER EXERCISED")
				}
			}
			b.WriteByte('\n')
		}
	}

	if len(r.Veneers) > 0 {
		b.WriteString("\nveneers (Glue-injected operators):\n")
		for _, v := range r.Veneers {
			fmt.Fprintf(&b, "  %-10s injected=%d retained=%d winner=%d\n",
				v.Op, v.Injected, v.Retained, v.Winner)
		}
	}

	if r.Summary.NeverExercised > 0 {
		b.WriteString("\nnever exercised:\n")
		for i := range r.Rules {
			rr := &r.Rules[i]
			for _, a := range rr.Alternatives {
				if a.Exercised {
					continue
				}
				fmt.Fprintf(&b, "  %s", a.Key(rr.Rule))
				if rr.File != "" && a.Line > 0 {
					fmt.Fprintf(&b, " (%s:%d)", rr.File, a.Line)
				}
				switch {
				case a.Cond == "otherwise":
					b.WriteString(" otherwise")
				case a.Cond != "":
					fmt.Fprintf(&b, " if %s", a.Cond)
				}
				if a.StaticallyDead {
					b.WriteString("   [statically dead — already flagged by starcheck]")
				} else {
					b.WriteString("   [statically clean — dynamically dead on this workload]")
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// Annotate renders a per-rule-file source view: every rule and alternative
// of the accumulated universe, grouped by source file, each arm flagged
// with its tallies or a NEVER marker — the `go tool cover -html` analogue
// for repertoires, in text.
func (r *Report) Annotate() string {
	type filed struct {
		file  string
		rules []*RuleReport
	}
	var files []*filed
	byFile := map[string]*filed{}
	for i := range r.Rules {
		rr := &r.Rules[i]
		f := byFile[rr.File]
		if f == nil {
			f = &filed{file: rr.File}
			byFile[rr.File] = f
			files = append(files, f)
		}
		f.rules = append(f.rules, rr)
	}

	var b strings.Builder
	for fi, f := range files {
		if fi > 0 {
			b.WriteByte('\n')
		}
		name := f.file
		if name == "" {
			name = "(unknown source)"
		}
		fmt.Fprintf(&b, "— %s\n", name)
		for _, rr := range f.rules {
			fmt.Fprintf(&b, "\nstar %s", rr.Rule)
			if rr.Line > 0 {
				fmt.Fprintf(&b, "   (line %d)", rr.Line)
			}
			b.WriteByte('\n')
			for _, a := range rr.Alternatives {
				marker := fmt.Sprintf("[fired %d, built %d, kept %d, won %d]",
					a.Fired, a.Built, a.Retained, a.Winner)
				if !a.Exercised {
					marker = "[NEVER EXERCISED]"
					if a.StaticallyDead {
						marker = "[NEVER — statically dead]"
					}
				}
				cond := a.Cond
				if cond == "" {
					cond = "unconditional"
				}
				fmt.Fprintf(&b, "  #%d %-40s %s\n", a.Alt, marker, clip(cond, 48))
			}
		}
	}
	return b.String()
}

// condString renders an alternative's guard for reports.
func condString(alt *star.Alt) string {
	if alt.Otherwise {
		return "otherwise"
	}
	if alt.Cond != nil {
		return alt.Cond.String()
	}
	return ""
}

// clip truncates s to at most n runes with an ellipsis.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
