// Package experiments regenerates every figure and claim of the paper as a
// measurable table — the per-experiment index of DESIGN.md. Each experiment
// returns a Report with the rows the paper's artifact corresponds to, plus a
// pass/fail judgement of whether the reproduced *shape* (who wins, by
// roughly what factor, where crossovers fall) matches the paper's claim.
//
// The harness is shared by cmd/starbench (prints the tables, regenerates
// EXPERIMENTS.md data) and the root bench_test.go (testing.B entry points).
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Report is one experiment's regenerated table.
type Report struct {
	// ID is the experiment id from DESIGN.md (E1..E12, A1..).
	ID string
	// Title is a one-line description.
	Title string
	// Claim restates the paper artifact or claim under reproduction.
	Claim string
	// Headers and Rows are the regenerated table.
	Headers []string
	Rows    [][]string
	// Notes carry free-form observations (chosen plans, caveats).
	Notes []string
	// OK judges whether the reproduced shape matches the claim.
	OK bool
	// Summary is a one-line paper-vs-measured verdict for EXPERIMENTS.md.
	Summary string
	// Elapsed and Allocs profile the experiment's single run: wall-clock
	// time and heap allocation count, filled in by Run for starbench -json.
	Elapsed time.Duration
	Allocs  uint64
}

// Format renders the report as an aligned text table.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&b, "claim: %s\n", r.Claim)
	if len(r.Headers) > 0 {
		widths := make([]int, len(r.Headers))
		for i, h := range r.Headers {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		line := func(cells []string) {
			for i, c := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
			b.WriteString("\n")
		}
		line(r.Headers)
		sep := make([]string, len(r.Headers))
		for i, w := range widths {
			sep[i] = strings.Repeat("-", w)
		}
		line(sep)
		for _, row := range r.Rows {
			line(row)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	verdict := "MATCHES the paper's shape"
	if !r.OK {
		verdict = "DOES NOT MATCH the paper's shape"
	}
	fmt.Fprintf(&b, "verdict: %s — %s\n", verdict, r.Summary)
	return b.String()
}

// runner is one registered experiment.
type runner struct {
	id    string
	title string
	fn    func() (*Report, error)
}

var registry []runner

// register installs an experiment; called from init functions so the
// registry order follows experiment ids.
func register(id, title string, fn func() (*Report, error)) {
	registry = append(registry, runner{id: id, title: title, fn: fn})
}

// IDs lists the registered experiment ids in presentation order: E1..E13
// first, then the ablations (registration order follows source-file names,
// which is not the reading order).
func IDs() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.id
	}
	sort.Slice(out, func(i, j int) bool { return idLess(out[i], out[j]) })
	return out
}

// idLess orders E-experiments before ablations and numerically within each
// family (E2 < E10).
func idLess(a, b string) bool {
	fam := func(s string) int {
		if strings.HasPrefix(s, "E") {
			return 0
		}
		return 1
	}
	num := func(s string) int {
		n := 0
		for _, c := range s {
			if c >= '0' && c <= '9' {
				n = n*10 + int(c-'0')
			}
		}
		return n
	}
	if fam(a) != fam(b) {
		return fam(a) < fam(b)
	}
	return num(a) < num(b)
}

// Titles maps experiment ids to titles.
func Titles() map[string]string {
	out := map[string]string{}
	for _, r := range registry {
		out[r.id] = r.title
	}
	return out
}

// Run executes one experiment by id.
func Run(id string) (*Report, error) {
	for _, r := range registry {
		if strings.EqualFold(r.id, id) {
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			rep, err := r.fn()
			elapsed := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.id, err)
			}
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			rep.Elapsed = elapsed
			rep.Allocs = after.Mallocs - before.Mallocs
			rep.ID = r.id
			if rep.Title == "" {
				rep.Title = r.title
			}
			return rep, nil
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
}

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// fi formats an int64.
func fi(v int64) string { return fmt.Sprintf("%d", v) }
