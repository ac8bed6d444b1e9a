package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// declaration is BENCHMARK.json as -compare needs it.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// readResults groups a results file's values by workload and metric: the
// end-to-end metrics and load figures of its end-to-end runs and the
// per-layer metrics of its traced runs. A file may hold several runs of a
// workload.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for _, metrics := range []map[string]metric{r.Metrics, r.Info} {
			for name, m := range metrics {
				if r.Trace == 1 && strings.HasPrefix(name, "load.") {
					continue // the end-to-end runs' load figures are the ones compared
				}
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
	}
	return out, sc.Err()
}

// verdict judges the change from base runs a to runs b of one metric: a
// regression when b's median is worse than a's by more than the bound;
// otherwise unresolved when either side's spread exceeds the bound, improved
// when b is better by more than a's spread, and unchanged.
func verdict(m boundedMetric, a, b []float64) (medA, medB float64, word string) {
	medA, spreadA := spreadOf(a)
	medB, spreadB := spreadOf(b)
	worse := (medB - medA) / medA
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		word = "REGRESSION"
	case max(spreadA, spreadB) > m.Bound:
		word = "unresolved"
	case -worse > spreadA && worse != 0:
		word = "improved"
	default:
		word = "unchanged"
	}
	return medA, medB, word
}

// compare applies BENCHMARK.json's bounds to two results files and prints one
// row per workload and metric: the end-to-end metrics with a verdict, then
// whatever else both files hold (load figures, per-layer metrics), which has
// no bound. It returns the exit code: 1 on a regression, 2 on unusable input.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: -compare a.jsonl b.jsonl")
		return 2
	}
	decl, err := readDeclaration("BENCHMARK.json")
	var a, b map[string]map[string][]float64
	if err == nil {
		a, err = readResults(args[0])
	}
	if err == nil {
		b, err = readResults(args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	fmt.Printf("%-14s %-28s %13s %13s %18s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "verdict")
	row := func(w, name string, medA, medB float64, rest string) {
		fmt.Printf("%-14s %-28s %13.6g %13.6g %8.4f of %-6.4g  %s\n", w, name, medA, medB, medB/medA, medA, rest)
	}
	for _, w := range decl.Workloads {
		gated := map[string]bool{}
		for _, m := range decl.EndToEnd {
			gated[m.Name] = true
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			medA, medB, word := verdict(m, va, vb)
			if word == "REGRESSION" {
				code = 1
			}
			row(w.Name, m.Name, medA, medB,
				fmt.Sprintf("%s (bound %g, %s is better, n=%d/%d)", word, m.Bound, m.Better, len(va), len(vb)))
		}
		var rest []string
		for name := range a[w.Name] {
			if !gated[name] && len(b[w.Name][name]) > 0 {
				rest = append(rest, name)
			}
		}
		sort.Strings(rest)
		for _, name := range rest {
			medA, spreadA := spreadOf(a[w.Name][name])
			medB, spreadB := spreadOf(b[w.Name][name])
			if medA == 0 && medB == 0 {
				continue
			}
			row(w.Name, name, medA, medB, fmt.Sprintf("no bound (spread %.3f / %.3f, n=%d/%d)",
				spreadA, spreadB, len(a[w.Name][name]), len(b[w.Name][name])))
		}
	}
	return code
}
