// Command bench is the repository's benchmark: it drives `starburst serve`
// and the library end to end on four seeded workloads and, in a separate
// traced run, times the calls into each layer. BENCHMARK.json at the root of
// the repository declares its command, workloads, metrics and bounds;
// README.md in this directory says why each was chosen.
//
//	bash bench/run.sh [-workload a,b] [-seed n] [-seconds s] [-trace 0|1] [-out dir]
//	bash bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// workloads are declared in BENCHMARK.json under the same names, each with
// the reason it was chosen.
var workloads = []string{"serve_small", "serve_wide", "serve_explain", "lib_scale"}

type metricDef struct{ name, unit string }

// endToEnd metrics are what a user of the system sees; BENCHMARK.json gives
// each its direction and regression bound.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"plan_cost_geomean", "cost"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload in one mode. Its first four fields are
// the line the run prints last; the rest go to the results file.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds an end-to-end run's load figures: measured and comparable,
	// but no part of the declared end-to-end metrics.
	Info     map[string]metric `json:"info,omitempty"`
	Workload string            `json:"workload,omitempty"`
	Trace    int               `json:"trace"`
	Env      *environment      `json:"env,omitempty"`

	values map[string]float64
	notes  []string
}

// fail counts one wrong or failed output.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if r.Failed <= 10 {
		fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", r.Workload, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// environment is the block every recorded result carries.
type environment struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GitRev     string `json:"git_rev"`
	Seed       int64  `json:"seed"`
}

func readEnvironment(seed int64) *environment {
	env := &environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), GitRev: os.Getenv("BENCH_GIT_REV"), Seed: seed}
	if env.GitRev == "" { // run.sh sets it when the checkout is a git repository
		env.GitRev = "unknown"
	}
	return env
}

// finish fills the printed metrics from the measured values: exactly the
// declared ones, each with its unit.
func (r *result) finish(defs []metricDef) {
	r.Correct = r.Failed == 0
	r.Metrics = r.collect(defs)
	if r.Trace == 0 {
		r.Info = r.collect(loadMetrics)
	}
}

func (r *result) collect(defs []metricDef) map[string]metric {
	out := map[string]metric{}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			panic("bench: metric " + d.name + " was not measured")
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// print writes every metric by name with its unit, then the result line.
func (r *result) print(defs []metricDef) error {
	mode := "end to end"
	if r.Trace == 1 {
		mode = "per layer (traced)"
	}
	fmt.Printf("\n%s, %s, seed %d\n", r.Workload, mode, r.Env.Seed)
	for _, n := range r.notes {
		fmt.Printf("  %s\n", n)
	}
	for _, d := range defs {
		fmt.Printf("  %-32s %16.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	if r.Info != nil {
		fmt.Println("  without a bound (per-layer metrics of the traced run):")
		for _, d := range loadMetrics {
			fmt.Printf("  %-32s %16.6g %s\n", d.name, r.Info[d.name].Value, d.unit)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

// record appends the result to the results file of the output directory.
func (r *result) record(dir string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	seed := flag.Int64("seed", 1, "workload seed")
	names := flag.String("workload", "", "comma-separated workloads (default: all)")
	seconds := flag.Float64("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", -1, "0: end-to-end run, 1: traced per-layer run (default: both)")
	out := flag.String("out", "bench/out", "directory for results.jsonl, traces and budget tables")
	cmp := flag.Bool("compare", false, "compare two results files: -compare a.jsonl b.jsonl")
	flag.Parse()
	if *cmp {
		os.Exit(compare(flag.Args()))
	}
	if err := run(*names, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(names string, seed int64, seconds float64, trace int, out string) error {
	selected := workloads
	if names != "" {
		selected = nil
		for _, n := range strings.Split(names, ",") {
			if !slices.Contains(workloads, n) {
				return fmt.Errorf("unknown workload %q", n)
			}
			selected = append(selected, n)
		}
	}
	if flag.NArg() > 0 || trace < -1 || trace > 1 || seconds <= 0 {
		return fmt.Errorf("bad arguments; see -help")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	env := readEnvironment(seed)
	wrong := 0
	for _, w := range selected {
		list := generate(w, buildCatalog(), seed)
		for mode := 0; mode <= 1; mode++ {
			if trace >= 0 && trace != mode {
				continue
			}
			var res *result
			var err error
			defs := endToEndMetrics
			if mode == 0 {
				res, err = endToEnd(w, list, seed, seconds)
			} else {
				defs = perLayerMetrics
				res, err = traced(w, list, seconds, out)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", w, err)
			}
			res.Trace, res.Env = mode, env
			res.finish(defs)
			if err := res.print(defs); err != nil {
				return err
			}
			if err := res.record(out); err != nil {
				return err
			}
			if !res.Correct {
				wrong++
			}
		}
	}
	if wrong > 0 {
		return fmt.Errorf("%d run(s) had wrong or failed outputs", wrong)
	}
	return nil
}
