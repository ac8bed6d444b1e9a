// Command starbench regenerates the paper's figures and claims as measured
// tables — the experiment harness indexed in DESIGN.md and summarized in
// EXPERIMENTS.md.
//
// Usage:
//
//	starbench -list           list experiment ids and titles
//	starbench -e E5           run one experiment
//	starbench -e all          run every experiment (default)
//	starbench -e all -md      also emit a Markdown summary table
//	starbench -e all -metrics print Prometheus-style metrics aggregated
//	                          across every optimization/execution run
//	starbench -coverage       also print alternative-space utilization: how
//	                          much of the STAR repertoire the coverage
//	                          corpus exercises (deep report: starburst cover)
//	starbench -json out.json  also write machine-readable per-experiment
//	                          results (schema starbench/v1): verdicts, the
//	                          regenerated tables, wall-clock ns and heap
//	                          allocations, and per-experiment optimizer
//	                          counters (plans enumerated, prune rate, ...)
//	starbench -profile        also report a per-workload self-profile of
//	                          the coverage corpus: phase wall-time and
//	                          allocation breakdowns (deep report:
//	                          starburst profile)
//	starbench -memprofile f   optimize star8 once serially and write its
//	                          allocation profile (make memprofile)
//	starbench -cpuprofile d   optimize star8 and chain14 serially, untraced,
//	                          and write d/star8.cpuprof and
//	                          d/chain14.cpuprof (make cpuprofile)
//
// Experiments optimize at the library default fan-out (GOMAXPROCS; results
// are identical at every level). Performance is measured and gated by
// bench/ (BENCHMARK.json), not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"stars"
	"stars/internal/catalog"
	"stars/internal/experiments"
	"stars/internal/query"
	"stars/internal/workload"
)

// jsonSchema tags the -json export; bump on incompatible changes.
const jsonSchema = "starbench/v1"

// jsonExperiment is one experiment's machine-readable result.
type jsonExperiment struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Claim     string     `json:"claim,omitempty"`
	OK        bool       `json:"ok"`
	Summary   string     `json:"summary,omitempty"`
	ElapsedNS int64      `json:"elapsed_ns"`
	Allocs    uint64     `json:"allocs"`
	Headers   []string   `json:"headers,omitempty"`
	Rows      [][]string `json:"rows,omitempty"`
	Notes     []string   `json:"notes,omitempty"`
	// PlansEnumerated counts plans the rule engine built during the
	// experiment; PruneRate is plan-table prunes over inserts.
	PlansEnumerated int64   `json:"plans_enumerated"`
	PlansPruned     int64   `json:"plans_pruned"`
	PruneRate       float64 `json:"prune_rate"`
	// Metrics are the experiment's deltas of every optimizer/executor
	// counter (see DumpMetrics for the name catalog).
	Metrics map[string]int64 `json:"metrics,omitempty"`
	Error   string           `json:"error,omitempty"`
}

type jsonDoc struct {
	Schema string `json:"schema"`
	// Parallelism is the join-enumeration fan-out the experiments'
	// optimizations ran with; GOMAXPROCS records the machine's core
	// budget, for interpreting the elapsed numbers.
	Parallelism int              `json:"parallelism"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	Experiments []jsonExperiment `json:"experiments"`
}

func main() {
	var (
		exp       = flag.String("e", "all", "experiment id to run, or 'all'")
		list      = flag.Bool("list", false, "list experiments and exit")
		markdown  = flag.Bool("md", false, "emit a Markdown summary table after the reports")
		metricsF  = flag.Bool("metrics", false, "print Prometheus text-format metrics aggregated over all runs")
		jsonOut   = flag.String("json", "", "write machine-readable per-experiment results (schema starbench/v1) to this path")
		coverageF = flag.Bool("coverage", false, "also report alternative-space utilization: run the coverage corpus and print how much of the repertoire the workload exercises")
		profileF  = flag.Bool("profile", false, "also report a per-workload self-profile of the coverage corpus: phase wall-time and allocation breakdowns")
		memProf   = flag.String("memprofile", "", "optimize the star8 workload once serially and write its allocation profile to this path (render with go tool pprof -top)")
		cpuProf   = flag.String("cpuprofile", "", "optimize star8 and chain14 serially and untraced for 5 s each, and write their CPU profiles into this directory (render with go tool pprof -top)")
	)
	flag.Parse()

	if *memProf != "" || *cpuProf != "" {
		var err error
		if *memProf != "" {
			err = memProfile(*memProf)
		} else {
			err = cpuProfile(*cpuProf, 5*time.Second)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// A non-tracing sink as the process default: every optimization the
	// experiments run reports into it without per-call plumbing, and no
	// search-step event is rendered or stored. -json brackets each
	// experiment with counter snapshots to attribute the totals.
	var sink *stars.Sink
	if *metricsF || *jsonOut != "" {
		sink = stars.NewMetricsSink()
		stars.SetDefaultSink(sink)
	}

	if *list {
		titles := experiments.Titles()
		for _, id := range experiments.IDs() {
			fmt.Printf("%-4s %s\n", id, titles[id])
		}
		return
	}

	ids := []string{*exp}
	if strings.EqualFold(*exp, "all") {
		ids = experiments.IDs()
	}

	var (
		reports []*experiments.Report
		results []jsonExperiment
		errs    []error
	)
	for _, id := range ids {
		before := sink.Registry().Counters()
		rep, err := experiments.Run(id)
		if err != nil {
			errs = append(errs, err)
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			results = append(results, jsonExperiment{ID: id, Error: err.Error()})
			continue
		}
		reports = append(reports, rep)
		if *jsonOut != "" {
			results = append(results, toJSON(rep, counterDelta(before, sink.Registry().Counters())))
		}
	}
	if len(errs) > 0 && strings.EqualFold(*exp, "all") {
		defer os.Exit(1)
	} else if len(errs) > 0 {
		os.Exit(1)
	}

	failed := 0
	for _, rep := range reports {
		fmt.Println(rep.Format())
		if !rep.OK {
			failed++
		}
	}
	if *markdown {
		fmt.Println("\n## Summary (paper vs. measured)")
		fmt.Println()
		fmt.Println("| Id | Artifact / claim | Verdict |")
		fmt.Println("|---|---|---|")
		for _, rep := range reports {
			verdict := "✅ matches"
			if !rep.OK {
				verdict = "❌ mismatch"
			}
			fmt.Printf("| %s | %s | %s — %s |\n", rep.ID, rep.Title, verdict, rep.Summary)
		}
	}
	if *coverageF {
		reportCoverage()
	}
	if *profileF {
		reportProfile()
	}
	if *metricsF {
		fmt.Println("\n## Metrics (Prometheus text format)")
		fmt.Println()
		if err := sink.DumpMetrics(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, results); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d experiment result(s) to %s\n", len(results), *jsonOut)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) did not match the paper's shape\n", failed)
		os.Exit(1)
	}
}

// reportCoverage runs the coverage workload corpus under the built-in
// repertoire and prints alternative-space utilization alongside the
// experiments' perf numbers: how much of the repertoire the representative
// workload exercises (the deep report is `starburst cover`). The per-run
// coverage summary is all it reads, so non-tracing sinks do.
func reportCoverage() {
	acc := stars.NewCoverageAccumulator()
	for _, entry := range stars.WorkloadCorpus() {
		sink := stars.NewMetricsSink()
		if _, err := stars.Optimize(entry.Cat, entry.Query, stars.Options{Obs: sink}); err != nil {
			fmt.Fprintf(os.Stderr, "coverage: %s: %v\n", entry.Name, err)
			continue
		}
		acc.AddEvents(sink.Events())
	}
	rep := acc.Report(stars.DefaultRules())
	s := rep.Summary
	fmt.Println("\n## Alternative-space utilization (coverage corpus)")
	fmt.Println()
	fmt.Printf("%d/%d alternatives exercised (%.1f%%) across %d run(s); %d retained a plan, %d won\n",
		s.Exercised, s.Alternatives, s.CoveragePct, rep.Runs, s.Retained, s.Winning)
	if dead := rep.Dead(); len(dead) > 0 {
		fmt.Printf("never exercised: %s\n", strings.Join(dead, ", "))
	}
}

// reportProfile runs the coverage corpus with the self-profiler attached
// and prints each workload's phase breakdown plus the merged totals (the
// deep report is `starburst profile`). Like that command it runs serially,
// where the per-rule allocation attribution is exact.
func reportProfile() {
	report := stars.NewProfileReport(runtime.GOMAXPROCS(0), 1)
	for _, entry := range stars.WorkloadCorpus() {
		sink := stars.NewMetricsSink()
		stars.EnableProfiling(sink, stars.ProfileOptions{})
		a0, t0 := stars.HeapAllocs(), time.Now()
		if _, err := stars.Optimize(entry.Cat, entry.Query, stars.Options{Obs: sink, Parallelism: 1}); err != nil {
			fmt.Fprintf(os.Stderr, "profile: %s: %v\n", entry.Name, err)
			continue
		}
		p := stars.ProfileOf(sink)
		p.ElapsedNS = time.Since(t0).Nanoseconds()
		p.Allocs = stars.HeapAllocs() - a0
		report.Add(entry.Name, p)
	}
	fmt.Println("\n## Self-profile (coverage corpus)")
	fmt.Println()
	fmt.Print(report.Format(8))
}

// toJSON converts a report plus its counter deltas into the wire form.
func toJSON(rep *experiments.Report, metrics map[string]int64) jsonExperiment {
	out := jsonExperiment{
		ID: rep.ID, Title: rep.Title, Claim: rep.Claim,
		OK: rep.OK, Summary: rep.Summary,
		ElapsedNS: rep.Elapsed.Nanoseconds(), Allocs: rep.Allocs,
		Headers: rep.Headers, Rows: rep.Rows, Notes: rep.Notes,
		PlansEnumerated: metrics["star_plans_built_total"],
		PlansPruned:     metrics["plantable_pruned_total"],
		Metrics:         metrics,
	}
	if ins := metrics["plantable_inserted_total"]; ins > 0 {
		out.PruneRate = float64(out.PlansPruned) / float64(ins)
	}
	return out
}

// counterDelta subtracts snapshot a from b, keeping nonzero deltas.
func counterDelta(a, b map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for name, v := range b {
		if d := v - a[name]; d != 0 {
			out[name] = d
		}
	}
	return out
}

func writeJSON(path string, results []jsonExperiment) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	// The experiments leave Options.Parallelism zero, which is GOMAXPROCS.
	procs := runtime.GOMAXPROCS(0)
	err = enc.Encode(jsonDoc{Schema: jsonSchema, Parallelism: procs,
		GOMAXPROCS: procs, Experiments: results})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// memProfile handles -memprofile: optimize the star8 workload once serially —
// after a warmup run whose Release leaves its grown arena in the pool, so the
// profile shows steady-state allocation (no Node or Props chunks) — and write
// the allocation profile. `make memprofile`
// renders it with `go tool pprof -top` into the checked-in
// docs/perf/star8_allocs.txt snapshot, so allocation regressions show up in
// review diffs.
func memProfile(path string) error {
	cat := workload.StarCatalog(8, 100000, 500)
	run := func() (elapsed time.Duration, allocs int64, fp string, err error) {
		a0, t0 := stars.HeapAllocs(), time.Now()
		res, err := stars.Optimize(cat, workload.StarQuery(8), stars.Options{Parallelism: 1})
		if err != nil {
			return 0, 0, "", fmt.Errorf("star8: %w", err)
		}
		elapsed, allocs = time.Since(t0), stars.HeapAllocs()-a0
		fp = res.Best.Fingerprint()
		res.Release()
		return elapsed, allocs, fp, nil
	}
	if _, _, _, err := run(); err != nil {
		return err
	}
	runtime.MemProfileRate = 1
	elapsed, allocs, fp, err := run()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // flush the profile's accounting before the snapshot
	err = pprof.Lookup("allocs").WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "star8 serial: %v, %d allocs, fp %s; wrote allocation profile to %s\n",
		elapsed.Round(time.Millisecond), allocs, fp, path)
	return nil
}

// cpuProfile handles -cpuprofile: for star8 and chain14 in turn, optimize once
// to warm the workspace pool, then optimize serially and untraced for about d
// under the CPU profiler, writing dir/<name>.cpuprof. `make cpuprofile`
// renders them with `go tool pprof -top` into the checked-in
// docs/perf/*_cpu.txt snapshots, so a time claim diffs a profile, not only a
// wall clock.
func cpuProfile(dir string, d time.Duration) error {
	points := []struct {
		name string
		cat  *catalog.Catalog
		g    *query.Graph
	}{
		{"star8", workload.StarCatalog(8, 100000, 500), workload.StarQuery(8)},
		// The table cardinalities the bench/ chain fixtures use.
		{"chain14", workload.ChainCatalog(14, 400, 150, 60, 200, 90, 500, 120, 80), workload.ChainQuery(14)},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, pt := range points {
		if _, err := optimizeSerial(pt.name, pt.cat, pt.g); err != nil {
			return err
		}
		path := filepath.Join(dir, pt.name+".cpuprof")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		var fp string
		n, t0 := 0, time.Now()
		for ; err == nil && (n == 0 || time.Since(t0) < d); n++ {
			fp, err = optimizeSerial(pt.name, pt.cat, pt.g)
		}
		elapsed := time.Since(t0)
		pprof.StopCPUProfile()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s serial: %d runs, %v/op, fp %s; wrote CPU profile to %s\n",
			pt.name, n, (elapsed / time.Duration(n)).Round(10*time.Microsecond), fp, path)
	}
	return nil
}

// optimizeSerial optimizes g once at Parallelism 1, untraced, releases the
// result and returns its best plan's fingerprint.
func optimizeSerial(name string, cat *catalog.Catalog, g *query.Graph) (string, error) {
	res, err := stars.Optimize(cat, g, stars.Options{Parallelism: 1})
	if err != nil {
		return "", fmt.Errorf("%s: %w", name, err)
	}
	defer res.Release()
	return res.Best.Fingerprint(), nil
}
