package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"stars"
	"stars/internal/workload"
)

// profileMain is the `starburst profile` subcommand: run the optimizer
// against the workload corpus (plus the enumeration-benchmark fixtures
// chain8 and star8) with the self-profiler attached and report where the
// time and the allocations go — per phase, per STAR, per activity, and per
// parallel rank.
//
//	starburst profile                      # corpus + bench fixtures, text report
//	starburst profile -json                # stars/profile/v1 JSON report
//	starburst profile -workload star8      # one workload (comma-separated list)
//	starburst profile -parallelism 4       # profile the parallel path (rank telemetry)
//	starburst profile -q "SELECT ..."      # one ad-hoc query instead of the corpus
//	starburst profile -pprof-labels        # also tag goroutines with phase=/rank=/star=
//	starburst profile -top 5               # shorten the rule/span tables
//
// Parallelism defaults to 1: in the serial path the per-rule allocation
// attribution is exact, whereas parallel workers share one process-wide
// allocation counter and add cross-worker noise to per-rule figures (phase
// and rank figures stay exact). Exit status: 0 ok, 1 run errors, 2 usage.
func profileMain(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	var (
		rulesPath = fs.String("rules", "", "STAR rule file merged over the base repertoire")
		extList   = fs.String("ext", "", "comma-separated extensions whose repertoire to profile: semijoin, bloom, outerjoin")
		jsonOut   = fs.Bool("json", false, "emit a stars/profile/v1 JSON report instead of text")
		topN      = fs.Int("top", 12, "rule/span rows to list per table (<=0 = all)")
		parallel  = fs.Int("parallelism", 1, "join-enumeration worker fan-out (0 = GOMAXPROCS; >1 populates rank telemetry)")
		filter    = fs.String("workload", "", "comma-separated workload names to profile (default: all); see -list")
		listW     = fs.Bool("list", false, "list workload names and exit")
		q         = fs.String("q", "", "profile this SQL query instead of the workload corpus")
		catPath   = fs.String("catalog", "", "catalog JSON file for -q (default: the EMP/DEPT demo catalog)")
		labels    = fs.Bool("pprof-labels", false, "tag goroutines with pprof labels (phase=, rank=, star=) for external CPU profiles")
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	opts, target, err := repertoireOptions(*extList, *rulesPath)
	if err != nil {
		fatal(err)
	}
	opts.Parallelism = *parallel
	if *parallel == 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	popts := stars.ProfileOptions{Labels: *labels}
	report := stars.NewProfileReport(runtime.GOMAXPROCS(0), opts.Parallelism)

	if *q != "" {
		cat, _, err := loadCatalog(*catPath)
		if err != nil {
			fatal(err)
		}
		sink := stars.NewMetricsSink()
		stars.EnableProfiling(sink, popts)
		o := opts
		o.Obs = sink
		a0, t0 := stars.HeapAllocs(), time.Now()
		// The SQL front end runs before Optimize sees the sink, so bill it
		// explicitly as the "parse" phase.
		g, err := stars.ParseSQL(*q, cat)
		if err != nil {
			fatal(err)
		}
		sink.ProfPhase("parse", time.Since(t0), stars.HeapAllocs()-a0) //obsguard:ignore one-shot CLI; profiling was just enabled above
		if _, err := stars.Optimize(cat, g, o); err != nil {
			fatal(err)
		}
		p := stars.ProfileOf(sink)
		p.ElapsedNS = time.Since(t0).Nanoseconds()
		p.Allocs = stars.HeapAllocs() - a0
		report.Add("query", p)
		emitProfile(report, *jsonOut, *topN, target)
		return
	}

	entries := profileWorkloads()
	if *listW {
		for _, e := range entries {
			fmt.Println(e.Name)
		}
		return
	}
	want := map[string]bool{}
	if *filter != "" {
		for _, name := range strings.Split(*filter, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	ran := 0
	for _, entry := range entries {
		if len(want) > 0 && !want[entry.Name] {
			continue
		}
		sink := stars.NewMetricsSink()
		stars.EnableProfiling(sink, popts)
		o := opts
		o.Obs = sink
		a0, t0 := stars.HeapAllocs(), time.Now()
		if _, err := stars.Optimize(entry.Cat, entry.Query, o); err != nil {
			fmt.Fprintf(os.Stderr, "profile: skipping %s: %v\n", entry.Name, err)
			continue
		}
		p := stars.ProfileOf(sink)
		p.ElapsedNS = time.Since(t0).Nanoseconds()
		p.Allocs = stars.HeapAllocs() - a0
		report.Add(entry.Name, p)
		ran++
	}
	if ran == 0 {
		fatal(fmt.Errorf("no workload matched -workload %q (run with -list for names)", *filter))
	}
	emitProfile(report, *jsonOut, *topN, target)
}

// profileWorkloads is the corpus plus the two enumeration fixtures
// TestPinnedEnumerationFixtures (internal/opt) pins and bench/'s lib_scale
// sweeps, so `starburst profile -workload star8` profiles exactly them.
func profileWorkloads() []stars.WorkloadEntry {
	entries := stars.WorkloadCorpus()
	entries = append(entries,
		stars.WorkloadEntry{
			Name:  "chain8",
			Cat:   workload.ChainCatalog(8, 400, 150, 60, 200, 90, 500, 120, 80),
			Query: workload.ChainQuery(8),
		},
		stars.WorkloadEntry{
			Name:  "star8",
			Cat:   workload.StarCatalog(8, 100000, 500),
			Query: workload.StarQuery(8),
		},
	)
	return entries
}

func emitProfile(report *stars.ProfileReport, jsonOut bool, topN int, target string) {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("self-profile of the %s\n", target)
	fmt.Print(report.Format(topN))
}
