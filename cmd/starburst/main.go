// Command starburst is the reproduction's CLI: parse a query against a
// catalog, optimize it with the STAR rules, explain or trace the result,
// and execute it on generated data.
//
// Usage:
//
//	starburst explain  -q "SELECT ..." [-catalog file.json] [-rules file.star] [-v] [-dot]
//	starburst run      -q "SELECT ..." [-catalog file.json] [-rules file.star] [-seed 1] [-limit 10]
//	                   [-analyze] [-trace-out trace.json] [-metrics]
//	starburst trace    -q "SELECT ..." [-catalog file.json] [-rules file.star]
//	starburst diff     -q "SELECT ..." [-ablate pruning|keepall|leftdeep|cartesian]
//	starburst diff     a.json b.json          # diff two saved provenance DAGs
//	starburst rules    [-rules file.star]     # print the active repertoire
//	starburst lint     [-rules file.star] [-ext semijoin,bloom,outerjoin]
//	                   [-catalog file.json] [-json] [-werror]
//	starburst cover    [-rules file.star] [-ext semijoin,bloom,outerjoin]
//	                   [-json] [-annotate] [-min pct] [dag.json ...]
//	starburst profile  [-rules file.star] [-ext ...] [-json] [-top N]
//	                   [-workload star8,chain8] [-parallelism N]
//	                   [-pprof-labels] [-q "SELECT ..."]
//	starburst catalog                         # dump the demo catalog as JSON
//	starburst incidents [-dir incidents] [-json] [id-or-file]
//	starburst replay   [-v] [-dag-out file] incident.json
//	starburst serve    [-addr :8080] [-catalog file.json] [-rules file.star]
//	                   [-max-inflight 64] [-timeout 30s] [-drain-timeout 10s]
//	                   [-event-buffer 1024] [-seed 1] [-parallelism 1]
//	                   [-incident-dir dir] [-no-flight] [-flight-latency-factor 4]
//	                   [-flight-latency-floor 10ms] [-flight-min-samples 8]
//	                   [-flight-qerror 100]
//
// Every command accepts -parallelism N: the join-enumeration worker fan-out
// per optimization (0 = GOMAXPROCS). Results are identical at every level;
// see docs/PERFORMANCE.md. serve defaults to 1 because concurrent requests
// already keep a loaded server's cores busy.
//
// serve runs the optimizer as a long-lived HTTP daemon: POST /optimize
// answers concurrent optimization (and execution) requests with
// per-request trace isolation, GET /metrics serves Prometheus metrics
// aggregated across requests, GET /events streams live observability
// events (NDJSON, or SSE via Accept: text/event-stream), plus /healthz,
// /readyz, and /debug/pprof. SIGINT/SIGTERM drain gracefully. See
// docs/SERVING.md.
//
// explain, run, and trace additionally accept the provenance flags
//
//	-why best|<fp>      print a plan's full derivation chain (STAR
//	                    alternatives fired, Glue veneers applied)
//	-whynot <fp>        print the forensics of a plan's rejection: the
//	                    dominating plan, both costs, or the failing
//	                    conditions of applicability
//	-dag-out file       write the search-space provenance DAG (Graphviz
//	                    dot, or stable JSON when the path ends in .json)
//
// Starting with a flag implies "run", and omitting -q uses the quickstart
// EMP/DEPT query, so the one-liner observability demo is
//
//	starburst -analyze -trace-out=trace.json
//
// lint statically checks a STAR rule set (stable SCnnn diagnostics:
// undefined references, arity and kind mismatches, unreachable STARs, dead
// alternatives, likely-nonterminating recursion, unsatisfiable required
// properties, name hygiene — see docs/LINTING.md) and exits nonzero on
// errors, or on any finding with -werror. The same analyzer runs
// automatically, warn-level, whenever -rules files load.
//
// cover is lint's dynamic complement: it optimizes the built-in workload
// corpus (or replays saved provenance DAGs) and reports how often every
// STAR alternative fired, built plans, survived pruning, and won —
// flagging lint-clean alternatives the workload never exercises. -min N
// makes it a CI gate, like `go test -cover` with a floor; see
// docs/COVERAGE.md.
//
// profile runs the self-profiler over the workload corpus (plus the
// enumeration-benchmark fixtures chain8 and star8) and reports where
// optimization time and allocations go: per phase (prepare, access, join
// ranks, root, finalize), per STAR by self-time, per activity (guard
// evaluation, cost pricing, plan-table offers), and — at -parallelism > 1 —
// per parallel rank with worker busy/idle/imbalance telemetry. -json emits
// the stars/profile/v1 document CI smoke-checks; see docs/PERFORMANCE.md.
//
// diff exits 0 when the two runs (or saved DAGs) derive identical plan
// sets with identical fates and costs, 1 when they differ — usable as a
// plan-regression gate.
//
// incidents browses the bundles a serving daemon's flight recorder captured
// (plan flips, latency outliers, Q-error blowups — see docs/OBSERVABILITY.md),
// and replay re-optimizes a bundle from its captured catalog, rules, and
// options, diffing the fresh derivation DAG against the captured one: exit
// 0 when identical, 1 on drift, 2 on errors.
//
// Without -catalog, the paper's EMP/DEPT demo catalog is used; try
//
//	starburst run -q "SELECT DEPT.DNO, EMP.NAME FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO AND DEPT.MGR = 'Haas'"
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"stars"
)

// demoQuery is the quickstart query — the default when -q is omitted with
// the demo catalog.
const demoQuery = "SELECT DEPT.DNO, EMP.NAME FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO AND DEPT.MGR = 'Haas'"

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	args := os.Args[1:]
	cmd := "run"
	if !strings.HasPrefix(args[0], "-") {
		cmd = args[0]
		args = args[1:]
	}
	if cmd == "lint" {
		lintMain(args)
		return
	}
	if cmd == "cover" {
		coverMain(args)
		return
	}
	if cmd == "profile" {
		profileMain(args)
		return
	}
	if cmd == "incidents" {
		incidentsMain(args)
		return
	}
	if cmd == "replay" {
		replayMain(args)
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		q        = fs.String("q", "", "SQL query (default: the quickstart EMP/DEPT query)")
		catPath  = fs.String("catalog", "", "catalog JSON file (default: the EMP/DEPT demo catalog)")
		rules    = fs.String("rules", "", "STAR rule file replacing the built-in repertoire")
		verbose  = fs.Bool("v", false, "explain with full property vectors")
		dot      = fs.Bool("dot", false, "explain as Graphviz dot output")
		seed     = fs.Int64("seed", 1, "data-generation seed for run")
		limit    = fs.Int("limit", 10, "max rows to print for run")
		analyze  = fs.Bool("analyze", false, "EXPLAIN ANALYZE: per-operator estimated vs actual rows/cost and Q-error (run only)")
		traceOut = fs.String("trace-out", "", "write a Chrome trace_event JSON file (chrome://tracing, ui.perfetto.dev) to this path")
		metricsF = fs.Bool("metrics", false, "print Prometheus-style metrics after the command")
		why      = fs.String("why", "", "print the derivation chain of a plan: 'best' or a 16-hex-digit fingerprint")
		whyNot   = fs.String("whynot", "", "explain why the plan with this fingerprint was pruned, rejected, or never derived")
		dagOut   = fs.String("dag-out", "", "write the search-space provenance DAG to this path (Graphviz dot; stable JSON if it ends in .json)")
		ablate   = fs.String("ablate", "pruning", "diff variant: pruning|keepall|leftdeep|cartesian")
		addr     = fs.String("addr", ":8080", "serve: listen address")
		maxInfl  = fs.Int("max-inflight", 64, "serve: max concurrently admitted /optimize requests (excess get 503)")
		timeout  = fs.Duration("timeout", 30*time.Second, "serve: per-request optimize+execute deadline (504 on expiry)")
		drainT   = fs.Duration("drain-timeout", 10*time.Second, "serve: max wait for in-flight requests on shutdown")
		eventBuf = fs.Int("event-buffer", 1024, "serve: per-subscriber /events buffer (full buffers drop, never block)")
		parallel = fs.Int("parallelism", 1, "join-enumeration worker fan-out per optimization (0 = GOMAXPROCS; results are identical at every level; a traced run uses one worker)")
		incDir   = fs.String("incident-dir", "", "serve: directory the flight recorder writes incident bundles to (in-memory only when empty)")
		noFlight = fs.Bool("no-flight", false, "serve: disable the flight recorder and plan-stability watchdog entirely")
		flLatF   = fs.Float64("flight-latency-factor", 0, "serve: flag requests slower than this multiple of their template's rolling baseline (0 = default 4)")
		flLatFl  = fs.Duration("flight-latency-floor", 0, "serve: absolute latency a request must also exceed to be flagged (0 = default 10ms)")
		flMinS   = fs.Int("flight-min-samples", 0, "serve: template history needed before latency judgments (0 = default 8)")
		flQErr   = fs.Float64("flight-qerror", 0, "serve: flag executed requests whose worst per-operator Q-error reaches this (0 = default 100)")
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	cat, demo, err := loadCatalog(*catPath)
	if err != nil {
		fatal(err)
	}
	opts := stars.Options{Parallelism: *parallel}
	if *rules != "" {
		rs, err := loadRuleFile(*rules)
		if err != nil {
			fatal(err)
		}
		base := stars.DefaultRules()
		base.Merge(rs)
		opts.Rules = base
		// Loaded rule files are linted automatically: warnings to stderr,
		// errors fatal. (serve boots through the same check in serve.New.)
		if cmd != "serve" {
			autoLint(cat, opts)
		}
	}

	switch cmd {
	case "serve":
		// ServerConfig.Parallelism 0 is the daemon's default of 1; the
		// flag's 0 asks for GOMAXPROCS like every other command.
		par := *parallel
		if par == 0 {
			par = runtime.GOMAXPROCS(0)
		}
		srv, err := stars.NewServer(stars.ServerConfig{
			Addr:          *addr,
			Catalog:       cat,
			Demo:          demo,
			Options:       opts,
			Parallelism:   par,
			Seed:          *seed,
			MaxInflight:   *maxInfl,
			Timeout:       *timeout,
			DrainTimeout:  *drainT,
			EventBuffer:   *eventBuf,
			DisableFlight: *noFlight,
			Flight: stars.FlightConfig{
				IncidentDir:     *incDir,
				LatencyFactor:   *flLatF,
				LatencyFloor:    *flLatFl,
				MinSamples:      *flMinS,
				QErrorThreshold: *flQErr,
			},
			Log: log.New(os.Stderr, "starburst serve: ", log.LstdFlags),
		})
		if err != nil {
			fatal(err)
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := srv.Run(ctx); err != nil {
			fatal(err)
		}
	case "rules":
		rs := opts.Rules
		if rs == nil {
			rs = stars.DefaultRules()
		}
		fmt.Print(stars.FormatRules(rs))
	case "catalog":
		b, err := cat.MarshalJSONIndent()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	case "explain", "run", "trace", "diff":
		if cmd == "diff" && fs.NArg() == 2 {
			diffFiles(fs.Arg(0), fs.Arg(1))
			return
		}
		if *q == "" {
			if !demo {
				fatal(fmt.Errorf("%s requires -q \"SELECT ...\" with a custom catalog", cmd))
			}
			*q = demoQuery
		}
		g, err := stars.ParseSQL(*q, cat)
		if err != nil {
			fatal(err)
		}
		if cmd == "diff" {
			diffRuns(cat, g, opts, *ablate)
			return
		}
		opts.Trace = cmd == "trace"
		var sink *stars.Sink
		if *analyze || *traceOut != "" || *metricsF || *why != "" || *whyNot != "" || *dagOut != "" {
			sink = stars.NewSink()
			opts.Obs = sink
		}
		res, err := stars.Optimize(cat, g, opts)
		if err != nil {
			fatal(err)
		}
		switch cmd {
		case "trace":
			fmt.Print(stars.FormatTrace(res))
			fmt.Println("\nchosen plan:")
			fmt.Print(stars.Explain(res.Best))
		case "explain":
			if *dot {
				fmt.Print(stars.DOT(res.Best))
				return
			}
			if *verbose {
				fmt.Print(stars.ExplainVerbose(res.Best))
			} else {
				fmt.Print(stars.Explain(res.Best))
			}
			fmt.Printf("\nestimated: %s\n", res.Best.Props.Cost.String())
			fmt.Printf("effort: %d rule refs, %d plans built, %d retained, %s\n",
				res.Stats.Star.RuleRefs, res.Stats.Star.PlansBuilt,
				res.Stats.PlansRetained, res.Stats.Elapsed)
		case "run":
			cluster := stars.NewCluster(cat.Sites...)
			if demo {
				stars.PopulateEmpDept(cluster, cat, *seed)
			} else {
				stars.Populate(cluster, cat, *seed)
			}
			rt := stars.NewRuntime(cluster, cat)
			rt.Obs = sink
			rt.CollectOpStats = *analyze
			er, err := rt.Run(res.Best)
			if err != nil {
				fatal(err)
			}
			if *analyze {
				fmt.Print(stars.ExplainAnalyze(res.Best, er))
			} else {
				fmt.Print(stars.Explain(res.Best))
			}
			fmt.Println()
			sel := g.SelectCols(cat)
			for i, c := range sel {
				if i > 0 {
					fmt.Print("  ")
				}
				fmt.Print(c.String())
			}
			fmt.Println()
			for i, row := range stars.Project(er, sel) {
				if i >= *limit {
					fmt.Printf("... and %d more rows\n", len(er.Rows)-*limit)
					break
				}
				for j, v := range row {
					if j > 0 {
						fmt.Print("  ")
					}
					fmt.Print(v)
				}
				fmt.Println()
			}
			fmt.Printf("\nrows: %d\n", er.Stats.RowsOut)
			fmt.Printf("estimated cost %.1f; measured %d page I/Os, %d messages, %d bytes shipped (actual cost %.1f)\n",
				res.Best.Props.Cost.Total, er.Stats.IO.TotalPages(),
				er.Stats.Messages, er.Stats.BytesShipped,
				er.Stats.ActualCost(stars.DefaultWeights))
		}
		if *why != "" || *whyNot != "" || *dagOut != "" {
			dag, err := stars.Provenance(res)
			if err != nil {
				fatal(err)
			}
			if *why != "" {
				text, err := dag.Why(*why)
				if err != nil {
					fatal(err)
				}
				fmt.Println()
				fmt.Print(text)
			}
			if *whyNot != "" {
				fmt.Println()
				fmt.Print(dag.WhyNot(*whyNot))
			}
			if *dagOut != "" {
				writeDAG(dag, *dagOut)
			}
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			if err := sink.WriteChromeTrace(f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote Chrome trace (%d events) to %s — open in chrome://tracing or https://ui.perfetto.dev\n",
				sink.Len(), *traceOut)
		}
		if *metricsF {
			fmt.Println()
			if err := sink.DumpMetrics(os.Stdout); err != nil {
				fatal(err)
			}
		}
	default:
		usage()
		os.Exit(2)
	}
}

// writeDAG exports the provenance DAG, picking the format by extension.
func writeDAG(dag *stars.ProvenanceDAG, path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if strings.HasSuffix(path, ".json") {
		err = dag.WriteJSON(f)
	} else {
		err = dag.WriteDOT(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote provenance DAG (%s) to %s\n", dag.Summary(), path)
}

// diffRuns optimizes the query twice — baseline options (A) versus one
// ablation (B) — and prints the provenance diff.
func diffRuns(cat *stars.Catalog, g *stars.Graph, opts stars.Options, ablate string) {
	variant := opts
	switch ablate {
	case "pruning":
		variant.DisablePruning = true
	case "keepall":
		variant.KeepAllGlue = true
	case "leftdeep":
		variant.NoCompositeInners = true
	case "cartesian":
		variant.CartesianProducts = true
	default:
		fatal(fmt.Errorf("unknown -ablate %q (want pruning, keepall, leftdeep, or cartesian)", ablate))
	}
	opts.Obs = stars.NewSink()
	variant.Obs = stars.NewSink()
	resA, err := stars.Optimize(cat, g, opts)
	if err != nil {
		fatal(err)
	}
	resB, err := stars.Optimize(cat, g, variant)
	if err != nil {
		fatal(err)
	}
	dagA, err := stars.Provenance(resA)
	if err != nil {
		fatal(err)
	}
	dagB, err := stars.Provenance(resB)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("A = baseline, B = -ablate=%s variant\n", ablate)
	rep := stars.DiffProvenance(dagA, dagB)
	fmt.Print(rep.Format())
	if rep.Changed() {
		os.Exit(1)
	}
}

// diffFiles diffs two provenance DAGs saved with -dag-out=....json. Like
// diff(1): exit 0 when the runs agree, 1 when they differ.
func diffFiles(pathA, pathB string) {
	load := func(path string) *stars.ProvenanceDAG {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		dag, err := stars.ReadProvenance(f)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		return dag
	}
	fmt.Printf("A = %s, B = %s\n", pathA, pathB)
	rep := stars.DiffProvenance(load(pathA), load(pathB))
	fmt.Print(rep.Format())
	if rep.Changed() {
		os.Exit(1)
	}
}

func loadCatalog(path string) (cat *stars.Catalog, demo bool, err error) {
	if path == "" {
		return stars.EmpDeptCatalog(), true, nil
	}
	cat, err = stars.LoadCatalog(path)
	return cat, false, err
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: starburst {explain|run|trace|diff|rules|lint|cover|profile|incidents|replay|catalog|serve} [flags]")
	fmt.Fprintln(os.Stderr, "run 'starburst <cmd> -h' for the command's flags")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "starburst:", err)
	os.Exit(1)
}
