package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"stars"
)

// coverMain is the `starburst cover` subcommand: measure which STAR
// alternatives a workload actually exercises — the `go test -cover` of
// repertoires. It optimizes the built-in workload corpus (Figure 1 local
// and distributed, chain joins, star joins) under the selected repertoire,
// aggregates the per-alternative coverage events every observed run emits,
// cross-checks the never-fired arms against the static linter, and reports.
//
//	starburst cover                        # built-in repertoire over the corpus
//	starburst cover -rules my.star         # built-ins overlaid with a rule file
//	starburst cover -ext semijoin          # an extension's spliced repertoire
//	starburst cover -json                  # stars/coverage/v1 JSON report
//	starburst cover -annotate              # per-rule-file annotated source view
//	starburst cover -min 80                # exit 1 below 80% alternative coverage
//	starburst cover -shapes                # cross-check winning-plan shapes vs the grammar
//	starburst cover a.json b.json          # replay saved provenance DAGs instead
//
// Exit status: 0 ok, 1 coverage below -min or a -shapes violation, 2 usage
// errors.
func coverMain(args []string) {
	fs := flag.NewFlagSet("cover", flag.ExitOnError)
	var (
		rulesPath = fs.String("rules", "", "STAR rule file merged over the base repertoire")
		extList   = fs.String("ext", "", "comma-separated extensions whose repertoire to cover: semijoin, bloom, outerjoin")
		jsonOut   = fs.Bool("json", false, "emit a stars/coverage/v1 JSON report instead of text")
		annotate  = fs.Bool("annotate", false, "render the per-rule-file annotated source view")
		min       = fs.Float64("min", -1, "fail (exit 1) when alternative coverage is below this percentage")
		shapes    = fs.Bool("shapes", false, "cross-check observed winning-plan shapes against the inferred grammar (exit 1 on violations)")
		parallel  = fs.Int("parallelism", 1, "join-enumeration worker fan-out per optimization (a traced run, as cover's are, uses one worker)")
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	opts, target, err := repertoireOptions(*extList, *rulesPath)
	if err != nil {
		fatal(err)
	}
	opts.Parallelism = *parallel
	rules := opts.Rules
	if rules == nil {
		rules = stars.DefaultRules()
	}

	acc := stars.NewCoverageAccumulator()
	shapeSet := stars.NewPlanShapeSet()
	if fs.NArg() > 0 {
		if *shapes {
			fatal(fmt.Errorf("-shapes needs live optimizations to observe plan trees; it cannot replay provenance DAGs"))
		}
		// Replay mode: saved provenance DAGs instead of live runs.
		for _, path := range fs.Args() {
			f, err := os.Open(path)
			if err != nil {
				fatal(err)
			}
			dag, err := stars.ReadProvenance(f)
			f.Close()
			if err != nil {
				fatal(fmt.Errorf("%s: %w", path, err))
			}
			acc.AddDAG(dag)
		}
		target += fmt.Sprintf(", %d replayed provenance DAG(s)", fs.NArg())
	} else {
		for _, entry := range stars.WorkloadCorpus() {
			sink := stars.NewSink()
			o := opts
			o.Obs = sink
			res, err := stars.Optimize(entry.Cat, entry.Query, o)
			if err != nil {
				// A repertoire that cannot plan a corpus query (the
				// outerjoin root is two-table by design, for instance)
				// simply covers nothing on that entry.
				fmt.Fprintf(os.Stderr, "cover: skipping %s: %v\n", entry.Name, err)
				continue
			}
			shapeSet.Observe(res.Best)
			acc.AddEvents(sink.Events())
		}
	}

	rep := acc.Report(rules)
	// Cross-check against the static linter so never-exercised arms the
	// analyzer already proves dead read as expected zeros, not workload
	// gaps. The lint runs against the demo catalog: rule-set diagnostics
	// don't depend on it.
	rep.MarkStaticallyDead(stars.StaticallyDeadAlts(stars.Lint(stars.EmpDeptCatalog(), opts)))

	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	case *annotate:
		fmt.Printf("coverage of the %s\n\n", target)
		fmt.Print(rep.Annotate())
	default:
		fmt.Printf("coverage of the %s\n\n", target)
		fmt.Print(rep.Format())
	}

	fail := false
	if *min >= 0 && !rep.Meets(*min) {
		fmt.Fprintf(os.Stderr, "cover: coverage %.1f%% is below the -min %.1f%% threshold\n",
			rep.Summary.CoveragePct, *min)
		fail = true
	}

	if *shapes {
		// Cross the winning plans' operator shapes against the grammar the
		// semantic lint pass infers from the same repertoire. A violation
		// means the optimizer built a tree the rules cannot generate (or
		// the inference is wrong) — either way a bug, so exit 1.
		check := shapeSet.CrossCheck(stars.Shapes(stars.EmpDeptCatalog(), opts))
		fmt.Printf("\nplan-shape cross-check of the %s\n%s", target, check.Format())
		if !check.Clean() {
			fmt.Fprintln(os.Stderr, "cover: observed plan shapes violate the inferred grammar")
			fail = true
		}
	}

	if fail {
		os.Exit(1)
	}
}
