// Package stars is the public face of a reproduction of Guy M. Lohman,
// "Grammar-like Functional Rules for Representing Query Optimization
// Alternatives" (SIGMOD 1988) — the Starburst STAR rule mechanism.
//
// The package wires together the pieces a user needs end to end:
//
//   - a catalog (tables, statistics, access paths, sites) loaded from JSON
//     or built programmatically,
//   - a SQL front end producing query graphs,
//   - the STAR rule engine, whose repertoire of strategies is *data*: a
//     rule file in the DSL of internal/star (see DefaultRuleText),
//   - the Glue mechanism and the bottom-up optimizer driver,
//   - a page-accurate storage engine and a query evaluator, so chosen plans
//     actually run and report measured I/O for comparison against
//     estimates.
//
// Quickstart:
//
//	cat := stars.EmpDeptCatalog()
//	g, _ := stars.ParseSQL("SELECT DEPT.DNO, EMP.NAME FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO AND DEPT.MGR = 'Haas'", cat)
//	res, _ := stars.Optimize(cat, g, stars.Options{})
//	fmt.Println(stars.Explain(res.Best))
//
// Extensibility (the paper's Section 5) is three registries: a new LOLEPOP
// needs a property function (cost), a run-time routine (exec), and rules
// that reference it — the rules being plain text. See examples/extensibility.
package stars

import (
	"io"

	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/coverage"
	"stars/internal/exec"
	"stars/internal/expr"
	"stars/internal/flight"
	"stars/internal/glue"
	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/plan"
	"stars/internal/prof"
	"stars/internal/provenance"
	"stars/internal/query"
	"stars/internal/serve"
	"stars/internal/sqlparse"
	"stars/internal/star"
	"stars/internal/starcheck"
	"stars/internal/storage"
	"stars/internal/workload"
)

// Re-exported core types. (Within this module the internal packages are
// importable directly; these aliases define the supported surface.)
type (
	// Catalog is the system catalog: tables, statistics, paths, sites.
	Catalog = catalog.Catalog
	// Table describes one stored table.
	Table = catalog.Table
	// Column describes one column with statistics.
	Column = catalog.Column
	// AccessPath describes an index.
	AccessPath = catalog.AccessPath
	// Graph is a parsed, validated query.
	Graph = query.Graph
	// Quantifier is one range variable of a query.
	Quantifier = query.Quantifier
	// Plan is a query execution plan node (a LOLEPOP).
	Plan = plan.Node
	// Props is the property vector of a plan (Figure 2 of the paper).
	Props = plan.Props
	// RuleSet is a parsed set of STARs.
	RuleSet = star.RuleSet
	// Engine is the STAR expansion engine.
	Engine = star.Engine
	// Options tunes the optimizer.
	Options = opt.Options
	// Result is an optimization outcome (best plan, statistics, trace).
	Result = opt.Result
	// Cluster is the per-site stored data.
	Cluster = storage.Cluster
	// Runtime executes plans.
	Runtime = exec.Runtime
	// ExecResult is an execution outcome (rows plus measured resources).
	ExecResult = exec.Result
	// Weights are the cost model's linear-combination coefficients.
	Weights = cost.Weights
	// CostEnv prices plans; extension property functions register here.
	CostEnv = cost.Env
	// PropertyFunc transforms a property vector through a LOLEPOP.
	PropertyFunc = cost.PropertyFunc
	// IterBuilder supplies the run-time routine for a LOLEPOP.
	IterBuilder = exec.IterBuilder
	// ColID names a column as quantifier.column.
	ColID = expr.ColID
	// PredSet is a canonical predicate set.
	PredSet = expr.PredSet
)

// DefaultWeights are the R*-flavored cost weights.
var DefaultWeights = cost.DefaultWeights

// DefaultRuleText is the built-in STAR repertoire as DSL text — the paper's
// Section 4 join STARs plus access STARs.
const DefaultRuleText = star.DefaultRuleText

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return catalog.New() }

// LoadCatalog reads and validates a catalog JSON file.
func LoadCatalog(path string) (*Catalog, error) { return catalog.Load(path) }

// EmpDeptCatalog returns the paper's Section 2.1 example catalog.
func EmpDeptCatalog() *Catalog { return workload.EmpDept() }

// ParseSQL parses one SELECT statement against the catalog.
func ParseSQL(sql string, cat *Catalog) (*Graph, error) { return sqlparse.Parse(sql, cat) }

// ParseRules parses STAR rule text. Parsed rules can replace or extend the
// built-in repertoire via Options.Rules.
func ParseRules(text string) (*RuleSet, error) { return star.ParseRules(text) }

// ParseRuleFile parses STAR rule text recording the given file name in every
// node's source position, so parse errors and lint diagnostics point at
// file:line:col.
func ParseRuleFile(text, file string) (*RuleSet, error) { return star.ParseFile(text, file) }

// DefaultRules parses the built-in repertoire.
func DefaultRules() *RuleSet { return star.DefaultRules() }

// FormatRules renders a rule set back into DSL text.
func FormatRules(rs *RuleSet) string { return star.Format(rs) }

// Optimize builds all plans for the query with the STAR mechanism and
// returns the cheapest satisfying the root requirements.
func Optimize(cat *Catalog, g *Graph, o Options) (*Result, error) {
	return opt.New(cat, o).Optimize(g)
}

// Sink collects the optimizer's and evaluator's observability stream:
// events (rule spans, Glue calls, plan-table churn, executor operators) and
// metrics (counters, gauges, latency histograms). A nil *Sink is valid
// everywhere and costs only a nil check — observability off is the default.
type Sink = obs.Sink

// NewSink returns a tracing sink: it records the full event stream and the
// metrics; pass it via Options.Obs or Runtime.Obs, then export with its
// WriteNDJSON, WriteChromeTrace, or DumpMetrics methods.
func NewSink() *Sink { return obs.NewSink() }

// NewMetricsSink returns a non-tracing sink: metrics, timings, the
// self-profiler and the per-run coverage summary, but none of the
// search-step events — the cheap always-on tier for long-running processes
// (see docs/OBSERVABILITY.md § Telemetry tiers).
func NewMetricsSink() *Sink { return obs.NewMetricsSink() }

// SetDefaultSink installs the process-wide fallback sink consulted whenever
// Options.Obs is nil (the prometheus default-registry idiom). Pass nil to
// turn the fallback off. The fallback is swapped atomically, so it is safe
// to install or replace while optimizations run on other goroutines.
func SetDefaultSink(s *Sink) { obs.SetDefault(s) }

// NewRequestSink returns a tracing sink that stamps every event with the
// given request id — the per-request isolation unit of a serving daemon:
// concurrent optimizations each write into their own tagged sink, so traces
// never interleave and merged streams stay attributable.
func NewRequestSink(requestID string) *Sink { return obs.NewRequestSink(requestID) }

// ProfileOptions tunes the self-profiler attached to a Sink with
// EnableProfiling; the zero value collects phase/rule/activity accounting
// without pprof goroutine labels.
type ProfileOptions = obs.ProfOptions

// Profile is one analyzed self-profile: phases in pipeline order with
// self-time and allocation attribution, rules and spans ranked by self-time,
// activity meters, and per-rank parallel telemetry (busy/idle/imbalance).
// See docs/PERFORMANCE.md § Profiling.
type Profile = prof.Profile

// ProfileReport is the multi-workload profile document `starburst profile`
// emits (JSON schema stars/profile/v1): one Profile per workload plus a
// merged totals view.
type ProfileReport = prof.Report

// ProfileSchemaV1 identifies the profile JSON layout.
const ProfileSchemaV1 = prof.SchemaV1

// EnableProfiling attaches a self-profiler to the sink: subsequent
// optimizations reported into it accumulate per-phase and per-rule wall time
// and allocation counts, activity meters (guard evaluation, cost pricing,
// plan-table offers), and — in the parallel path — per-rank worker telemetry.
// A sink without a profiler pays nothing; see docs/PERFORMANCE.md.
func EnableProfiling(s *Sink, o ProfileOptions) { s.EnableProf(o) }

// ProfileOf returns the profiler's own rows, sorted for display: read them
// once the run is done. Returns nil when no profiler is attached.
func ProfileOf(s *Sink) *Profile { return prof.FromSink(s) }

// FormatProfile renders a profile as aligned text tables, listing at most
// topN rules and spans (<=0 means all).
func FormatProfile(p *Profile, topN int) string { return prof.Format(p, topN) }

// NewProfileReport returns an empty report; Add workload profiles to it, then
// Format it or encode it as JSON.
func NewProfileReport(gomaxprocs, parallelism int) *ProfileReport {
	return prof.NewReport(gomaxprocs, parallelism)
}

// HeapAllocs reads the process's cumulative heap-allocation count (objects) —
// the counter the profiler brackets phases with. Small-object counts arrive
// in batches, so treat fine-grained deltas as approximate.
func HeapAllocs() int64 { return obs.HeapAllocs() }

// Server is the optimizer-as-a-service HTTP daemon behind `starburst
// serve`: POST /optimize with live /metrics, /events, health, and pprof.
// See docs/SERVING.md.
type Server = serve.Server

// ServerConfig tunes the daemon; the zero value serves the EMP/DEPT demo
// catalog on :8080.
type ServerConfig = serve.Config

// NewServer builds the daemon. Start it with Run (listen + serve + graceful
// drain when the context is cancelled) or mount Handler() yourself.
func NewServer(cfg ServerConfig) (*Server, error) { return serve.New(cfg) }

// FlightConfig tunes the serving daemon's flight recorder and plan-stability
// watchdog (ring sizes, anomaly thresholds, incident directory); set it as
// ServerConfig.Flight. See docs/OBSERVABILITY.md.
type FlightConfig = flight.Config

// Incident is one flight-recorder capture (JSON schema stars/incident/v1):
// the anomalous request's SQL, catalog, rules, event trace, provenance DAG,
// and profile — a self-contained bundle `starburst replay` re-optimizes.
type Incident = flight.Incident

// FlightReplayResult compares a fresh optimization of an incident's
// captured inputs against what the daemon recorded.
type FlightReplayResult = flight.ReplayResult

// ReadIncident loads an incident bundle written by the serving daemon (or
// fetched from its GET /incidents/{id} endpoint).
func ReadIncident(path string) (*Incident, error) { return flight.ReadIncident(path) }

// ReplayIncident re-optimizes an incident's captured query from its
// captured catalog, rules, and options, and diffs the fresh derivation DAG
// against the captured one — time-travel debugging for the optimizer.
func ReplayIncident(inc *Incident) (*FlightReplayResult, error) { return flight.Replay(inc) }

// LintDiag is one static-analysis finding over a rule set: a stable SCnnn
// code, a severity, the rule (and alternative) concerned, a file:line:col
// position, and a message. See docs/LINTING.md for the catalog.
type LintDiag = starcheck.Diag

// LintConfig tunes a lint run (entry-point roots, signature table).
type LintConfig = starcheck.Config

// LintSchemaV1 identifies the JSON layout WriteLintJSON emits.
const LintSchemaV1 = starcheck.SchemaV1

// Lint statically checks the rule set an optimization with these options
// would run — Options.Rules (or the built-in repertoire) with whatever
// Options.Prepare registers — and returns the findings, errors and warnings,
// in deterministic order. This is the analyzer behind `starburst lint`; it
// also runs automatically (warnings logged, errors fatal) wherever a -rules
// file is loaded.
func Lint(cat *Catalog, o Options) []LintDiag { return opt.Lint(cat, o) }

// LintRuleSet checks one parsed rule set directly, without optimizer
// options; the zero LintConfig checks against the built-in signatures with
// the conventional entry points.
func LintRuleSet(rs *RuleSet, cfg LintConfig) []LintDiag { return starcheck.Check(rs, cfg) }

// FormatLint renders diagnostics one per line ("file:line:col:
// severity[SCnnn]: message").
func FormatLint(diags []LintDiag) string { return starcheck.Format(diags) }

// WriteLintJSON writes diagnostics as a stars/lint/v1 JSON document.
func WriteLintJSON(w io.Writer, diags []LintDiag) error { return starcheck.WriteJSON(w, diags) }

// LintErrors counts the error-severity diagnostics (the `-werror` decision
// is LintErrors+LintWarnings > 0 instead).
func LintErrors(diags []LintDiag) int { return starcheck.Errors(diags) }

// LintWarnings counts the warning-severity diagnostics.
func LintWarnings(diags []LintDiag) int { return starcheck.Warnings(diags) }

// StaticallyDeadAlts distills lint diagnostics to the rule -> dead
// 1-based-alternative-set map (ordinal 0 kills the whole rule) that
// CoverageReport.MarkStaticallyDead consumes — the static side of the
// "lint-clean but never exercised" cross-check.
func StaticallyDeadAlts(diags []LintDiag) map[string]map[int]bool {
	return starcheck.StaticallyDead(diags)
}

// LintSyntactic is Lint restricted to the five syntactic passes — the
// abstract-interpretation pass (SC1xx guard satisfiability, SC2xx property
// completeness, SC3xx shape inference) is skipped. `starburst lint
// -syntactic` uses it to demonstrate which findings need the semantic pass.
func LintSyntactic(cat *Catalog, o Options) []LintDiag { return opt.LintSyntactic(cat, o) }

// ShapeGrammar is the regular-tree grammar of operator trees a rule set can
// generate (JSON schema stars/shapes/v1): per-STAR productions, the live
// operator alphabet, possible parent→child adjacencies, and the Glue veneer
// surface. Inferred by the lint semantic pass without running the optimizer.
type ShapeGrammar = starcheck.Grammar

// Shapes infers the plan-shape grammar of the rule set an optimization with
// these options would run. Like Lint it builds a probe engine only to
// resolve signatures — nothing is optimized, and the result depends only on
// the rule text, so WriteShapesJSON output is byte-deterministic.
func Shapes(cat *Catalog, o Options) *ShapeGrammar { return opt.ShapeGrammar(cat, o) }

// WriteShapesJSON writes a shape grammar as its canonical stars/shapes/v1
// JSON document (sorted keys, two-space indent, trailing newline).
func WriteShapesJSON(w io.Writer, g *ShapeGrammar) error {
	out, err := g.JSON()
	if err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// PlanShapeSet accumulates the operator shapes of observed plans for the
// grammar cross-check behind `starburst cover -shapes`.
type PlanShapeSet = coverage.ShapeSet

// PlanShapeCheck reports observed shapes against the inferred grammar:
// violations (unknown operators, impossible adjacencies) and shape-level
// coverage gaps (possible adjacencies never observed).
type PlanShapeCheck = coverage.ShapeCheck

// NewPlanShapeSet returns an empty shape accumulator; feed it Result.Best
// trees with Observe, then CrossCheck against Shapes' grammar.
func NewPlanShapeSet() *PlanShapeSet { return coverage.NewShapeSet() }

// Explain renders a plan tree with one-line property summaries.
func Explain(p *Plan) string { return plan.Explain(p) }

// ExplainAnalyze renders a plan annotated with estimated versus actual
// cardinality/cost and the per-node Q-error. The execution must have run
// with Runtime.CollectOpStats set, or every node prints "(never executed)".
func ExplainAnalyze(p *Plan, er *ExecResult) string {
	return plan.ExplainAnalyze(p, exec.Actuals(er, cost.DefaultWeights))
}

// ExplainVerbose renders a plan tree with every node's full property vector
// (the paper's Figure 2 layout).
func ExplainVerbose(p *Plan) string { return plan.ExplainVerbose(p) }

// Functional renders a plan in the paper's nested-function notation.
func Functional(p *Plan) string { return plan.Functional(p) }

// DOT renders a plan DAG in Graphviz dot syntax.
func DOT(p *Plan) string { return plan.DOT(p) }

// FormatTrace renders an optimization's rule-firing log.
func FormatTrace(r *Result) string { return star.FormatTrace(r.Trace) }

// NewCluster creates per-site storage for the named sites (the empty site is
// the query site and always present).
func NewCluster(sites ...string) *Cluster { return storage.NewCluster(sites...) }

// Populate loads deterministic synthetic data matching the catalog's
// statistics into the cluster.
func Populate(c *Cluster, cat *Catalog, seed int64) { workload.Populate(c, cat, seed) }

// PopulateEmpDept loads the EMP/DEPT demo data (department 42 is managed by
// 'Haas').
func PopulateEmpDept(c *Cluster, cat *Catalog, seed int64) {
	workload.PopulateEmpDept(c, cat, seed)
}

// NewRuntime builds a query evaluator over the cluster.
func NewRuntime(c *Cluster, cat *Catalog) *Runtime { return exec.NewRuntime(c, cat) }

// Run optimizes and executes in one step, returning both results.
func Run(cat *Catalog, cluster *Cluster, g *Graph, o Options) (*Result, *ExecResult, error) {
	res, err := Optimize(cat, g, o)
	if err != nil {
		return nil, nil, err
	}
	rt := NewRuntime(cluster, cat)
	er, err := rt.Run(res.Best)
	if err != nil {
		return res, nil, err
	}
	return res, er, nil
}

// Project renders an execution result's rows onto the given output columns
// (plans carry working columns like TIDs that callers rarely want to see).
func Project(er *ExecResult, cols []ColID) [][]string {
	idx := map[ColID]int{}
	for i, c := range er.Schema {
		idx[c] = i
	}
	out := make([][]string, 0, len(er.Rows))
	for _, row := range er.Rows {
		r := make([]string, len(cols))
		for i, c := range cols {
			if p, ok := idx[c]; ok && p < len(row) {
				r[i] = row[p].String()
			} else {
				r[i] = "?"
			}
		}
		out = append(out, r)
	}
	return out
}

// ProvenanceDAG is the search-space provenance of one optimization run:
// every plan derived, kept, pruned (with dominator identity and costs), and
// every STAR alternative rejected (with the failing condition). Query it
// with Why/WhyNot, export it with WriteDOT/WriteJSON, compare runs with
// DiffProvenance.
type ProvenanceDAG = provenance.DAG

// ProvenanceDiffReport compares two ProvenanceDAGs plan by plan.
type ProvenanceDiffReport = provenance.DiffReport

// Provenance reconstructs the derivation DAG of an optimization run. The
// run must have been traced: set Options.Obs to NewSink() (a non-tracing
// sink records no search steps and is rejected).
func Provenance(r *Result) (*ProvenanceDAG, error) { return provenance.FromResult(r) }

// ReadProvenance loads a DAG previously saved with its WriteJSON method.
func ReadProvenance(r io.Reader) (*ProvenanceDAG, error) { return provenance.ReadJSON(r) }

// DiffProvenance compares two derivation DAGs — typically a baseline against
// an ablation (pruning off, left-deep only, Cartesian products on).
func DiffProvenance(a, b *ProvenanceDAG) *ProvenanceDiffReport { return provenance.Diff(a, b) }

// CoverageAccumulator aggregates per-alternative coverage across runs: feed
// it the event streams of observed optimizations (AddEvents) or saved
// provenance DAGs (AddDAG), then render with its Report method. See
// docs/COVERAGE.md and `starburst cover`.
type CoverageAccumulator = coverage.Accumulator

// CoverageReport is the aggregated coverage view (JSON schema
// stars/coverage/v1): per rule and alternative, how often it fired, built
// plans, survived in the plan table, was pruned, and won.
type CoverageReport = coverage.Report

// CoverageLedger is the serving-time rolling view: coverage plus the
// aggregate Q-error digest; `starburst serve` adds its 256-template LRU
// table of per-template entries at GET /coverage. Not concurrency-safe.
type CoverageLedger = coverage.Ledger

// CoverageSchemaV1 identifies the coverage JSON layouts.
const CoverageSchemaV1 = coverage.SchemaV1

// NewCoverageAccumulator returns an empty coverage accumulator.
func NewCoverageAccumulator() *CoverageAccumulator { return coverage.NewAccumulator() }

// QueryTemplate normalizes a SQL text to its template (literals become '?',
// whitespace collapses) — the CoverageLedger's aggregation key.
func QueryTemplate(sql string) string { return coverage.Template(sql) }

// WorkloadEntry is one named query of the coverage workload corpus.
type WorkloadEntry = workload.CorpusEntry

// WorkloadCorpus returns the representative workload `starburst cover`,
// `starbench -coverage`, and CI share: Figure 1 local and distributed,
// chain joins, and star joins.
func WorkloadCorpus() []WorkloadEntry { return workload.Corpus() }

// GlueRequest and Value are re-exported for advanced extensions that add
// helper functions or LOLEPOP builders to the rule engine.
type (
	// GlueRequest is what a Glue reference asks the plan table for.
	GlueRequest = star.GlueRequest
	// Value is a rule-language value.
	Value = star.Value
	// LolepopBuilder constructs plan nodes for a LOLEPOP reference.
	LolepopBuilder = star.Func
	// HelperFunc is a rule-language condition or helper.
	HelperFunc = star.Func
	// PlanTable is the Glue plan table.
	PlanTable = glue.PlanTable
)
