// Package opt is the optimizer driver: it builds plans bottom-up exactly as
// Section 2.3 describes — first referencing the AccessRoot STAR to build
// plans for individual tables, then repeatedly referencing the JoinRoot STAR
// to join plans generated earlier, until all tables have been joined —
// keeping every Set of Alternative Plans in the Glue plan table, and finally
// imposing the query's root requirements (output order, query site) through
// Glue.
package opt

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/glue"
	"stars/internal/obs"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/star"
)

// Options tune the optimizer. The zero value is the System-R-ish default:
// join-predicate-connected pairs only, composite inners allowed, Glue
// returning cheapest plans, dominance pruning on.
type Options struct {
	// CartesianProducts admits joinable pairs with no connecting join
	// predicate (Section 2.3's compile-time parameter). Pairs with an
	// eligible join predicate are always preferred; Cartesian pairs are
	// added, not substituted.
	CartesianProducts bool
	// NoCompositeInners restricts enumeration to pairs where at least one
	// side is a single table (left-deep shapes); the default permits
	// composite inners like (A*B)*(C*D).
	NoCompositeInners bool
	// KeepAllGlue makes every Glue reference return all satisfying plans
	// rather than the cheapest (ablation).
	KeepAllGlue bool
	// DisablePruning turns off dominance pruning in the plan table
	// (ablation).
	DisablePruning bool
	// Weights override the cost weights; zero value uses DefaultWeights.
	Weights cost.Weights
	// Rules overrides the repertoire; nil selects the built-in rule set.
	Rules *star.RuleSet
	// Obs, when non-nil, receives the optimization's metrics, phase/rule
	// timings and coverage summary and — when it is a tracing sink — the
	// event stream (rule spans, Glue and plan-table events, phase spans).
	// When nil, obs.DefaultSink() is consulted; when that is nil too,
	// observability is off and costs only nil checks.
	Obs *obs.Sink
	// Trace captures the rule-firing log (Result.Trace), reconstructed
	// from the event stream. Without Obs it gets a private tracing sink;
	// with Obs, that sink must be a tracing one.
	Trace bool
	// JoinRoot overrides the root join STAR's name; default "JoinRoot".
	JoinRoot string
	// Prepare, when non-nil, customizes the engine after construction
	// (extra builders/helpers for DBC extensions).
	Prepare func(*star.Engine)
	// Parallelism is the number of worker goroutines the bottom-up join
	// enumeration fans each subset-size rank out to. 1 runs the rank
	// single-threaded; 0 (or less) uses GOMAXPROCS. Whatever the value,
	// results are deterministic: every parallelism level chooses plans
	// with identical fingerprints, retains an identical plan table, and
	// reports identical counters. A tracing Obs sink enumerates on one
	// worker whatever the value. See docs/PERFORMANCE.md.
	Parallelism int
}

// Stats aggregates optimization-effort counters for one query.
type Stats struct {
	// Star counts the rule engine's work.
	Star star.Stats
	// Glue counts the Glue mechanism's work.
	Glue glue.Stats
	// Subsets is the number of table subsets enumerated.
	Subsets int64
	// Pairs is the number of joinable partitions for which JoinRoot was
	// referenced.
	Pairs int64
	// PlansRetained is the plan-table population after optimization.
	PlansRetained int64
	// PlansInserted and PlansPruned report plan-table churn.
	PlansInserted int64
	PlansPruned   int64
	// Elapsed is wall-clock optimization time.
	Elapsed time.Duration
}

// Result is one optimization's outcome.
type Result struct {
	// Best is the chosen plan, priced, with root requirements satisfied.
	Best *plan.Node
	// Stats aggregates effort counters.
	Stats Stats
	// Trace is the rule-firing log when Options.Trace was set
	// (reconstructed from the observability event stream).
	Trace []star.TraceEntry
	// Obs is the sink the optimization reported into (nil when
	// observability was off) — callers export it (NDJSON, Chrome trace,
	// Prometheus text) or inspect its metrics.
	Obs *obs.Sink
	// Table is the final plan table (alternatives for every subset).
	Table *glue.PlanTable
	// Engine is the rule engine used (for inspecting registries in
	// tests and tools).
	Engine *star.Engine

	// spaces own the storage of every plan node, Rel and plan-table cell this
	// optimization built, one per enumeration worker (spaces[0] also holds
	// the access plans, root veneers and root table); Release recycles them.
	spaces []*workspace
}

// builtinRules is the built-in repertoire a nil Options.Rules resolves to,
// parsed on first use. Every such optimization shares it, so it is never
// handed to code that may mutate it (star.DefaultRules returns a fresh
// copy for that).
var builtinRules = sync.OnceValue(star.DefaultRules)

// workspace is the storage one enumeration worker recycles across
// optimizations: the arena its plans and Rels live in, a plan table (the root
// table of an optimization's first workspace), the arrays the pricing
// environment binds the query into, the Rel-intern tables of the root (both
// the first workspace's) and of a forked environment, the overlays its tasks
// write (the first used of them, until the rank barrier), partition scratch,
// what its engine evaluates on (the first workspace's serves the root engine
// and worker 0's, which never evaluate at once), and the rank's task list and
// the coverage summary's dedupe set (the first workspace's).
type workspace struct {
	arena                *plan.Arena
	table                *glue.PlanTable
	bound                cost.Binding
	rootRels, forkRels   cost.Rels
	overlays             []*glue.PlanTable
	used                 int
	connected, cartesian []maskPair
	tasks                []subsetTask
	scratch              star.Scratch
	covered              map[uint64]bool
}

// spares is a LIFO list of at most GOMAXPROCS idle workspaces. Unlike a
// sync.Pool, which keeps a Put where only the same P's Get finds it and
// empties at GC, it hands the warmest workspace to any goroutine.
var spares struct {
	sync.Mutex
	list []*workspace
}

// arenaPoison, when set (lifetime tests only), turns on poison-on-reset for
// every arena an optimization checks out, so a plan pointer that escapes
// Release without being detached reads a recognizably dead node instead of
// another query's plan.
var arenaPoison bool

// checkout takes the idle workspace returned last, or builds one.
func checkout() *workspace {
	spares.Lock()
	var w *workspace
	if n := len(spares.list); n > 0 {
		w, spares.list[n-1], spares.list = spares.list[n-1], nil, spares.list[:n-1]
	}
	spares.Unlock()
	if w == nil {
		w = &workspace{arena: plan.NewArena(), table: glue.NewPlanTable(), rootRels: cost.Rels{}, forkRels: cost.Rels{}, covered: map[uint64]bool{}}
	}
	w.arena.SetPoison(arenaPoison)
	return w
}

// checkin empties w, so nothing of its optimization stays reachable, and
// keeps it, dropping the longest idle one if GOMAXPROCS are idle already.
func (w *workspace) checkin() {
	w.arena.Reset()
	w.table.Reset(nil)
	w.bound.Reset()
	clear(w.rootRels)
	clear(w.forkRels)
	for _, ov := range w.overlays {
		ov.Reset(nil)
	}
	w.used = 0
	w.scratch.Reset()
	clear(w.covered)
	spares.Lock()
	if n := len(spares.list); n < runtime.GOMAXPROCS(0) {
		spares.list = append(spares.list, w)
	} else {
		copy(spares.list, spares.list[1:])
		spares.list[n-1] = w
	}
	spares.Unlock()
}

// Release hands the result's plan storage to later optimizations, which
// overwrite it. After Release only Best remains usable — it is detached
// (deep-copied to the heap) first — while Table, Engine, and every other plan
// pointer obtained from this result become invalid. Callers that never
// Release simply let the GC reclaim the arenas with the result; callers on a
// hot path (the serve loop, benchmarks) Release so a steady stream of queries
// allocates no plan storage at all.
func (r *Result) Release() {
	if r.spaces == nil {
		return
	}
	r.Best = plan.Detach(r.Best)
	r.Table = nil
	r.Engine = nil
	// The root's workspace goes back last, so the next optimization takes it
	// first: its root-only storage (rank task list, root plan table) is warm.
	for i := len(r.spaces) - 1; i >= 0; i-- {
		r.spaces[i].checkin()
	}
	r.spaces = nil
}

// Optimizer optimizes queries against one catalog.
type Optimizer struct {
	Cat  *catalog.Catalog
	Opts Options
}

// New builds an optimizer.
func New(cat *catalog.Catalog, opts Options) *Optimizer {
	return &Optimizer{Cat: cat, Opts: opts}
}

// Optimize builds all plans for the query bottom-up and returns the cheapest
// plan satisfying the root requirements.
func (o *Optimizer) Optimize(g *query.Graph) (_ *Result, err error) {
	start := time.Now()
	// Resolve the sink first so the prepare phase (validation, environment
	// and engine construction) is attributed when a profiler rides on it: an
	// explicit Options.Obs wins; Options.Trace without one gets a private
	// sink so the trace can be reconstructed; otherwise the process-wide
	// obs.DefaultSink (nil when observability is off).
	sink := o.Opts.Obs
	if sink == nil && o.Opts.Trace {
		sink = obs.NewSink()
	}
	if sink == nil {
		sink = obs.DefaultSink()
	}
	labels := sink.ProfLabels()
	if labels {
		defer pprof.SetGoroutineLabels(context.Background())
	}

	var prepSp obs.Span
	if sink.Enabled() {
		prepSp = sink.StartSpan(obs.EvPhase, "prepare", "", 0)
	}
	phaseLabels(nil, labels, "prepare")
	if err := g.Validate(o.Cat); err != nil {
		prepSp.End(0)
		return nil, err
	}

	w := o.Opts.Weights
	if w == (cost.Weights{}) {
		w = cost.DefaultWeights
	}
	env := cost.NewEnv(o.Cat, w)
	env.Obs = sink
	ws := checkout()
	env.Arena, env.Bound, env.Rels = ws.arena, &ws.bound, ws.rootRels
	res := &Result{Obs: sink, spaces: []*workspace{ws}}
	defer func() {
		if err != nil {
			// Nothing of a failed optimization is handed out, so its plan
			// storage goes straight back to the pool.
			res.Release()
		}
	}()
	// Binding fixes the query's column vocabulary before any worker starts;
	// it is the optimization's own, never pooled, so the plans it hands out
	// keep rendering names after Release.
	env.Bind(g)

	rules := o.Opts.Rules
	if rules == nil {
		rules = builtinRules()
	}

	en := star.NewEngine(rules, env)
	en.Scratch = &ws.scratch
	en.QueryTables = g.QuantNames()
	en.Obs = sink
	if o.Opts.Prepare != nil {
		o.Opts.Prepare(en)
	}
	if err := en.Validate(); err != nil {
		prepSp.End(0)
		return nil, err
	}

	table := ws.table
	table.PruneDisabled = o.Opts.DisablePruning
	table.Obs = sink
	gl := &glue.Gluer{Engine: en, Graph: g, Table: table, KeepAll: o.Opts.KeepAllGlue}
	en.Glue = gl.Glue
	en.PlanSites = gl.PlanSites

	res.Table, res.Engine = table, en
	prepSp.End(0)

	// Phase 1: access plans for every quantifier (Section 2.3).
	var accessSp obs.Span
	if sink.Enabled() {
		accessSp = sink.StartSpan(obs.EvPhase, "access", "", 0)
	}
	phaseLabels(en, labels, "access")
	for i, q := range g.Quants {
		ts := g.Universe().Subset(1 << uint(i))
		preds := g.EligibleWithin(ts)
		seeded := false
		err := en.Eval(glue.AccessRootRule, []star.Value{
			star.StreamValue(ts),
			star.ColsValue(env.Needed(q.Name)),
			star.PredsValue(preds),
		}, func(sap []*plan.Node) {
			if seeded = len(sap) > 0; seeded {
				table.Seed(ts, preds, sap)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("opt: access plans for %s: %w", q.Name, err)
		}
		if !seeded {
			return nil, fmt.Errorf("opt: no access plans for %s", q.Name)
		}
	}
	accessSp.End(int64(table.Size()))

	// Phase 2: bottom-up join enumeration over quantifier subsets,
	// rank-parallel (see parallel.go).
	if err := o.enumerate(g, en, gl, table, res); err != nil {
		return nil, err
	}

	// Phase 3: root requirements — deliver at the query site in the
	// requested order.
	var rootSp obs.Span
	if sink.Enabled() {
		rootSp = sink.StartSpan(obs.EvPhase, "root", "", 0)
	}
	phaseLabels(en, labels, "root")
	rootReq := plan.Reqd{Order: env.Vocab().List(g.OrderBy...)}
	site := o.Cat.QuerySite
	rootReq.Site = &site
	best, err := gl.Glue(&star.GlueRequest{Tables: g.TableSet(), Req: rootReq})
	if err != nil {
		return nil, fmt.Errorf("opt: root requirements: %w", err)
	}
	res.Best = glue.CheapestOf(best)
	rootSp.End(int64(len(best)))

	res.Stats.Star = en.Stats
	res.Stats.Glue = gl.Stats
	res.Stats.PlansRetained = int64(table.Size())
	res.Stats.PlansInserted = table.Inserted
	res.Stats.PlansPruned = table.Pruned
	res.Stats.Elapsed = time.Since(start)
	if sink.Enabled() {
		finSp := sink.StartSpan(obs.EvPhase, "finalize", "", 0)
		phaseLabels(en, labels, "finalize")
		publishMetrics(sink.Registry(), res)
		emitCoverage(sink, rules, res)
		finSp.End(0)
		// Phase/rank tallies flush after the finalize span closes so the
		// exported deltas include it; repeat publishes stay exact.
		if p := sink.Prof(); p != nil {
			p.PublishMetrics(sink.Registry())
		}
		if o.Opts.Trace {
			res.Trace = star.TraceFromEvents(sink.Events())
		}
	}
	return res, nil
}

// phaseLabels pins the driver goroutine's pprof label to the current
// optimizer phase and hands the labeled context to the engine so a reference
// can compose star= onto it. No-op unless the attached profiler asked for
// labels.
func phaseLabels(en *star.Engine, on bool, phase string) {
	if !on {
		return
	}
	ctx := pprof.WithLabels(context.Background(), pprof.Labels("phase", phase))
	pprof.SetGoroutineLabels(ctx)
	if en != nil {
		en.LabelCtx = ctx
	}
}

// publishMetrics folds one optimization's counters into the sink's registry
// so long-running processes (starbench -metrics) accumulate across queries.
func publishMetrics(reg *obs.Registry, res *Result) {
	st := res.Stats
	reg.Counter("star_rule_refs_total").Add(st.Star.RuleRefs)
	reg.Counter("star_alts_considered_total").Add(st.Star.AltsConsidered)
	reg.Counter("star_alts_fired_total").Add(st.Star.AltsFired)
	reg.Counter("star_alts_rejected_total").Add(st.Star.AltsRejected)
	reg.Counter("star_plans_built_total").Add(st.Star.PlansBuilt)
	reg.Counter("star_plans_rejected_total").Add(st.Star.PlansRejected)
	reg.Counter("glue_calls_total").Add(st.Glue.Calls)
	reg.Counter("glue_hits_total").Add(st.Glue.Hits)
	reg.Counter("glue_misses_total").Add(st.Glue.Misses)
	reg.Counter("glue_veneers_total").Add(st.Glue.Veneers)
	reg.Counter("glue_reused_total").Add(st.Glue.Reused)
	reg.Counter("glue_bounded_total").Add(st.Glue.Bounded)
	reg.Counter("plantable_inserted_total").Add(st.PlansInserted)
	reg.Counter("plantable_pruned_total").Add(st.PlansPruned)
	reg.Counter("opt_subsets_total").Add(st.Subsets)
	reg.Counter("opt_pairs_total").Add(st.Pairs)
	reg.Gauge("plantable_plans").Set(st.PlansRetained)
	reg.Histogram("opt_elapsed_seconds").Observe(st.Elapsed)
}

// joinRootName returns the configured root join STAR.
func (o *Optimizer) joinRootName() string {
	if o.Opts.JoinRoot != "" {
		return o.Opts.JoinRoot
	}
	return "JoinRoot"
}
