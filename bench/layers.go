package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"

	"stars/internal/coverage"
	"stars/internal/exec"
	"stars/internal/flight"
	"stars/internal/glue"
	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/plan"
	"stars/internal/prof"
	"stars/internal/provenance"
	"stars/internal/query"
	"stars/internal/sqlparse"
	"stars/internal/star"
	"stars/internal/storage"
)

// samples returns the list positions of one pass of the traced run, whole
// blocks so that the class mix is the list's own: every 50th serve_small
// request after the cold sweep, one serve_wide block, every 10th
// serve_explain block, one lib_scale pass.
func samples(name string) []int {
	var idx []int
	blocksOf := func(size, every, n int) {
		for b := 1; len(idx) < n*size; b += every {
			for i := 0; i < size; i++ {
				idx = append(idx, b*size+i)
			}
		}
	}
	switch name {
	case "serve_small":
		for i := 0; i < 600; i++ {
			idx = append(idx, smallUniverse+50*i)
		}
	case "serve_wide":
		blocksOf(len(wideMix), 4, 1)
	case "serve_explain":
		blocksOf(len(explainMix), 10, 12)
	case "lib_scale":
		blocksOf(len(libScalePoints), 1, 1)
	}
	return idx
}

// layerOp is what one traced operation measured: span and profiler times by
// name, and counts.
type layerOp struct {
	class string
	dur   map[string]time.Duration
	n     map[string]float64
}

// layerRun is the traced run's state: the target, the span recorder and the
// benchmark's own instances of the structures a request folds into, so the
// replay calls the same public functions serve.doLabeled does.
type layerRun struct {
	list    []request
	sample  []int // list positions of one pass
	t       *target
	tr      *tracer
	rules   *star.RuleSet
	ledger  *coverage.Ledger
	flight  *flight.Recorder
	reg     *obs.Registry
	profAgg *prof.Profile
	cluster *storage.Cluster
	res     *result

	loaded    []op      // the closed-loop load that precedes the traced passes
	ops       []layerOp // every pass
	firstPass int       // ops of the first pass: counts are taken over these
	cur       *layerOp
	id        string
}

// span times fn as a child of parent and files its duration under name.
func (l *layerRun) span(name string, parent int, fn func()) {
	l.cur.dur[name] += l.tr.time(name, l.id, parent, fn)
}

// traced sets the workload up, puts it under the same closed-loop load as an
// end-to-end run (for the load.* figures), then works through its sample with
// span recording on (one pass, then as many more whole passes as fit in the
// time), writes the Chrome trace and the budget table, and returns the
// per-layer metrics.
func traced(name string, list []request, seconds float64, out string) (*result, error) {
	t, err := setup(name, list)
	if err != nil {
		return nil, err
	}
	l := &layerRun{
		list: list, sample: samples(name), t: t, tr: newTracer(),
		rules:   star.DefaultRules(),
		ledger:  coverage.NewLedger(0),
		flight:  flight.New(flight.Config{}),
		reg:     obs.NewRegistry(),
		profAgg: &prof.Profile{},
		cluster: referenceCluster(t.cat),
		res:     &result{Workload: name, values: map[string]float64{}},
	}
	l.loaded = load(l.res, t, name, list, seconds)

	peak := make(chan float64)
	stop := make(chan struct{})
	go func() { peak <- samplePeakHeap(stop) }()
	runtime.GC()
	before, start := readUsage(), time.Now()
	var onePass time.Duration
	for pass := 0; pass == 0 || time.Since(start)+onePass < time.Duration(seconds*float64(time.Second)); pass++ {
		for _, idx := range l.sample {
			l.id = fmt.Sprintf("%s/%d/%d", name, pass, idx)
			l.traceOp(list[idx%len(list)])
		}
		if pass == 0 {
			l.firstPass, onePass = len(l.ops), time.Since(start)
		}
	}
	wall, after := time.Since(start), readUsage()
	close(stop)
	v := l.res.values
	v["mem.peak_heap_mb"] = <-peak / (1 << 20)
	v["mem.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	if all := after.allCPU - before.allCPU; all > 0 { // the runtime refreshes its estimate at each collection
		v["mem.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / all
	}
	if served := l.total("client.roundtrip", "lib.op"); served > 0 {
		v["trace.overhead_x"] = wall.Seconds() / served.Seconds()
	}

	if t.d != nil {
		if err := l.daemonState(); err != nil {
			return nil, err
		}
	}
	if err := t.stop(); err != nil {
		return nil, err
	}
	if name == "lib_scale" {
		l.scaling()
	}
	for _, m := range layerMetrics {
		if _, done := v[m.name]; !done && m.value != nil {
			v[m.name] = m.value(l)
		}
	}
	for _, d := range perLayerMetrics { // a layer the workload does not reach reads 0
		if _, done := v[d.name]; !done {
			v[d.name] = 0
		}
	}
	l.res.Attempted = len(l.loaded) + len(l.ops)
	l.res.note("traced: %d ops (%d in the first pass) in %.1fs", len(l.ops), l.firstPass, wall.Seconds())
	if err := writeChromeTrace(filepath.Join(out, "trace-"+name+".json"), l.tr.spans); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(out, "budget-"+name+".md"), []byte(l.budget()), 0o644); err != nil {
		return nil, err
	}
	return l.res, nil
}

// samplePeakHeap polls the heap in use every 100 ms until stop closes and
// returns the highest reading in bytes.
func samplePeakHeap(stop <-chan struct{}) float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	peak := 0.0
	for {
		metrics.Read(s)
		peak = max(peak, float64(s[0].Value.Uint64()+s[1].Value.Uint64()))
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
	}
}

// traceOp runs one sampled operation: the real round trip, the handler
// in-process, the replay of the handler's work layer by layer, and a bare
// optimization with the renderings and plan-table probes on its result.
func (l *layerRun) traceOp(r request) {
	l.ops = append(l.ops, layerOp{class: r.tmpl.class, dur: map[string]time.Duration{}, n: map[string]float64{}})
	l.cur = &l.ops[len(l.ops)-1]
	root := l.tr.begin("op", l.id, -1)
	defer l.tr.end(root)

	if d := l.t.d; d != nil {
		l.span("client.roundtrip", root, func() {
			if status, payload, err := d.post(r.body); err != nil || status != http.StatusOK {
				l.res.fail("%s: status %d err %v: %.200s", l.id, status, err, payload)
			}
		})
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(r.body))
		l.span("serve.request", root, func() { d.srv.Handler().ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			l.res.fail("%s: in-process status %d", l.id, rec.Code)
		}
		l.cur.n["resp_bytes"] = float64(rec.Body.Len())
		l.replay(root, r, obs.NewRequestSink(l.id), true)
	} else {
		op := l.tr.begin("lib.op", l.id, root)
		l.replay(op, r, obs.NewMetricsSink(), false)
		l.cur.dur["lib.op"] = l.tr.end(op)
	}
	l.bare(root, r)
}

// replay does what serve.doLabeled does for the request, in its order, each
// step in a span: template, parse, optimize into the sink with the
// self-profiler on, render, provenance, execute, then the folds (ledger,
// flight), the arena release, the profile fold and the registry merge. For
// lib_scale (served false) only the optimization and its profile remain.
func (l *layerRun) replay(parent int, r request, sink *obs.Sink, served bool) {
	id := l.tr.begin("replay", l.id, parent)
	defer func() { l.cur.dur["replay"] = l.tr.end(id) }()
	cat, want := l.t.cat, r.tmpl.opts
	sink.EnableProf(obs.ProfOptions{})

	var tmpl string
	if served {
		l.span("coverage.template", id, func() { tmpl = coverage.Template(r.sql) })
	}
	var g *query.Graph
	var err error
	l.span("sqlparse.parse", id, func() { g, err = sqlparse.Parse(r.sql, cat) })
	if err != nil {
		l.cur.n["parse_errors"]++
		l.res.fail("%s: %v", l.id, err)
		return
	}
	var res *opt.Result
	l.span("opt.optimize", id, func() {
		res, err = opt.New(cat, opt.Options{Obs: sink, Parallelism: 1}).Optimize(g)
	})
	if err != nil {
		l.res.fail("%s: %v", l.id, err)
		return
	}
	l.counts(res, sink)

	rec := flight.Record{Req: l.id, Template: tmpl, SQL: r.sql, Status: http.StatusOK, Parallelism: 1}
	if served {
		l.span("plan.fingerprint", id, func() { rec.PlanFP = res.Best.Fingerprint() })
		rec.EstCost, rec.EstRows = res.Best.Props.Cost.Total, res.Best.Props.Card
		if want.Format != "functional" {
			l.span("plan.explain", id, func() {
				if want.Verbose {
					_ = plan.ExplainVerbose(res.Best)
				} else {
					_ = plan.Explain(res.Best)
				}
			})
		}
		if want.Format == "functional" || want.Format == "both" {
			l.span("plan.functional", id, func() { _ = plan.Functional(res.Best) })
		}
		if want.Provenance {
			var dag *provenance.DAG
			l.span("provenance.build", id, func() { dag, err = provenance.FromResult(res) })
			if err != nil {
				l.res.fail("%s: %v", l.id, err)
				return
			}
			var buf bytes.Buffer
			l.span("provenance.encode", id, func() { err = dag.WriteJSON(&buf) })
			if err != nil {
				l.res.fail("%s: %v", l.id, err)
				return
			}
			l.cur.n["prov_nodes"], l.cur.n["prov_bytes"] = float64(len(dag.Plans)), float64(buf.Len())
		}
		if want.Analyze {
			rt := exec.NewRuntime(l.cluster, cat)
			rt.Obs, rt.CollectOpStats = sink, true
			var er *exec.Result
			l.span("exec.run", id, func() { er, err = rt.Run(res.Best) })
			if err != nil {
				l.res.fail("%s: %v", l.id, err)
				return
			}
			l.cur.n["exec_rows"], l.cur.n["exec_pages"] = float64(er.Stats.RowsOut), float64(er.Stats.IO.TotalPages())
			rec.Executed = true
		}
		l.span("coverage.ledger_fold", id, func() {
			l.ledger.Record(tmpl, sink.Events())
			l.ledger.PublishMetrics(l.reg, l.rules)
		})
		rec.WallNS = int64(time.Since(l.tr.epoch) - l.tr.spans[id].Start)
		l.span("flight.observe", id, func() { l.flight.Observe(rec) })
	}
	l.span("opt.release", id, func() { res.Release() })
	var pr *prof.Profile
	l.span("prof.fold", id, func() {
		pr = prof.FromSink(sink)
		l.profAgg.Merge(pr)
	})
	if served {
		l.span("obs.registry_merge", id, func() { l.reg.Merge(sink.Registry()) })
	}
	l.profile(pr)
}

// counts files the optimizer's own effort counters for the operation.
func (l *layerRun) counts(res *opt.Result, sink *obs.Sink) {
	st, n := res.Stats, l.cur.n
	n["subsets"], n["pairs"] = float64(st.Subsets), float64(st.Pairs)
	n["rule_refs"], n["alts_fired"] = float64(st.Star.RuleRefs), float64(st.Star.AltsFired)
	n["alts_considered"], n["plans_built"] = float64(st.Star.AltsConsidered), float64(st.Star.PlansBuilt)
	n["glue_calls"], n["glue_hits"], n["veneers"] = float64(st.Glue.Calls), float64(st.Glue.Hits), float64(st.Glue.Veneers)
	n["inserted"], n["pruned"], n["retained"] = float64(st.PlansInserted), float64(st.PlansPruned), float64(st.PlansRetained)
	if sink.KeepsEvents() {
		n["events"] = float64(sink.Len())
	}
}

// profile files the split inside Optimize that the repository's self-profiler
// reports: phases, rule self times, the glue.call span and the meters.
func (l *layerRun) profile(pr *prof.Profile) {
	d, n := l.cur.dur, l.cur.n
	for _, p := range pr.Phases {
		switch {
		case p.Phase == "prepare" || p.Phase == "access":
			d["prof.phase_"+p.Phase] = time.Duration(p.SelfNS)
		case strings.HasPrefix(p.Phase, "join-"):
			d["prof.phase_join"] += time.Duration(p.SelfNS)
		}
	}
	for _, r := range pr.Rules {
		d["prof.star_self"] += time.Duration(r.SelfNS)
	}
	for _, s := range pr.Spans {
		if s.Name == obs.EvGlue {
			d["prof.glue_self"] = time.Duration(s.SelfNS)
		}
	}
	for _, a := range pr.Activities {
		d["prof."+a.Name] = time.Duration(a.NS)
		n[a.Name] = float64(a.Count)
	}
}

// bare optimizes the request with observability off, then renders the result
// every way and re-inserts and looks up its plan table's plans in a fresh
// table, one plan at a time.
func (l *layerRun) bare(parent int, r request) {
	id := l.tr.begin("bare", l.id, parent)
	defer l.tr.end(id)
	cat := l.t.cat
	g, err := sqlparse.Parse(r.sql, cat)
	if err != nil {
		return // already counted by replay
	}
	var res *opt.Result
	l.span("opt.optimize_bare", id, func() { res, err = opt.New(cat, opt.Options{Parallelism: 1}).Optimize(g) })
	if err != nil {
		l.res.fail("%s: %v", l.id, err)
		return
	}
	l.span("plan.explain_bare", id, func() { _ = plan.Explain(res.Best) })
	l.span("plan.explain_verbose_bare", id, func() { _ = plan.ExplainVerbose(res.Best) })
	l.span("plan.functional_bare", id, func() { _ = plan.Functional(res.Best) })
	// The identity is memoized on the node, so time it on a detached copy.
	fresh := plan.Detach(res.Best)
	l.span("plan.fingerprint_bare", id, func() { _ = fresh.Fingerprint() })

	var plans []*plan.Node
	res.Table.ForEach(func(_, _ string, p *plan.Node) { plans = append(plans, p) })
	table := glue.NewPlanTable()
	one := make([]*plan.Node, 1)
	l.span("plantable.insert", id, func() {
		for _, p := range plans {
			one[0] = p
			table.Insert(p.Props.Tables(), p.Props.Preds(), one)
		}
	})
	l.span("plantable.lookup", id, func() {
		for _, p := range plans {
			table.Lookup(p.Props.Tables(), p.Props.Preds())
		}
	})
	l.cur.n["table_plans"] = float64(len(plans))
	l.span("opt.release_bare", id, func() { res.Release() })
}

// daemonState reads what the daemon itself counted over the run.
func (l *layerRun) daemonState() error {
	d, v := l.t.d, l.res.values
	reg := d.srv.Registry()
	v["serve.rejected"] = float64(reg.Counter("serve_rejected_total").Value())
	v["flight.incidents"] = float64(reg.Counter("flight_incidents_total").Value())

	rec := httptest.NewRecorder()
	d.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/coverage", nil))
	var ledger struct {
		Templates []struct{} `json:"templates"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ledger); err != nil {
		return fmt.Errorf("GET /coverage: %w", err)
	}
	sent := map[string]bool{}
	for _, o := range slices.Concat(l.t.warm, l.loaded) {
		sent[coverage.Template(l.list[o.idx%len(l.list)].sql)] = true
	}
	for _, idx := range l.sample {
		sent[coverage.Template(l.list[idx].sql)] = true
	}
	v["coverage.templates_tracked"] = float64(len(ledger.Templates))
	v["coverage.templates_dropped"] = float64(len(sent) - len(ledger.Templates))
	return nil
}

// scaling adds what only lib_scale reports: the bare optimization time of
// every sweep point, and the speed-up of the two heaviest at
// Parallelism min(nproc, 4) over 1 (left 0 on a single CPU, where it would
// measure time slicing).
func (l *layerRun) scaling() {
	v := l.res.values
	byClass := map[string][]float64{}
	for _, o := range l.ops {
		byClass[o.class] = append(byClass[o.class], ms(o.dur["opt.optimize_bare"]))
	}
	for _, p := range libScalePoints {
		v["scale."+p+"_ms"] = median(byClass[p])
	}
	par := min(runtime.NumCPU(), 4)
	if par < 2 {
		return
	}
	var speedups []float64
	for _, idx := range l.sample {
		r := l.list[idx]
		if r.tmpl.class != "star8" && r.tmpl.class != "chain14" {
			continue
		}
		g, err := sqlparse.Parse(r.sql, l.t.cat)
		if err != nil {
			continue // already counted by replay
		}
		start := time.Now()
		res, err := opt.New(l.t.cat, opt.Options{Parallelism: par}).Optimize(g)
		if err != nil {
			l.res.fail("%s at Parallelism %d: %v", r.tmpl.class, par, err)
			continue
		}
		speedups = append(speedups, median(byClass[r.tmpl.class])/ms(time.Since(start)))
		res.Release()
	}
	v["opt.par_speedup"] = geomean(speedups)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// total sums the named spans over every operation.
func (l *layerRun) total(names ...string) time.Duration {
	var sum time.Duration
	for _, o := range l.ops {
		for _, n := range names {
			sum += o.dur[n]
		}
	}
	return sum
}

// med is the per-operation median of fn over the operations it applies to.
func (l *layerRun) med(fn func(o layerOp) (float64, bool)) float64 {
	var vals []float64
	for _, o := range l.ops {
		if v, ok := fn(o); ok {
			vals = append(vals, v)
		}
	}
	return median(vals)
}

// medDur is the median duration of a span among the operations that have it.
func (l *layerRun) medDur(name string) time.Duration {
	return time.Duration(l.med(func(o layerOp) (float64, bool) {
		d, ok := o.dur[name]
		return float64(d), ok
	}))
}

// sum totals a count over the first pass, the part of the run that is the
// same on every run.
func (l *layerRun) sum(key string) float64 {
	total := 0.0
	for _, o := range l.ops[:l.firstPass] {
		total += o.n[key]
	}
	return total
}

// perOp is a count's mean per first-pass operation.
func (l *layerRun) perOp(key string) float64 { return l.sum(key) / float64(l.firstPass) }

func (l *layerRun) ratio(num, den string) float64 {
	if d := l.sum(den); d > 0 {
		return l.sum(num) / d
	}
	return 0
}

// medRatio is the per-operation median of one span over the sum of others.
func (l *layerRun) medRatio(num string, den ...string) float64 {
	return l.med(func(o layerOp) (float64, bool) {
		var d time.Duration
		for _, n := range den {
			d += o.dur[n]
		}
		return float64(o.dur[num]) / float64(d), o.dur[num] > 0 && d > 0
	})
}

type layerMetric struct {
	metricDef
	// value computes the metric from the run; nil marks one that traced
	// fills in itself (or leaves 0 where the workload has no such layer).
	value func(l *layerRun) float64
}

func msOf(span string) func(*layerRun) float64 {
	return func(l *layerRun) float64 { return ms(l.medDur(span)) }
}
func usOf(span string) func(*layerRun) float64 {
	return func(l *layerRun) float64 { return us(l.medDur(span)) }
}
func perOpOf(key string) func(*layerRun) float64 {
	return func(l *layerRun) float64 { return l.perOp(key) }
}
func ratioOf(num, den string) func(*layerRun) float64 {
	return func(l *layerRun) float64 { return l.ratio(num, den) }
}

// layerMetrics are the per-layer metrics, named <layer>.<what>. Times are
// per-operation medians over the traced operations that exercise the layer;
// counts are means per operation and ratios are totals over totals, both over
// the first pass so that they repeat exactly.
var layerMetrics = []layerMetric{
	{metricDef{"serve.handler_ms", "ms"}, msOf("serve.request")},
	{metricDef{"serve.transport_ms", "ms"}, func(l *layerRun) float64 {
		return l.med(func(o layerOp) (float64, bool) {
			return ms(o.dur["client.roundtrip"] - o.dur["serve.request"]), o.dur["serve.request"] > 0
		})
	}},
	{metricDef{"serve.self_ms", "ms"}, func(l *layerRun) float64 {
		return l.med(func(o layerOp) (float64, bool) {
			return ms(o.dur["serve.request"] - o.dur["replay"]), o.dur["serve.request"] > 0
		})
	}},
	{metricDef{"serve.overhead_x", "ratio"}, func(l *layerRun) float64 {
		return l.medRatio("serve.request", "sqlparse.parse", "opt.optimize_bare", "plan.explain_bare")
	}},
	{metricDef{"serve.response_bytes", "B"}, perOpOf("resp_bytes")},
	{metricDef{"serve.rejected", "count"}, nil},

	{metricDef{"sqlparse.parse_us", "us"}, usOf("sqlparse.parse")},
	{metricDef{"sqlparse.errors", "count"}, func(l *layerRun) float64 { return l.sum("parse_errors") }},

	{metricDef{"coverage.template_us", "us"}, usOf("coverage.template")},
	{metricDef{"coverage.ledger_fold_ms", "ms"}, msOf("coverage.ledger_fold")},
	{metricDef{"coverage.templates_tracked", "count"}, nil},
	{metricDef{"coverage.templates_dropped", "count"}, nil},

	{metricDef{"opt.optimize_bare_ms", "ms"}, msOf("opt.optimize_bare")},
	{metricDef{"opt.optimize_obs_ms", "ms"}, msOf("opt.optimize")},
	{metricDef{"opt.phase_prepare_ms", "ms"}, msOf("prof.phase_prepare")},
	{metricDef{"opt.phase_access_ms", "ms"}, msOf("prof.phase_access")},
	{metricDef{"opt.phase_join_ms", "ms"}, msOf("prof.phase_join")},
	{metricDef{"opt.absorb_ms", "ms"}, msOf("prof.plantable_absorb")},
	{metricDef{"opt.release_us", "us"}, usOf("opt.release")},
	{metricDef{"opt.subsets", "count"}, perOpOf("subsets")},
	{metricDef{"opt.pairs", "count"}, perOpOf("pairs")},
	{metricDef{"opt.pairs_per_subset", "ratio"}, ratioOf("pairs", "subsets")},
	{metricDef{"opt.par_speedup", "ratio"}, nil},

	{metricDef{"star.self_ms", "ms"}, msOf("prof.star_self")},
	{metricDef{"star.guard_eval_ms", "ms"}, msOf("prof.guard_eval")},
	{metricDef{"star.rule_refs", "count"}, perOpOf("rule_refs")},
	{metricDef{"star.alts_fired", "count"}, perOpOf("alts_fired")},
	{metricDef{"star.fire_ratio", "ratio"}, ratioOf("alts_fired", "alts_considered")},
	{metricDef{"star.plans_built", "count"}, perOpOf("plans_built")},

	{metricDef{"glue.self_ms", "ms"}, msOf("prof.glue_self")},
	{metricDef{"glue.calls", "count"}, perOpOf("glue_calls")},
	{metricDef{"glue.hit_ratio", "ratio"}, ratioOf("glue_hits", "glue_calls")},
	{metricDef{"glue.veneers", "count"}, perOpOf("veneers")},
	{metricDef{"glue.veneers_per_retained", "ratio"}, ratioOf("veneers", "retained")},
	{metricDef{"glue.plantable_offer_ms", "ms"}, msOf("prof.plantable_offer")},
	{metricDef{"glue.plantable_offers", "count"}, perOpOf("plantable_offer")},
	{metricDef{"glue.plantable_inserted", "count"}, perOpOf("inserted")},
	{metricDef{"glue.plantable_pruned", "count"}, perOpOf("pruned")},
	{metricDef{"glue.plantable_retained", "count"}, perOpOf("retained")},
	{metricDef{"glue.retain_ratio", "ratio"}, ratioOf("retained", "plantable_offer")},
	{metricDef{"glue.plantable_insert_ns", "ns"}, func(l *layerRun) float64 {
		return l.med(func(o layerOp) (float64, bool) {
			return float64(o.dur["plantable.insert"]) / o.n["table_plans"], o.n["table_plans"] > 0
		})
	}},
	{metricDef{"glue.plantable_lookup_ns", "ns"}, func(l *layerRun) float64 {
		return l.med(func(o layerOp) (float64, bool) {
			return float64(o.dur["plantable.lookup"]) / o.n["table_plans"], o.n["table_plans"] > 0
		})
	}},

	{metricDef{"cost.price_ms", "ms"}, msOf("prof.cost_price")},
	{metricDef{"cost.price_ops", "count"}, perOpOf("cost_price")},
	{metricDef{"cost.price_ns_per_op", "ns"}, func(l *layerRun) float64 {
		return l.med(func(o layerOp) (float64, bool) {
			return float64(o.dur["prof.cost_price"]) / o.n["cost_price"], o.n["cost_price"] > 0
		})
	}},
	{metricDef{"cost.priced_per_retained", "ratio"}, ratioOf("cost_price", "retained")},

	{metricDef{"plan.explain_us", "us"}, usOf("plan.explain_bare")},
	{metricDef{"plan.explain_verbose_us", "us"}, usOf("plan.explain_verbose_bare")},
	{metricDef{"plan.functional_us", "us"}, usOf("plan.functional_bare")},
	{metricDef{"plan.fingerprint_us", "us"}, usOf("plan.fingerprint_bare")},

	{metricDef{"obs.events_per_op", "count"}, perOpOf("events")},
	{metricDef{"obs.overhead_x", "ratio"}, func(l *layerRun) float64 { return l.medRatio("opt.optimize", "opt.optimize_bare") }},
	{metricDef{"obs.registry_merge_us", "us"}, usOf("obs.registry_merge")},

	{metricDef{"prof.fold_us", "us"}, usOf("prof.fold")},

	{metricDef{"provenance.build_ms", "ms"}, msOf("provenance.build")},
	{metricDef{"provenance.encode_ms", "ms"}, msOf("provenance.encode")},
	{metricDef{"provenance.nodes", "count"}, perOpOf("prov_nodes")},
	{metricDef{"provenance.bytes", "B"}, perOpOf("prov_bytes")},

	{metricDef{"flight.observe_us", "us"}, usOf("flight.observe")},
	{metricDef{"flight.incidents", "count"}, nil},

	{metricDef{"exec.run_ms", "ms"}, msOf("exec.run")},
	{metricDef{"exec.rows", "count"}, perOpOf("exec_rows")},
	{metricDef{"exec.page_reads", "count"}, perOpOf("exec_pages")},

	{metricDef{"mem.peak_heap_mb", "MB"}, nil},
	{metricDef{"mem.gc_cpu_frac", "ratio"}, nil},
	{metricDef{"mem.gc_cycles", "count"}, nil},

	{metricDef{"trace.overhead_x", "ratio"}, nil},
}

// perLayerMetrics are the declarations of layerMetrics plus lib_scale's sweep
// points and the load's timing figures; BENCHMARK.json lists the same names.
var perLayerMetrics = func() []metricDef {
	var defs []metricDef
	for _, m := range layerMetrics {
		defs = append(defs, m.metricDef)
	}
	for _, p := range libScalePoints {
		defs = append(defs, metricDef{"scale." + p + "_ms", "ms"})
	}
	return append(defs, loadMetrics...)
}()

// budget renders where an operation's time goes: for every span name its
// median self time per operation (span minus children) and that as a share
// of the operation's handler (or library call) time, grouped by the part of
// the traced operation the span belongs to (the real round trip, the handler
// in-process, the replay of the handler's work, the bare optimization).
func (l *layerRun) budget() string {
	spans := l.tr.spans
	self := selfTimes(spans)
	type key struct{ part, name string }
	perOp := map[key]map[string]time.Duration{} // -> request id -> self time
	for i, s := range spans {
		part := i // the ancestor that is a child of the operation's root span
		for spans[part].Parent >= 0 && spans[spans[part].Parent].Parent >= 0 {
			part = spans[part].Parent
		}
		if spans[part].Parent < 0 {
			continue // the root itself: its self time is the glue between the parts
		}
		k := key{spans[part].Name, s.Name}
		if perOp[k] == nil {
			perOp[k] = map[string]time.Duration{}
		}
		perOp[k][s.Req] += self[i]
	}
	type row struct {
		key
		self float64
		n    int
	}
	var rows []row
	for k, byReq := range perOp {
		var vals []float64
		for _, d := range byReq {
			vals = append(vals, ms(d))
		}
		rows = append(rows, row{k, median(vals), len(vals)})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].part != rows[b].part {
			return rows[a].part < rows[b].part
		}
		if rows[a].self != rows[b].self {
			return rows[a].self > rows[b].self
		}
		return rows[a].name < rows[b].name
	})
	whole := "serve.request"
	if l.t.d == nil {
		whole = "lib.op"
	}
	base := ms(l.medDur(whole))
	var b strings.Builder
	fmt.Fprintf(&b, "| part | span | ops | median self ms | share of %s (%.3g ms) |\n|---|---|---:|---:|---:|\n", whole, base)
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %s | %d | %.3f | %.1f%% |\n", r.part, r.name, r.n, r.self, 100*r.self/base)
	}
	return b.String()
}
