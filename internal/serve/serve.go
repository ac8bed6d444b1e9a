// Package serve is the optimizer-as-a-service layer: a long-running HTTP
// daemon that optimizes (and optionally executes) queries concurrently and
// exposes the repository's whole observability surface live — Prometheus
// metrics aggregated across requests, a streaming NDJSON/SSE event feed,
// per-request provenance, and pprof.
//
// The concurrency design is per-request isolation: every /optimize request
// gets its own obs.Sink tagged with a request id, so concurrent
// optimizations never interleave their traces. Each event is tee'd to the
// live /events fan-out (bounded per-subscriber buffers, drops counted, slow
// tails never stall an optimization), and each request's private metrics
// registry is merged into the server's process-wide registry after the
// request, keeping /metrics an exact aggregate of per-request figures.
//
// Operationally: an admission gate bounds in-flight optimizations
// (Config.MaxInflight, excess rejected with 503), a per-request timeout
// bounds latency (504), and cancellation of the Run/Serve context drains
// gracefully — readiness flips to 503, event streams end, and in-flight
// requests finish before the listener closes. See docs/SERVING.md.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	rpprof "runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/coverage"
	"stars/internal/exec"
	"stars/internal/flight"
	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/plan"
	"stars/internal/prof"
	"stars/internal/provenance"
	"stars/internal/query"
	"stars/internal/sqlparse"
	"stars/internal/star"
	"stars/internal/starcheck"
	"stars/internal/storage"
	"stars/internal/workload"
)

// Event names the daemon emits into each request's sink (and therefore the
// live /events stream), alongside the optimizer's and executor's taxonomy.
const (
	// EvRequest marks a request entering the service; A1 is the endpoint,
	// A2 the SQL text.
	EvRequest = "serve.request"
	// EvRequestDone marks its completion; N1 is the HTTP status, F1 the
	// wall-clock seconds spent.
	EvRequestDone = "serve.request.done"
)

// Config tunes the daemon. The zero value serves the EMP/DEPT demo catalog
// on :8080.
type Config struct {
	// Addr is the listen address for Run (default ":8080").
	Addr string
	// Catalog is the catalog queries are optimized against; nil selects
	// the paper's EMP/DEPT demo catalog.
	Catalog *catalog.Catalog
	// Demo populates the EMP/DEPT demo data instead of synthetic data
	// matching catalog statistics. Implied when Catalog is nil.
	Demo bool
	// Options are the base optimizer options; per-request sinks overwrite
	// Options.Obs and Parallelism (below) overwrites Options.Parallelism.
	Options opt.Options
	// Seed drives deterministic data generation for Execute requests.
	Seed int64
	// MaxInflight bounds concurrently admitted /optimize requests;
	// excess requests are rejected with 503 (default 64).
	MaxInflight int
	// Timeout bounds one request's optimize+execute work; on expiry the
	// client gets 504 (default 30s). Zero means the default; negative
	// disables.
	Timeout time.Duration
	// DrainTimeout bounds the graceful drain after shutdown begins
	// (default 10s).
	DrainTimeout time.Duration
	// EventBuffer is the per-subscriber /events buffer in events; a full
	// buffer drops rather than blocks (default 1024).
	EventBuffer int
	// Limit is the default row cap echoed back by Execute when the
	// request doesn't set one (default 100).
	Limit int
	// Parallelism is the join-enumeration worker fan-out of every
	// optimize request — the daemon's only fan-out control, and the value
	// flight records, incident bundles and /profile report (default 1:
	// concurrency across requests already keeps a loaded server's cores
	// busy, so intra-query fan-out only helps latency on idle servers;
	// results are identical either way). Zero or less selects the default.
	Parallelism int
	// Flight tunes the flight recorder and plan-stability watchdog
	// (anomaly thresholds, incident directory); zero fields take their
	// defaults. See internal/flight.
	Flight flight.Config
	// DisableFlight turns the flight recorder off entirely: no records,
	// no watchdog, no incidents, and the /optimize hot path stays
	// allocation-identical to a recorder-less build.
	DisableFlight bool
	// Log receives operational messages (start, drain); nil discards.
	Log *log.Logger
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Catalog == nil {
		c.Catalog = workload.EmpDept()
		c.Demo = true
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 1024
	}
	if c.Limit == 0 {
		c.Limit = 100
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 1
	}
	if c.Log == nil {
		c.Log = log.New(io.Discard, "", 0)
	}
	return c
}

// Server is the daemon: an http.Handler plus the shared state behind it.
type Server struct {
	cfg   Config
	reg   *obs.Registry // process-wide aggregate behind /metrics
	bcast *broadcaster
	mux   *http.ServeMux
	// routes is the endpoint table the mux and the index page share.
	routes []route

	// rules is the effective repertoire (Config.Options.Rules or the
	// built-ins) — the coverage universe behind /coverage.
	rules *star.RuleSet
	// ledger is the rolling coverage + Q-error view every request feeds
	// (see internal/coverage); templates is the per-template memory beside
	// it, and its lock guards both.
	ledger    *coverage.Ledger
	templates templateTable
	// flight is the flight recorder + watchdog (nil when disabled);
	// rulesText/rulesHash/catalogEpoch are the boot-time identity stamps
	// its records and captures carry.
	flight       *flight.Recorder
	rulesText    string
	rulesHash    string
	catalogEpoch string

	inflight chan struct{} // admission-gate semaphore
	reqSeq   atomic.Int64
	ready    atomic.Bool
	addr     atomic.Value // string: actual listen address

	// Execution shares one storage cluster whose page/message counters
	// are per-run state, so runs are serialized; optimization is not.
	execMu  sync.Mutex
	cluster *storage.Cluster

	// The rolling self-profile behind GET /profile: every request
	// folds its per-phase/rule/rank attribution in after answering.
	profMu       sync.Mutex
	profAgg      *prof.Profile
	profRequests int64

	// sinks recycles request sinks (obs.Sink.Reset): a reused sink names
	// its metric series, span histograms and profile rows without
	// allocating them again.
	sinks sync.Pool

	// testHold, when non-nil, blocks each request's worker until the
	// channel yields — test hook for admission/timeout behavior.
	testHold chan struct{}
}

// maxTemplates bounds the daemon's per-template memory.
const maxTemplates = 256

// templateRecord is what the daemon remembers of one query template
// (coverage.Template): its ledger entry and its watchdog history.
type templateRecord struct {
	template string
	used     int64 // last-use stamp
	ledger   coverage.TemplateLedger
	flight   flight.History
}

// templateTable holds at most maxTemplates records in admission order. Past
// the bound a newcomer evicts the least recently used record, which is
// reset, reused, and counted in templates_evicted_total. Its lock also
// guards the process-wide ledger.
type templateTable struct {
	mu      sync.Mutex
	m       map[string]*templateRecord
	recs    []*templateRecord // admission order
	clock   int64
	evicted *obs.Counter
}

// admit returns tmpl's record, admitting it on first sight; t.mu is held.
func (t *templateTable) admit(tmpl string) *templateRecord {
	t.clock++
	r := t.m[tmpl]
	if r == nil {
		if len(t.recs) < maxTemplates {
			r = &templateRecord{}
		} else {
			i := 0
			for j, c := range t.recs {
				if c.used < t.recs[i].used {
					i = j
				}
			}
			r = t.recs[i]
			t.recs = slices.Delete(t.recs, i, i+1)
			delete(t.m, r.template)
			r.ledger.Reset()
			r.flight.Reset()
			t.evicted.Add(1)
		}
		r.template = tmpl
		t.m[tmpl] = r
		t.recs = append(t.recs, r)
	}
	r.used = t.clock
	return r
}

// fold folds one finished request under the template table's lock: the
// process-wide ledger, the template's ledger entry and, when recording, the
// flight recorder (whose lock nests inside: two per fold) and the template's
// watchdog history. The caller files any incident the result raises once
// the lock is dropped, since a capture may re-optimize the query.
func (s *Server) fold(reqID, tmpl string, req OptimizeRequest, events []obs.Event,
	res *opt.Result, planFP string, status int, wall time.Duration, executed bool) flight.Observation {
	s.templates.mu.Lock()
	defer s.templates.mu.Unlock()
	t := s.templates.admit(tmpl)
	maxQ := s.ledger.Record(tmpl, events)
	t.ledger.Fold(events)
	return s.foldFlight(reqID, tmpl, req, &t.flight, maxQ, res, planFP, status, wall, executed)
}

// flightTemplates renders the watchdog histories in admission order,
// leaving out templates that have only failed (nothing judged yet).
func (s *Server) flightTemplates() []flight.TemplateState {
	s.templates.mu.Lock()
	defer s.templates.mu.Unlock()
	out := []flight.TemplateState{}
	for _, t := range s.templates.recs {
		if st, ok := t.flight.State(t.template); ok {
			out = append(out, st)
		}
	}
	return out
}

// New builds a daemon. The execution cluster is populated once, up front,
// so Execute requests don't race data generation.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Catalog.Validate(); err != nil {
		return nil, fmt.Errorf("serve: catalog: %w", err)
	}
	if cfg.Options.Rules != nil {
		// A custom repertoire serves every request of a long-lived daemon,
		// so it is linted at boot: warnings go to the log, errors refuse to
		// start (they would fail every optimization anyway). This is the
		// full opt.Lint, semantic pass included — SC1xx/SC2xx/SC3xx
		// findings about dead alternatives and impossible operators land
		// in the boot log before the first request can hit them.
		diags := opt.Lint(cfg.Catalog, cfg.Options)
		for _, d := range diags {
			cfg.Log.Printf("lint: %s", d)
		}
		if n := starcheck.Errors(diags); n > 0 {
			return nil, fmt.Errorf("serve: rule set has %d lint error(s); run `starburst lint` for details", n)
		}
	}
	rules := cfg.Options.Rules
	if rules == nil {
		rules = star.DefaultRules()
	}
	s := &Server{
		cfg:      cfg,
		reg:      obs.NewRegistry(),
		inflight: make(chan struct{}, cfg.MaxInflight),
		cluster:  storage.NewCluster(cfg.Catalog.Sites...),
		rules:    rules,
		ledger:   coverage.NewLedger(0),
		profAgg:  &prof.Profile{},
	}
	s.templates.m = map[string]*templateRecord{}
	s.sinks.New = func() any { return obs.NewSink() }
	s.templates.evicted = s.reg.Counter("templates_evicted_total")
	if cfg.Demo {
		workload.PopulateEmpDept(s.cluster, cfg.Catalog, cfg.Seed)
	} else {
		workload.Populate(s.cluster, cfg.Catalog, cfg.Seed)
	}
	s.bcast = newBroadcaster(s.reg)

	// Stamp the inputs every plan depends on besides the query: the rule
	// text's and the catalog export's FNV-64a digests, computed once at
	// boot. A later in-place stats mutation is invisible to the epoch by
	// design — that staleness is what lets the watchdog call a changed
	// fingerprint a plan flip.
	s.rulesText = star.Format(rules)
	s.rulesHash = fnvHex(s.rulesText)
	if b, err := cfg.Catalog.MarshalJSONIndent(); err == nil {
		s.catalogEpoch = fnvHex(string(b))
	}
	if !cfg.DisableFlight {
		s.flight = flight.New(cfg.Flight)
	}

	// Touch the service metrics so /metrics exposes them at zero before
	// the first request — scrapers and smoke tests see the full surface
	// immediately.
	s.reg.Counter(`serve_requests_total{status="200"}`)
	s.reg.Counter("serve_rejected_total")
	s.reg.Gauge("serve_inflight")
	s.reg.Histogram(`serve_request_seconds{path="/optimize"}`)
	// Same for the coverage and Q-error surface: every alternative of the
	// effective repertoire gets its series at zero, so a scrape before (or
	// without) traffic still shows the whole alternative space.
	s.reg.Counter("coverage_runs_total")
	s.reg.Counter("qerror_observations_total")
	for _, name := range rules.Names() {
		for _, alt := range rules.Get(name).Alts {
			for _, c := range alt.CoverageCounters() {
				s.reg.Counter(c)
			}
		}
	}
	for _, op := range []plan.Op{plan.OpShip, plan.OpSort, plan.OpStore, plan.OpBuildIndex, plan.OpFilter} {
		s.reg.Counter(`coverage_veneer_injected_total{op="` + string(op) + `"}`)
	}
	// And the self-profiler's phase/rank series, so the profiling surface is
	// scrapeable at zero before any traffic.
	for _, name := range obs.ProfMetricNames() {
		s.reg.Counter(name)
	}
	// And the flight recorder's surface.
	if s.flight != nil {
		s.reg.Counter("flight_records_total")
		s.reg.Counter("flight_incidents_total")
		s.reg.Counter("flight_incident_write_errors_total")
		s.reg.Counter("plan_flip_total")
		for _, kind := range flight.Kinds {
			s.reg.Counter(`flight_anomaly_total{kind="` + kind + `"}`)
		}
	}

	// One table drives both the mux and the index page, so a newly mounted
	// endpoint cannot be forgotten on the root listing (routes with an
	// empty description are sub-routes the index leaves out).
	s.routes = []route{
		{"POST /optimize", "optimize (and optionally execute) a query; JSON in/out", s.handleOptimize},
		{"GET /metrics", "Prometheus metrics, aggregated across all requests", s.handleMetrics},
		{"GET /coverage", "rolling rule/alternative coverage and per-template Q-error ledger", s.handleCoverage},
		{"GET /profile", "rolling self-profile: phase/rule time and phase allocations (stars/profile/v1)", s.handleProfile},
		{"GET /events", "live observability events (NDJSON; SSE with Accept: text/event-stream)", s.handleEvents},
		{"GET /incidents", "flight-recorder incidents, list form (stars/incident/v1)", s.handleIncidents},
		{"GET /incidents/{id}", "one full incident bundle, canonical JSON (feed to `starburst replay`)", s.handleIncident},
		{"GET /debug/flight", "flight-recorder live state: census, per-template baselines, recent requests", s.handleDebugFlight},
		{"GET /healthz", "liveness", s.handleHealthz},
		{"GET /readyz", "readiness JSON: ready/draining/inflight (503 while draining)", s.handleReadyz},
		{"GET /debug/pprof/", "Go profiling", pprof.Index},
		{"GET /debug/pprof/cmdline", "", pprof.Cmdline},
		{"GET /debug/pprof/profile", "", pprof.Profile},
		{"GET /debug/pprof/symbol", "", pprof.Symbol},
		{"GET /debug/pprof/trace", "", pprof.Trace},
	}
	mux := http.NewServeMux()
	for _, r := range s.routes {
		mux.HandleFunc(r.pattern, r.handler)
	}
	mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux = mux
	return s, nil
}

// route is one mounted endpoint: its mux pattern, its index-page
// description ("" keeps it off the index), and its handler.
type route struct {
	pattern string
	desc    string
	handler http.HandlerFunc
}

// Handler returns the daemon's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the process-wide metrics registry behind /metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Addr returns the actual listen address once Serve has bound it — the way
// to find the port after listening on ":0".
func (s *Server) Addr() string {
	if a, ok := s.addr.Load().(string); ok {
		return a
	}
	return s.cfg.Addr
}

// Run listens on Config.Addr and serves until ctx is cancelled, then drains
// gracefully.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve serves HTTP on ln until ctx is cancelled, then drains: readiness
// flips to 503 (load balancers stop routing), live event streams end, and
// in-flight requests get up to Config.DrainTimeout to finish before the
// listener closes. Returns nil after a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.addr.Store(ln.Addr().String())
	srv := &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	s.ready.Store(true)
	s.cfg.Log.Printf("serving on http://%s (max-inflight %d, timeout %s)",
		ln.Addr(), s.cfg.MaxInflight, s.cfg.Timeout)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		s.ready.Store(false)
		return err
	case <-ctx.Done():
	}
	s.ready.Store(false)
	s.cfg.Log.Printf("draining (timeout %s)", s.cfg.DrainTimeout)
	s.bcast.closeAll()
	sctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(sctx)
	<-errc // srv.Serve has returned http.ErrServerClosed
	if err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	s.cfg.Log.Printf("drained")
	return nil
}

// handleIndex is a plain-text map of the surface, rendered from the same
// routes table the mux is built from.
func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "starburst serve — optimizer as a service (schema %s)\n\n", SchemaV1)
	width := 0
	for _, r := range s.routes {
		if r.desc != "" && len(r.pattern) > width {
			width = len(r.pattern)
		}
	}
	for _, r := range s.routes {
		if r.desc == "" {
			continue
		}
		method, path, _ := strings.Cut(r.pattern, " ")
		fmt.Fprintf(w, "%-4s %-*s  %s\n", method, width-len(method), path, r.desc)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// readyzBody is the GET /readyz JSON: load balancers branch on the status
// code, humans and scripts read the body.
type readyzBody struct {
	Ready bool `json:"ready"`
	// Draining is true once shutdown began (readiness flipped off while
	// the daemon finishes in-flight work).
	Draining bool `json:"draining"`
	// Inflight is the number of currently admitted /optimize requests.
	Inflight int `json:"inflight"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready := s.ready.Load()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, readyzBody{Ready: ready, Draining: !ready, Inflight: len(s.inflight)})
}

// handleMetrics sets the derived gauges per scrape, then writes the registry.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.templates.mu.Lock()
	s.ledger.PublishMetrics(s.reg, s.rules)
	s.templates.mu.Unlock()
	if s.flight != nil {
		s.reg.Gauge("flight_templates").Set(int64(len(s.flightTemplates())))
		s.reg.Gauge("flight_incidents").Set(int64(s.flight.Stats().Incidents))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.cfg.Log.Printf("metrics write: %v", err)
	}
}

// handleCoverage renders the rolling coverage + Q-error ledger: which
// alternatives of the serving repertoire requests have exercised so far,
// and per-query-template estimate-vs-actual quality after execute+analyze
// requests.
func (s *Server) handleCoverage(w http.ResponseWriter, _ *http.Request) {
	s.templates.mu.Lock()
	rep := s.ledger.Snapshot(s.rules)
	for _, t := range s.templates.recs {
		rep.Templates = append(rep.Templates, t.ledger.Report(t.template))
	}
	s.templates.mu.Unlock()
	s.writeJSON(w, http.StatusOK, rep)
}

// handleProfile renders the rolling self-profile aggregate (schema
// stars/profile/v1): every request's phase/rule/activity/rank
// attribution folded together since boot.
func (s *Server) handleProfile(w http.ResponseWriter, _ *http.Request) {
	rep := prof.NewReport(runtime.GOMAXPROCS(0), s.cfg.Parallelism)
	s.profMu.Lock()
	rep.Requests = s.profRequests
	rep.Totals = s.profAgg.Clone()
	s.profMu.Unlock()
	s.writeJSON(w, http.StatusOK, rep)
}

// outcome is one request worker's result.
type outcome struct {
	status int
	resp   *OptimizeResponse
	err    error
}

// handleOptimize admits, times, and answers one optimization request.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := "r" + strconv.FormatInt(s.reqSeq.Add(1), 10)
	status := http.StatusOK
	defer func() {
		s.reg.Counter(`serve_requests_total{status="` + strconv.Itoa(status) + `"}`).Add(1)
		s.reg.Histogram(`serve_request_seconds{path="/optimize"}`).Observe(time.Since(start))
	}()

	// Admission gate: reject rather than queue when MaxInflight requests
	// are already being optimized — a loaded optimizer service degrades
	// more predictably by shedding than by stacking latency.
	select {
	case s.inflight <- struct{}{}:
	default:
		status = http.StatusServiceUnavailable
		s.reg.Counter("serve_rejected_total").Add(1)
		s.writeError(w, status, reqID, fmt.Errorf("too many in-flight requests (max %d)", s.cfg.MaxInflight))
		return
	}
	gauge := s.reg.Gauge("serve_inflight")
	gauge.Add(1)

	var req OptimizeRequest
	body := io.LimitReader(r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		status = http.StatusBadRequest
		gauge.Add(-1)
		<-s.inflight
		s.writeError(w, status, reqID, fmt.Errorf("bad request body: %w", err))
		return
	}

	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			gauge.Add(-1)
			<-s.inflight
		}()
		done <- s.do(reqID, req)
	}()
	select {
	case out := <-done:
		status = out.status
		if out.err != nil {
			s.writeError(w, status, reqID, out.err)
			return
		}
		s.writeJSON(w, status, out.resp)
	case <-ctx.Done():
		// The worker finishes in the background (optimization is not
		// cancellable mid-enumeration) and still merges its metrics;
		// only the response is abandoned.
		status = http.StatusGatewayTimeout
		s.writeError(w, status, reqID, fmt.Errorf("request exceeded %s", s.cfg.Timeout))
	}
}

// do labels the worker goroutine with the request's identity (req=,
// template=) for the duration of the work, so external CPU/goroutine
// profiles taken through /debug/pprof attribute samples to requests, then
// runs it. The labels survive into the optimizer's worker pool only for
// work on this goroutine; enumeration workers carry their own phase=/rank=
// labels when label mode is on.
func (s *Server) do(reqID string, req OptimizeRequest) (out outcome) {
	tmpl := coverage.Template(req.SQL)
	labels := rpprof.Labels("req", reqID, "template", tmpl)
	rpprof.Do(context.Background(), labels, func(context.Context) {
		out = s.doLabeled(reqID, tmpl, req)
	})
	return out
}

// doLabeled performs one request's work: parse, optimize, optionally
// execute, render. It owns the request's private sink and merges its
// metrics into the shared registry on the way out.
func (s *Server) doLabeled(reqID, tmpl string, req OptimizeRequest) outcome {
	if s.testHold != nil {
		<-s.testHold
	}
	start := time.Now()
	allocs0 := obs.HeapAllocs()
	// The search-step stream is recorded only when someone will read it:
	// this request's provenance, or a live /events tail. Everything else —
	// metrics, profile, coverage and Q-error folds, the flight record —
	// needs no more than the always-on tier.
	sink := s.sinks.Get().(*obs.Sink)
	sink.Reset(reqID)
	sink.SetTracing(req.Provenance || s.bcast.subscribers.Value() > 0)
	sink.Tee(func(e obs.Event) { s.bcast.publish(reqID, e) })
	sink.EnableProf(obs.ProfOptions{})
	// The merge is the sink's last consumer, so the sink goes back to the
	// pool right after it; nothing may keep sink.Events() past the folds
	// below. Every series the sink holds is already in s.reg (the request
	// that made it merged it), so a recycled sink's merge adds none.
	defer s.sinks.Put(sink)
	defer s.reg.Merge(sink.Registry())
	// LIFO puts this before the merge above: flush any phase/rank tallies
	// the optimizer didn't publish itself (the parse phase, failed runs —
	// publishing is delta-aware, so double publishing is safe), then fold
	// this request's attribution into the rolling GET /profile aggregate.
	// The allocation bracket reads a process-global counter, so under
	// concurrent requests it is an upper bound, not an exact figure.
	defer func() {
		sink.Prof().PublishMetrics(sink.Registry())
		pr := prof.FromSink(sink)
		pr.ElapsedNS = time.Since(start).Nanoseconds()
		pr.Allocs = obs.HeapAllocs() - allocs0
		s.profMu.Lock()
		s.profAgg.Merge(pr)
		s.profRequests++
		s.profMu.Unlock()
	}()
	// LIFO puts this after the EvRequestDone emit below, so the whole
	// stream is final: fold it into the ledger and the template's record
	// (counters reach the registry via the merge above), then file any
	// incident the watchdog raised — its capture wants the complete trace
	// (exec.feedback included).
	status := http.StatusOK
	var (
		flightRes  *opt.Result
		flightFP   string // the chosen plan's fingerprint, rendered once
		flightExec bool
	)
	defer func() {
		o := s.fold(reqID, tmpl, req, sink.Events(), flightRes, flightFP, status, time.Since(start), flightExec)
		if len(o.Triggers) > 0 {
			s.fileIncident(o, req, tmpl, sink, flightRes)
		}
		// Every consumer of the result is done (the response is rendered,
		// incident captures serialize plans to JSON): hand the plan arenas
		// back, so the next request fills the same chunks instead of
		// allocating its own. From here on every plan pointer into them is
		// dead; nothing above may have kept one.
		if flightRes != nil {
			flightRes.Release()
		}
	}()

	defer func() {
		//obsguard:ignore once per request; the serving sink is never nil
		sink.Emit(obs.Event{Name: EvRequestDone, A1: "/optimize",
			N1: int64(status), F1: time.Since(start).Seconds()})
	}()
	sink.Emit(obs.Event{Name: EvRequest, A1: "/optimize", A2: req.SQL}) //obsguard:ignore once per request; the serving sink is never nil

	fail := func(st int, err error) outcome {
		status = st
		return outcome{status: st, err: err}
	}
	if req.SQL == "" {
		return fail(http.StatusBadRequest, fmt.Errorf("missing \"sql\" field"))
	}
	// The SQL front end runs outside Optimize, so bill it to the profiler
	// explicitly as the "parse" phase (no-op when profiling is off).
	pa, pt := obs.HeapAllocs(), time.Now()
	g, err := sqlparse.Parse(req.SQL, s.cfg.Catalog)
	sink.ProfPhase("parse", time.Since(pt), obs.HeapAllocs()-pa) //obsguard:ignore once per request; ProfPhase args are alloc-free
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	res, err := opt.New(s.cfg.Catalog, s.optimizerOptions(sink)).Optimize(g)
	if err != nil {
		return fail(http.StatusUnprocessableEntity, err)
	}
	flightRes, flightFP = res, res.Best.Fingerprint()

	resp := &OptimizeResponse{
		Schema:    SchemaV1,
		RequestID: reqID,
		SQL:       req.SQL,
		Plan: PlanJSON{
			Fingerprint:   flightFP,
			EstimatedRows: res.Best.Props.Card,
			Cost:          costJSON(res.Best.Props.Cost),
		},
	}
	switch req.Format {
	case "", "tree":
		resp.Plan.Explain = s.explain(res.Best, req.Verbose)
	case "functional":
		resp.Plan.Functional = plan.Functional(res.Best)
	case "both":
		resp.Plan.Explain = s.explain(res.Best, req.Verbose)
		resp.Plan.Functional = plan.Functional(res.Best)
	default:
		return fail(http.StatusBadRequest,
			fmt.Errorf("unknown format %q (want tree, functional, or both)", req.Format))
	}

	if req.Provenance {
		dag, err := provenance.FromResult(res)
		if err != nil {
			return fail(http.StatusInternalServerError, fmt.Errorf("provenance: %w", err))
		}
		var buf bytes.Buffer
		if err := dag.WriteJSON(&buf); err != nil {
			return fail(http.StatusInternalServerError, fmt.Errorf("provenance: %w", err))
		}
		resp.Provenance = json.RawMessage(buf.Bytes())
	}

	if req.Execute || req.Analyze {
		ex, err := s.execute(sink, res, g, req)
		if err != nil {
			return fail(http.StatusInternalServerError, fmt.Errorf("execute: %w", err))
		}
		resp.Execution = ex
		flightExec = true
	}

	resp.Stats = statsJSON(res.Stats, sink.Len())
	resp.Metrics = sink.Registry().Counters()
	return outcome{status: status, resp: resp}
}

// optimizerOptions are the daemon's optimizer options for one run reporting
// into sink.
func (s *Server) optimizerOptions(sink *obs.Sink) opt.Options {
	opts := s.cfg.Options
	opts.Obs = sink
	opts.Rules = s.rules
	opts.Parallelism = s.cfg.Parallelism
	return opts
}

// explain renders the plan tree.
func (s *Server) explain(p *plan.Node, verbose bool) string {
	if verbose {
		return plan.ExplainVerbose(p)
	}
	return plan.Explain(p)
}

// execute runs the chosen plan against the daemon's data. Runs are
// serialized: the storage cluster's resource counters are per-run state.
func (s *Server) execute(sink *obs.Sink, res *opt.Result, g *query.Graph, req OptimizeRequest) (*ExecutionJSON, error) {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	rt := exec.NewRuntime(s.cluster, s.cfg.Catalog)
	rt.Obs = sink
	rt.CollectOpStats = req.Analyze
	er, err := rt.Run(res.Best)
	if err != nil {
		return nil, err
	}
	limit := req.Limit
	if limit == 0 {
		limit = s.cfg.Limit
	}
	w := s.cfg.Options.Weights
	if w == (cost.Weights{}) {
		w = cost.DefaultWeights
	}
	out := executionJSON(er, w, g.SelectCols(s.cfg.Catalog), limit)
	if req.Analyze {
		out.Analyze = plan.ExplainAnalyze(res.Best, exec.Actuals(er, w))
	}
	return out, nil
}

// writeJSON writes a JSON response body.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.cfg.Log.Printf("response write: %v", err)
	}
}

// writeError writes the uniform JSON error body.
func (s *Server) writeError(w http.ResponseWriter, status int, reqID string, err error) {
	s.writeJSON(w, status, ErrorResponse{Schema: SchemaV1, RequestID: reqID, Error: err.Error()})
}
