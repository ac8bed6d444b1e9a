package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"stars"
	"stars/internal/catalog"
	"stars/internal/serve"
)

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// clients is the closed-loop client count: callers that each wait for their
// reply before sending the next request.
func clients() int { return min(runtime.NumCPU(), 2) }

// daemon is a real in-process `starburst serve` with the default
// configuration (flight recorder and profiling on, Parallelism 1) on a
// loopback port, and the keep-alive client that drives it.
type daemon struct {
	srv    *serve.Server
	url    string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

func startDaemon(cat *catalog.Catalog) (*daemon, error) {
	srv, err := serve.New(serve.Config{Catalog: cat, Demo: true, Seed: daemonSeed})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{
		srv:    srv,
		url:    "http://" + ln.Addr().String() + "/optimize",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients()}},
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { d.done <- srv.Serve(ctx, ln) }()
	return d, nil
}

// stop drains the daemon and waits for its listener goroutine.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	d.cancel()
	return <-d.done
}

// post sends one request and returns the status and the whole body.
func (d *daemon) post(body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	return resp.StatusCode, payload, err
}

// op is one completed operation as the checks need it.
type op struct {
	idx  int // list position
	end  time.Time
	lat  time.Duration
	cost float64
	fp   string
	rows [][]string // executed rows, kept for the reference evaluator
	err  error
}

// serveOp sends list position idx and checks the reply's shape: status 200,
// the schema tag, a fingerprint, a finite positive cost and every rendering
// the request asked for.
func serveOp(d *daemon, list []request, idx int) op {
	r := list[idx%len(list)]
	start := time.Now()
	status, payload, err := d.post(r.body)
	o := op{idx: idx, lat: time.Since(start), err: err}
	if err != nil {
		return o
	}
	if status != http.StatusOK {
		o.err = fmt.Errorf("status %d: %.200s", status, payload)
		return o
	}
	var resp serve.OptimizeResponse
	if o.err = json.Unmarshal(payload, &resp); o.err != nil {
		return o
	}
	o.cost, o.fp = resp.Plan.Cost.Total, resp.Plan.Fingerprint
	want := r.tmpl.opts
	switch {
	case resp.Schema != serve.SchemaV1:
		o.err = fmt.Errorf("schema %q", resp.Schema)
	case o.fp == "":
		o.err = fmt.Errorf("no fingerprint")
	case !(o.cost > 0) || math.IsInf(o.cost, 0):
		o.err = fmt.Errorf("cost.total %v", o.cost)
	case want.Format != "functional" && resp.Plan.Explain == "":
		o.err = fmt.Errorf("no explain rendering")
	case (want.Format == "functional" || want.Format == "both") && resp.Plan.Functional == "":
		o.err = fmt.Errorf("no functional rendering")
	case want.Provenance && len(resp.Provenance) == 0:
		o.err = fmt.Errorf("no provenance")
	case want.Analyze && (resp.Execution == nil || resp.Execution.Analyze == ""):
		o.err = fmt.Errorf("no execution analysis")
	}
	if resp.Execution != nil {
		o.rows = resp.Execution.Rows
	}
	return o
}

// libOp runs one optimization through the public library path, observability
// off.
func libOp(cat *catalog.Catalog, list []request, idx int) op {
	start := time.Now()
	o := op{idx: idx}
	g, err := stars.ParseSQL(list[idx%len(list)].sql, cat)
	if err == nil {
		var res *stars.Result
		if res, err = stars.Optimize(cat, g, stars.Options{Parallelism: 1}); err == nil {
			o.cost, o.fp = res.Best.Props.Cost.Total, res.Best.Fingerprint()
			res.Release()
		}
	}
	o.lat, o.err = time.Since(start), err
	return o
}

// usage is a reading of the process's cumulative resource counters.
type usage struct {
	cpu           time.Duration // user + system
	allocs        uint64        // heap objects
	bytes         uint64        // heap bytes
	gcCycles      uint64
	gcCPU, allCPU float64 // seconds, as the runtime estimates them
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: s[0].Value.Uint64(), bytes: s[1].Value.Uint64(), gcCycles: s[2].Value.Uint64(),
		gcCPU: s[3].Value.Float64(), allCPU: s[4].Value.Float64(),
	}
}

// target is the system a workload drives: a daemon for the serve workloads,
// the library for lib_scale. Setting one up is what setup_s times.
type target struct {
	cat *catalog.Catalog
	d   *daemon // nil for lib_scale
	// warm holds the warm-up operations: they fill the arena pool, the
	// connections and the flight baselines, and they are untimed.
	warm []op
}

func (t *target) do(list []request, idx int) op {
	var o op
	if t.d == nil {
		o = libOp(t.cat, list, idx)
	} else {
		o = serveOp(t.d, list, idx)
	}
	o.end = time.Now()
	return o
}

// clients is the number of closed-loop clients that drive the target.
func (t *target) clients() int {
	if t.d == nil {
		return 1
	}
	return clients()
}

func (t *target) stop() error {
	if t.d == nil {
		return nil
	}
	return t.d.stop()
}

// warmup returns the list positions of a workload's warm-up: serve_small's
// cold sweep (every template once, the head of its list), and for the
// block-built lists operations of fixed classes from the far end, so the
// timed run starts on a block boundary and set-up does the same work for
// every seed.
func warmup(name string, list []request) []int {
	var idx []int
	tail := func(blocks, size int, take func(*template) bool) {
		for i := len(list) - blocks*size; i < len(list); i++ {
			if take(list[i].tmpl) {
				idx = append(idx, i)
			}
		}
	}
	switch name {
	case "serve_small":
		for i := 0; i < smallUniverse; i++ {
			idx = append(idx, i)
		}
	case "serve_wide":
		tail(1, len(wideMix), func(t *template) bool { return t.class == "chain6" || t.class == "chain7" })
	case "serve_explain":
		tail(10, len(explainMix), func(*template) bool { return true })
	case "lib_scale":
		tail(1, len(libScalePoints), func(t *template) bool { return t.quants <= 6 })
	}
	return idx
}

// window is the number of operations a timed run's windows hold: whole
// blocks of the list, so that every window holds the same mix of classes
// (serve_small's Zipf draws have no blocks). A run ends on a window boundary,
// and its timing metrics are medians over its windows: the neighbours of a
// shared host disturb a run in bursts of seconds, which a median over windows
// leaves out and a mean over the run does not.
func window(name string) int {
	switch name {
	case "serve_wide":
		return len(wideMix) // about 1.5 s
	case "serve_explain":
		return 20 * len(explainMix) // about 2 s
	case "lib_scale":
		return len(libScalePoints) // one pass, about 4 s
	}
	return 256 // serve_small: about 0.5 s
}

// setup builds the catalog, boots the daemon (serve workloads) and runs the
// warm-up through it.
func setup(name string, list []request) (*target, error) {
	t := &target{cat: buildCatalog()}
	if name != "lib_scale" {
		d, err := startDaemon(t.cat)
		if err != nil {
			return nil, err
		}
		t.d = d
	}
	t.warm = drive(t, list, warmup(name, list))
	return t, nil
}

// closedLoop runs operations with each client taking its next list position
// (from take) only when its previous reply has arrived, calls done after each
// operation, and returns the operations in list order.
func closedLoop(t *target, list []request, take func() (int, bool), done func()) []op {
	perClient := make([][]op, t.clients())
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for idx, ok := take(); ok; idx, ok = take() {
				perClient[c] = append(perClient[c], t.do(list, idx))
				done()
			}
		}(c)
	}
	wg.Wait()
	var ops []op
	for _, p := range perClient {
		ops = append(ops, p...)
	}
	sort.Slice(ops, func(a, b int) bool { return ops[a].idx < ops[b].idx })
	return ops
}

// drive runs exactly the given list positions.
func drive(t *target, list []request, positions []int) []op {
	var next atomic.Int64
	return closedLoop(t, list, func() (int, bool) {
		i := int(next.Add(1) - 1)
		if i >= len(positions) {
			return 0, false
		}
		return positions[i], true
	}, func() {})
}

// mark is a reading of the clock and the resource counters at the end of a
// window.
type mark struct {
	at time.Time
	usage
}

// driveFor runs the positions from first on, until the time is up and the
// window then in progress is complete. It returns the operations and a mark
// at the start and after every window's worth of completions.
func driveFor(t *target, list []request, first, window int, d time.Duration) ([]op, []mark) {
	var mu sync.Mutex
	taken, completed, stopped := 0, 0, false
	marks := []mark{{time.Now(), readUsage()}}
	ops := closedLoop(t, list, func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || (taken%window == 0 && time.Since(marks[0].at) >= d) {
			stopped = true
			return 0, false
		}
		taken++
		return first + taken - 1, true
	}, func() {
		mu.Lock()
		defer mu.Unlock()
		if completed++; completed%window == 0 {
			marks = append(marks, mark{time.Now(), readUsage()})
		}
	})
	return ops, marks
}

// endToEnd sets the workload up, puts it under load for the given time with
// the benchmark's span recording off, checks the outputs and returns the
// end-to-end metrics (and the load's timing figures, which are printed but
// carry no bound).
func endToEnd(name string, list []request, seed int64, seconds float64) (*result, error) {
	var t *target
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if t != nil {
			if err := t.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if t, err = setup(name, list); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	res := &result{Workload: name, values: map[string]float64{}}
	ops := load(res, t, name, list, seconds)
	if err := t.stop(); err != nil {
		return nil, err
	}
	res.Attempted = len(ops)
	costs := check(res, name, t.cat, list, append(append([]op(nil), t.warm...), ops...), seed)
	res.values["setup_s"] = median(setupTimes)
	res.values["plan_cost_geomean"] = geomean(costs)
	return res, nil
}

// loadMetrics are the timing figures of the closed-loop load. The host's
// speed drifts too much between runs for them to carry a bound, so they are
// per-layer metrics of the traced run, and an end-to-end run prints them
// without gating on them.
var loadMetrics = []metricDef{
	{"load.ops_per_s", "1/s"},
	{"load.latency_p50_ms", "ms"},
	{"load.latency_p90_ms", "ms"},
	{"load.cpu_ms_per_op", "ms"},
}

// load drives the target closed-loop for the given time, counts failed
// operations into res and files the load's figures: allocation per op over
// the whole run, and for each timing figure the median over the run's windows.
func load(res *result, t *target, name string, list []request, seconds float64) []op {
	runtime.GC() // start every run from a collected heap
	first := 0
	if name == "serve_small" { // the cold sweep is the head of its list
		first = len(t.warm)
	}
	w := window(name)
	ops, marks := driveFor(t, list, first, w, time.Duration(seconds*float64(time.Second)))
	for _, o := range ops {
		if o.err != nil {
			res.fail("op %d: %v", o.idx, o.err)
		}
	}

	// Window k holds the operations that completed k*w-th to (k+1)*w-1-th.
	byEnd := append([]op(nil), ops...)
	sort.Slice(byEnd, func(a, b int) bool { return byEnd[a].end.Before(byEnd[b].end) })
	var rate, cpu, p50, p90 []float64
	for k := 1; k < len(marks); k++ {
		var lats []float64
		for _, o := range byEnd[(k-1)*w : k*w] {
			if o.err == nil {
				lats = append(lats, ms(o.lat))
			}
		}
		sort.Float64s(lats)
		rate = append(rate, float64(len(lats))/marks[k].at.Sub(marks[k-1].at).Seconds())
		cpu = append(cpu, ms(marks[k].cpu-marks[k-1].cpu)/float64(w))
		p50 = append(p50, percentile(lats, 50))
		p90 = append(p90, percentile(lats, 90))
	}
	last, n := marks[len(marks)-1], float64(len(ops))
	res.values["allocs_per_op"] = float64(last.allocs-marks[0].allocs) / n
	res.values["bytes_per_op"] = float64(last.bytes-marks[0].bytes) / n
	res.values["load.ops_per_s"] = median(rate)
	res.values["load.latency_p50_ms"] = median(p50)
	res.values["load.latency_p90_ms"] = median(p90)
	res.values["load.cpu_ms_per_op"] = median(cpu)
	res.note("%s", classLatencies(list, ops))
	res.note("ops_per_s by window: %.4g", rate)
	res.note("load: %d ops in %.1fs by %d client(s), %d windows of %d; over the whole run p%g is the highest percentile with %d samples beyond it",
		len(ops), last.at.Sub(marks[0].at).Seconds(), t.clients(), len(marks)-1, w, tailPercentile(len(ops)), tailSupport)
	return ops
}

// classLatencies renders the median latency of every structural class, the
// clusters the overall percentiles fall into.
func classLatencies(list []request, ops []op) string {
	byClass := map[string][]float64{}
	for _, o := range ops {
		if o.err == nil {
			c := list[o.idx%len(list)].tmpl.class
			byClass[c] = append(byClass[c], float64(o.lat)/float64(time.Millisecond))
		}
	}
	var classes []string
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	out := "p50 by class (ms):"
	for _, c := range classes {
		out += fmt.Sprintf(" %s=%.3g(n=%d)", c, median(byClass[c]), len(byClass[c]))
	}
	return out
}
