package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/prof"
)

const figure1SQL = "SELECT DEPT.DNO, EMP.NAME FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO AND DEPT.MGR = 'Haas'"

// newTestServer builds a demo-catalog server with test-friendly knobs. Each
// success reply it writes is checked against encoding/json's (checkReplies).
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkReplies(t, s)
	return s
}

// postOptimize posts one request and decodes the response body.
func postOptimize(t *testing.T, url string, req OptimizeRequest) (int, OptimizeResponse, ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var ok OptimizeResponse
	var bad ErrorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ok); err != nil {
			t.Fatalf("bad 200 body %s: %v", raw, err)
		}
	} else if err := json.Unmarshal(raw, &bad); err != nil {
		t.Fatalf("bad error body %s: %v", raw, err)
	}
	return resp.StatusCode, ok, bad
}

// TestOptimizeRoundTrip exercises the full /optimize surface: plan
// renderings, stats, per-request metrics, provenance, and execution.
func TestOptimizeRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, resp, _ := postOptimize(t, ts.URL, OptimizeRequest{
		SQL: figure1SQL, Format: "both", Provenance: true, Analyze: true, Limit: 5,
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if resp.Schema != SchemaV1 {
		t.Errorf("schema = %q", resp.Schema)
	}
	if resp.RequestID == "" {
		t.Error("missing request_id")
	}
	if !strings.Contains(resp.Plan.Explain, "JOIN") {
		t.Errorf("explain missing join:\n%s", resp.Plan.Explain)
	}
	if !strings.Contains(resp.Plan.Functional, "JOIN(") {
		t.Errorf("functional notation missing: %s", resp.Plan.Functional)
	}
	if len(resp.Plan.Fingerprint) != 16 {
		t.Errorf("fingerprint = %q", resp.Plan.Fingerprint)
	}
	if resp.Plan.Cost.Total <= 0 {
		t.Errorf("cost total = %v", resp.Plan.Cost.Total)
	}
	if resp.Stats.RuleRefs == 0 || resp.Stats.Events == 0 {
		t.Errorf("stats look empty: %+v", resp.Stats)
	}
	if resp.Metrics["star_rule_refs_total"] != resp.Stats.RuleRefs {
		t.Errorf("metrics/stats disagree: %d vs %d",
			resp.Metrics["star_rule_refs_total"], resp.Stats.RuleRefs)
	}
	var dag struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(resp.Provenance, &dag); err != nil || dag.Schema == "" {
		t.Errorf("provenance not embedded: %v %s", err, resp.Provenance[:min(len(resp.Provenance), 80)])
	}
	ex := resp.Execution
	if ex == nil {
		t.Fatal("analyze did not execute")
	}
	if ex.RowCount == 0 || !ex.Truncated || len(ex.Rows) != 5 {
		t.Errorf("execution rows: count=%d truncated=%v len=%d", ex.RowCount, ex.Truncated, len(ex.Rows))
	}
	if len(ex.Columns) != 2 || ex.Columns[0] != "DEPT.DNO" {
		t.Errorf("columns = %v", ex.Columns)
	}
	if !strings.Contains(ex.Analyze, "actual") {
		t.Errorf("EXPLAIN ANALYZE text missing: %q", ex.Analyze)
	}
	if ex.ActualCost <= 0 || ex.Pages == 0 {
		t.Errorf("execution counters: %+v", ex)
	}
}

// TestOptimizeErrors: malformed bodies and unanswerable queries map to
// 4xx JSON errors, never 200 or panics.
func TestOptimizeErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// wide is a request whose FROM list has n range variables over EMP.
	wide := func(n int) string {
		from := make([]string, n)
		for i := range from {
			from[i] = fmt.Sprintf("EMP E%d", i)
		}
		return `{"sql":"SELECT E0.NAME FROM ` + strings.Join(from, ", ") + `"}`
	}
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{"sql":`, http.StatusBadRequest},
		{"missing sql", `{}`, http.StatusBadRequest},
		{"parse error", `{"sql":"SELECT FROM WHERE"}`, http.StatusBadRequest},
		{"unknown table", `{"sql":"SELECT NOPE.X FROM NOPE"}`, http.StatusBadRequest},
		{"bad format", `{"sql":"SELECT EMP.NAME FROM EMP","format":"yaml"}`, http.StatusBadRequest},
		// Past the enumerator's 30 quantifiers the optimizer refuses (422);
		// past the 64 a table-set word holds the query is not representable
		// and is refused where it is parsed (400).
		{"31 quantifiers", wide(31), http.StatusUnprocessableEntity},
		{"64 quantifiers", wide(64), http.StatusUnprocessableEntity},
		{"65 quantifiers", wide(65), http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, raw)
		}
		var e ErrorResponse
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" || e.Schema != SchemaV1 {
			t.Errorf("%s: error body %s", tc.name, raw)
		}
	}

	// Wrong method.
	resp, err := http.Get(ts.URL + "/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /optimize = %d, want 405", resp.StatusCode)
	}
}

// TestConcurrentRequestIsolation is the tentpole's acceptance test: N
// goroutines post distinct queries concurrently; the live event stream must
// keep every event attributed to exactly one request (per-request sequence
// numbers monotonic, SQL matching what that request posted), and the
// aggregate /metrics counters must equal the per-request sums.
func TestConcurrentRequestIsolation(t *testing.T) {
	s := newTestServer(t, Config{EventBuffer: 1 << 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Distinct queries so mixed-up traces can't accidentally agree.
	queries := []string{
		figure1SQL,
		"SELECT EMP.NAME FROM EMP WHERE EMP.SAL > 50",
		"SELECT DEPT.MGR FROM DEPT WHERE DEPT.BUDGET > 10",
		"SELECT DEPT.DNO, EMP.ENO FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO ORDER BY DEPT.DNO",
		"SELECT EMP.ADDRESS FROM EMP WHERE EMP.ENO = 7",
	}

	// Subscribe to the stream before posting.
	sctx, scancel := context.WithCancel(context.Background())
	defer scancel()
	evReq, err := http.NewRequestWithContext(sctx, "GET", ts.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	evResp, err := http.DefaultClient.Do(evReq)
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	if ct := evResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content-type = %q", ct)
	}
	type evLine struct {
		Seq  int64  `json:"seq"`
		Name string `json:"name"`
		Req  string `json:"req"`
		A2   string `json:"a2"`
		N1   int64  `json:"n1"`
	}
	lines := make(chan evLine, 1<<16)
	go func() {
		sc := bufio.NewScanner(evResp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			var e evLine
			if json.Unmarshal(sc.Bytes(), &e) == nil {
				lines <- e
			}
		}
		close(lines)
	}()

	const N = 16
	posted := make(map[string]string, N) // request id -> SQL posted
	var mu sync.Mutex
	sums := map[string]int64{}
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sql := queries[i%len(queries)]
			status, resp, bad := postOptimize(t, ts.URL, OptimizeRequest{SQL: sql})
			if status != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, status, bad.Error)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if other, dup := posted[resp.RequestID]; dup {
				t.Errorf("duplicate request id %s (%q and %q)", resp.RequestID, other, sql)
			}
			posted[resp.RequestID] = sql
			for name, v := range resp.Metrics {
				sums[name] += v
			}
		}(i)
	}
	wg.Wait()

	// Drain the stream until every request's done event has arrived.
	seen := map[string][]evLine{}
	doneEvents := 0
	deadline := time.After(10 * time.Second)
	for doneEvents < N {
		select {
		case e, ok := <-lines:
			if !ok {
				t.Fatal("event stream closed early")
			}
			if e.Name == EvDropped {
				t.Fatalf("stream dropped %d events; raise EventBuffer", e.N1)
			}
			seen[e.Req] = append(seen[e.Req], e)
			if e.Name == EvRequestDone {
				doneEvents++
			}
		case <-deadline:
			t.Fatalf("saw %d/%d done events", doneEvents, N)
		}
	}

	if len(seen) != N {
		t.Errorf("stream saw %d request ids, want %d", len(seen), N)
	}
	for req, evs := range seen {
		sql, known := posted[req]
		if !known {
			t.Errorf("stream event for unknown request %q", req)
			continue
		}
		if evs[0].Name != EvRequest || evs[0].A2 != sql {
			t.Errorf("%s: first event = %s %q, want %s %q", req, evs[0].Name, evs[0].A2, EvRequest, sql)
		}
		if last := evs[len(evs)-1]; last.Name != EvRequestDone || last.N1 != http.StatusOK {
			t.Errorf("%s: last event = %s status %d", req, last.Name, last.N1)
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].Seq != evs[i-1].Seq+1 {
				t.Errorf("%s: trace mixed or lossy: seq %d follows %d",
					req, evs[i].Seq, evs[i-1].Seq)
				break
			}
		}
	}

	// Aggregates equal the per-request sums, for every counter any request
	// reported.
	for name, want := range sums {
		if got := s.Registry().Counter(name).Value(); got != want {
			t.Errorf("aggregate %s = %d, want sum of per-request %d", name, got, want)
		}
	}
	if got := s.Registry().Counter(`serve_requests_total{status="200"}`).Value(); got != N {
		t.Errorf("serve_requests_total{200} = %d, want %d", got, N)
	}
	if got := s.Registry().Histogram(`serve_request_seconds{path="/optimize"}`).Count(); got != N {
		t.Errorf("latency histogram count = %d, want %d", got, N)
	}
	if got := s.Registry().Gauge("serve_inflight").Value(); got != 0 {
		t.Errorf("inflight gauge settled at %d, want 0", got)
	}
}

// TestAdmissionGate: with MaxInflight=1 and a request parked inside the
// worker, the next request is shed with 503 and counted.
func TestAdmissionGate(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1})
	hold := make(chan struct{})
	s.testHold = hold
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		status, _, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: figure1SQL})
		first <- status
	}()
	// Wait until the first request holds the only slot.
	waitFor(t, func() bool { return s.Registry().Gauge("serve_inflight").Value() == 1 })

	status, _, bad := postOptimize(t, ts.URL, OptimizeRequest{SQL: figure1SQL})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("second request status = %d, want 503", status)
	}
	if !strings.Contains(bad.Error, "in-flight") {
		t.Errorf("error = %q", bad.Error)
	}
	if got := s.Registry().Counter("serve_rejected_total").Value(); got != 1 {
		t.Errorf("serve_rejected_total = %d", got)
	}

	close(hold)
	if got := <-first; got != http.StatusOK {
		t.Errorf("held request finished with %d", got)
	}
}

// TestRequestTimeout: a request that overruns Config.Timeout gets 504 while
// its worker finishes (and merges metrics) in the background.
func TestRequestTimeout(t *testing.T) {
	s := newTestServer(t, Config{Timeout: 30 * time.Millisecond})
	hold := make(chan struct{})
	s.testHold = hold
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, _, bad := postOptimize(t, ts.URL, OptimizeRequest{SQL: figure1SQL})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", status)
	}
	if !strings.Contains(bad.Error, "exceeded") {
		t.Errorf("error = %q", bad.Error)
	}
	close(hold)
	// The abandoned worker still completes: its metrics eventually merge.
	waitFor(t, func() bool {
		return s.Registry().Counter("star_rule_refs_total").Value() > 0
	})
	if got := s.Registry().Counter(`serve_requests_total{status="504"}`).Value(); got != 1 {
		t.Errorf("504 counter = %d", got)
	}
}

// TestServeGracefulDrain: cancelling the serve context flips readiness,
// ends event streams, lets the in-flight request finish, and returns nil.
func TestServeGracefulDrain(t *testing.T) {
	s := newTestServer(t, Config{})
	hold := make(chan struct{})
	s.testHold = hold

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	var rb readyzBody
	waitFor(t, func() bool {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false
		}
		if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
			t.Fatalf("readyz body: %v", err)
		}
		return true
	})
	if !rb.Ready || rb.Draining {
		t.Errorf("ready body = %+v, want ready and not draining", rb)
	}

	// An open event stream and an in-flight request.
	evResp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	inflight := make(chan int, 1)
	go func() {
		status, _, _ := postOptimize(t, base, OptimizeRequest{SQL: figure1SQL})
		inflight <- status
	}()
	waitFor(t, func() bool { return s.Registry().Gauge("serve_inflight").Value() == 1 })

	cancel()
	// Drain must wait for the parked request; release it.
	time.Sleep(20 * time.Millisecond)
	close(hold)

	if status := <-inflight; status != http.StatusOK {
		t.Errorf("in-flight request during drain = %d, want 200", status)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve returned %v after drain", err)
	}
	// The event stream was closed by the drain.
	if _, err := io.ReadAll(evResp.Body); err != nil {
		t.Errorf("event stream did not end cleanly: %v", err)
	}
	// Readiness flipped before the listener closed; the JSON body says so
	// too (the listener is gone, so ask the handler directly).
	if s.ready.Load() {
		t.Error("server still ready after drain")
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain = %d, want 503", rec.Code)
	}
	rb = readyzBody{}
	if err := json.Unmarshal(rec.Body.Bytes(), &rb); err != nil {
		t.Fatalf("readyz body after drain: %v", err)
	}
	if rb.Ready || !rb.Draining {
		t.Errorf("readyz body after drain = %+v, want draining", rb)
	}
}

// TestEventsSSE: Accept: text/event-stream switches framing.
func TestEventsSSE(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	if status, _, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: "SELECT EMP.NAME FROM EMP"}); status != 200 {
		t.Fatal("optimize failed")
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var sawEventLine, sawDataLine bool
	for sc.Scan() && !(sawEventLine && sawDataLine) {
		if strings.HasPrefix(sc.Text(), "event: ") {
			sawEventLine = true
		}
		if strings.HasPrefix(sc.Text(), "data: {") {
			sawDataLine = true
		}
	}
	if !sawEventLine || !sawDataLine {
		t.Errorf("SSE framing missing (event:%v data:%v)", sawEventLine, sawDataLine)
	}
}

// TestBroadcasterDropsWhenFull: a full subscriber buffer drops (and counts)
// rather than blocking the publisher.
func TestBroadcasterDropsWhenFull(t *testing.T) {
	reg := obs.NewRegistry()
	b := newBroadcaster(reg)
	sub := b.subscribe(2)
	for i := 0; i < 5; i++ {
		b.publish("r", obs.Event{Name: "e", N1: int64(i)})
	}
	if got := sub.dropped.Load(); got != 3 {
		t.Errorf("subscriber dropped = %d, want 3", got)
	}
	if got := reg.Counter("serve_events_dropped_total").Value(); got != 3 {
		t.Errorf("dropped counter = %d, want 3", got)
	}
	if got := reg.Counter("serve_events_published_total").Value(); got != 5 {
		t.Errorf("published counter = %d, want 5", got)
	}
	b.closeAll()
	if b.subscribe(1) != nil {
		t.Error("subscribe after closeAll should refuse")
	}
	// Publishing after close is a no-op, not a panic.
	b.publish("r", obs.Event{Name: "e"})
}

// TestHealthEndpoints covers the trivial surfaces: index, healthz, metrics
// exposition well-formedness, pprof index.
func TestHealthEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for path, want := range map[string]string{
		"/":             "starburst serve",
		"/healthz":      "ok",
		"/readyz":       `"ready":false`, // ready flag is false until Serve runs
		"/metrics":      "# TYPE serve_requests_total counter",
		"/debug/pprof/": "goroutine",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want != "" && !strings.Contains(string(body), want) {
			t.Errorf("%s: body %q missing %q", path, truncate(string(body), 120), want)
		}
	}
	// readyz is 503 until Serve marks the listener up.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz before Serve = %d, want 503", resp.StatusCode)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// TestParallelismConfig pins the Config.Parallelism plumbing: it is the
// daemon's only fan-out control (zero or less is the default of 1, and
// Options.Parallelism is not a second one), the resolved value is what
// flight records, incident bundles and /profile report, and the chosen
// plan's fingerprint is identical at every level.
func TestParallelismConfig(t *testing.T) {
	fps := map[string]bool{}
	for _, tc := range []struct {
		par, optsPar, want int
	}{
		{par: 0, want: 1},
		{par: -1, want: 1},
		{par: 8, want: 8},
		{par: 0, optsPar: 4, want: 1},
	} {
		cfg := Config{Parallelism: tc.par, Options: opt.Options{Parallelism: tc.optsPar}}
		cfg.Flight = aggressiveFlight("") // the second request files a latency incident
		if got := cfg.withDefaults().Parallelism; got != tc.want {
			t.Errorf("Config{Parallelism: %d}.withDefaults().Parallelism = %d, want %d", tc.par, got, tc.want)
		}
		s := newTestServer(t, cfg)
		if got := s.optimizerOptions(nil).Parallelism; got != tc.want {
			t.Errorf("%+v: optimizer runs at %d, want %d", tc, got, tc.want)
		}
		ts := httptest.NewServer(s.Handler())
		for i := 0; i < 2; i++ {
			status, resp, bad := postOptimize(t, ts.URL, OptimizeRequest{SQL: figure1SQL})
			if status != http.StatusOK {
				t.Fatalf("%+v: status %d (%+v)", tc, status, bad)
			}
			fps[resp.Plan.Fingerprint] = true
		}
		var rep prof.Report
		getJSON(t, ts.URL+"/profile", &rep)
		ts.Close()
		if rep.Parallelism != tc.want {
			t.Errorf("%+v: /profile reports parallelism %d, want %d", tc, rep.Parallelism, tc.want)
		}
		for _, rec := range s.flight.Recent() {
			if rec.Parallelism != tc.want {
				t.Errorf("%+v: flight record %s has parallelism %d, want %d", tc, rec.Req, rec.Parallelism, tc.want)
			}
		}
		incs := s.flight.Incidents()
		if len(incs) != 1 {
			t.Fatalf("%+v: %d incidents, want 1", tc, len(incs))
		}
		if got := incs[0].Capture.Options.Parallelism; got != tc.want {
			t.Errorf("%+v: captured bundle has parallelism %d, want %d", tc, got, tc.want)
		}
	}
	if len(fps) != 1 {
		t.Errorf("fingerprint depends on parallelism: %v", fps)
	}
}
