package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stars/internal/flight"
	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/provenance"
	"stars/internal/sqlparse"
	"stars/internal/workload"
)

// TestDefaultRequestRecordsNoSearchSteps: without provenance and without a
// live /events tail a request — verbose, executed and analyzed ones
// included — materialises only its summary events, however much the
// optimizer searched; the coverage and Q-error folds still see it.
func TestDefaultRequestRecordsNoSearchSteps(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, traced, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: figure1SQL, Provenance: true})
	for _, req := range []OptimizeRequest{
		{SQL: figure1SQL},
		{SQL: figure1SQL, Verbose: true, Format: "both"},
		{SQL: figure1SQL, Execute: true, Analyze: true},
	} {
		status, resp, _ := postOptimize(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("%+v: status %d", req, status)
		}
		if resp.Stats.Events == 0 || resp.Stats.Events >= 200 || resp.Stats.Events*4 >= traced.Stats.Events {
			t.Errorf("%+v: %d events materialised (a traced run: %d); want the summary events only",
				req, resp.Stats.Events, traced.Stats.Events)
		}
	}
	cov := getCoverage(t, ts.URL)
	if cov.Coverage.Runs != 4 || cov.Coverage.Summary.Exercised == 0 {
		t.Errorf("coverage ledger missed the untraced runs: runs=%d exercised=%d", cov.Coverage.Runs, cov.Coverage.Summary.Exercised)
	}
	if len(cov.Templates) != 1 || cov.Templates[0].QError == nil {
		t.Errorf("Q-error ledger missed the untraced analyze run: %+v", cov.Templates)
	}
}

// TestProvenanceRequestTraces: asking for provenance selects the tracing
// tier for that request, and the DAG it returns is the one the library
// derives for the same query.
func TestProvenanceRequestTraces(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, resp, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: figure1SQL, Provenance: true})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if resp.Stats.Events <= resp.Stats.RuleRefs {
		t.Errorf("provenance request materialised %d events for %d rule references; want the full stream",
			resp.Stats.Events, resp.Stats.RuleRefs)
	}
	served, err := provenance.ReadJSON(bytes.NewReader(resp.Provenance))
	if err != nil {
		t.Fatal(err)
	}
	cat := workload.EmpDept()
	g, err := sqlparse.Parse(figure1SQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.New(cat, opt.Options{Obs: obs.NewSink(), Parallelism: 1}).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := provenance.FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if got := served.Checksum(); got != want.Checksum() {
		t.Errorf("served DAG checksum %s, library derives %s", got, want.Checksum())
	}
}

// TestEventsSubscriberUpgradesRequests: while someone tails /events, requests
// admitted afterwards record and stream their search steps; the upgrade ends
// with the subscription.
func TestEventsSubscriberUpgradesRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, before, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: figure1SQL})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	tail, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Body.Close()
	_, during, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: figure1SQL})
	if during.Stats.Events <= during.Stats.RuleRefs || during.Stats.Events <= before.Stats.Events {
		t.Fatalf("request under a live tail materialised %d events (untailed: %d, rule refs %d)",
			during.Stats.Events, before.Stats.Events, during.Stats.RuleRefs)
	}
	sc := bufio.NewScanner(tail.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	sawStep := false
	for !sawStep && sc.Scan() {
		sawStep = strings.Contains(sc.Text(), `"`+obs.EvAltFired+`"`) &&
			strings.Contains(sc.Text(), `"`+during.RequestID+`"`)
	}
	if !sawStep {
		t.Error("the tail never saw a search-step event of the upgraded request")
	}

	cancel()
	waitFor(t, func() bool { return s.Registry().Gauge("serve_event_subscribers").Value() == 0 })
	_, after, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: figure1SQL})
	if after.Stats.Events != before.Stats.Events {
		t.Errorf("after the tail left a request materialised %d events, want %d", after.Stats.Events, before.Stats.Events)
	}
}

// TestLiteralsDoNotFlipPlans: one template asked with different constants
// yields different plan fingerprints but one plan shape, so the watchdog
// stays quiet and the flight gauges still track the clean records.
func TestLiteralsDoNotFlipPlans(t *testing.T) {
	cfg := Config{}
	cfg.Flight = aggressiveFlight("")
	cfg.Flight.LatencyFactor = 1e9 // isolate the flip path
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fps := map[string]bool{}
	for _, mgr := range []string{"Haas", "Lohman", "Freytag"} {
		sql := strings.Replace(figure1SQL, "Haas", mgr, 1)
		status, resp, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: sql})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", mgr, status)
		}
		fps[resp.Plan.Fingerprint] = true
	}
	if len(fps) != 3 {
		t.Fatalf("plan fingerprints should carry the literal: got %d distinct", len(fps))
	}
	if incs := s.flight.Incidents(); len(incs) != 0 {
		t.Fatalf("literal change filed %d incident(s): %s", len(incs), incs[0].Triggers[0].Detail)
	}
	recent := s.flight.Recent()
	if len(recent) != 3 || recent[0].ShapeFP == "" || recent[0].ShapeFP != recent[2].ShapeFP || recent[0].PlanFP == recent[2].PlanFP {
		t.Errorf("records = %+v", recent)
	}

	// The census gauges follow every fold, not just triggering ones.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	for _, want := range []string{"flight_templates 1\n", "flight_incidents 0\n", "flight_records_total 3\n", "plan_flip_total 0\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q after three clean records", strings.TrimSpace(want))
		}
	}
}

// TestUntracedIncidentReplays: an incident filed from a request that ran
// without the search-step stream still carries a full trace and DAG (from
// the capture's second, traced run), keeps the request's own events and
// profile, and replays identically.
func TestUntracedIncidentReplays(t *testing.T) {
	cfg := Config{}
	cfg.Flight = aggressiveFlight("")
	cfg.Flight.LatencyFactor = 1e9 // isolate the qerror path
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, resp, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: figure1SQL, Analyze: true})
	if status != http.StatusOK || resp.Stats.Events >= 100 {
		t.Fatalf("status %d, %d events: the request should have run untraced", status, resp.Stats.Events)
	}
	incs := s.flight.Incidents()
	if len(incs) != 1 || incs[0].Kind != flight.KindQError {
		t.Fatalf("incidents = %+v", incs)
	}
	cap := incs[0].Capture
	count := map[string]int{}
	for _, e := range cap.Events {
		count[e.Name]++
		if e.Req != resp.RequestID {
			t.Fatalf("bundle event %+v not tagged with the request id %s", e, resp.RequestID)
		}
	}
	for _, name := range []string{obs.EvRule, obs.EvAltFired, obs.EvPlanOffer, obs.EvExecFeedback, EvRequest, EvRequestDone} {
		if count[name] == 0 {
			t.Errorf("bundle trace has no %s event (saw %v)", name, count)
		}
	}
	if int64(count[obs.EvAltFired]) != resp.Stats.AltsFired {
		t.Errorf("bundle trace shows %d firings, the request reported %d", count[obs.EvAltFired], resp.Stats.AltsFired)
	}
	if cap.Profile == nil || len(cap.Profile.Phases) == 0 || len(cap.Provenance) == 0 {
		t.Fatalf("capture incomplete: profile=%v provenance=%d bytes", cap.Profile != nil, len(cap.Provenance))
	}
	parsed := false
	for _, ph := range cap.Profile.Phases {
		parsed = parsed || ph.Phase == "parse"
	}
	if !parsed {
		t.Error("capture profile is not the original request's (no parse phase)")
	}
	rr, err := flight.Replay(incs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !rr.FingerprintMatch() || !rr.Identical {
		t.Errorf("replay diverged: fp=%s captured=%s identical=%v", rr.Fingerprint, rr.CapturedFP, rr.Identical)
	}
}

// TestMetricsSeriesStayFlatAcrossAliases: quantifier names are request input,
// so no series may be labelled by them — a daemon fed fresh aliases forever
// must expose as many series after the thousandth request as after the first.
func TestMetricsSeriesStayFlatAcrossAliases(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	series := func() int {
		var buf bytes.Buffer
		if err := s.reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return strings.Count(buf.String(), "\n")
	}
	post := func(e, d string) {
		sql := fmt.Sprintf("SELECT %[1]s.NAME, %[2]s.MGR FROM EMP %[1]s, DEPT %[2]s WHERE %[1]s.DNO = %[2]s.DNO", e, d)
		if status, _, bad := postOptimize(t, ts.URL, OptimizeRequest{SQL: sql}); status != http.StatusOK {
			t.Fatalf("%s: status %d: %+v", sql, status, bad)
		}
	}
	post("E", "D")
	before := series()
	for i := 0; i < 8; i++ {
		post(fmt.Sprintf("E%d", i), fmt.Sprintf("D%d", i))
	}
	if after := series(); after != before {
		t.Errorf("/metrics grew from %d to %d lines over 8 requests that differ only in aliases", before, after)
	}
	var buf bytes.Buffer
	_ = s.reg.WritePrometheus(&buf) // a bytes.Buffer write cannot fail
	if !strings.Contains(buf.String(), "glue_call_seconds_count ") || strings.Contains(buf.String(), "glue_call_seconds_count{") {
		t.Error("glue_call_seconds must be one label-free histogram")
	}
}
