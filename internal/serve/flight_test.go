package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stars/internal/flight"
	"stars/internal/workload"
)

// aggressiveFlight is a watchdog configuration that fires deterministically:
// the second request of any template is a latency outlier (any wall time
// beats 1e-9x baseline and the 1ns floor), and any execute+analyze request
// is a Q-error blowup (Q-error is never below 1).
func aggressiveFlight(dir string) flight.Config {
	return flight.Config{
		MinSamples:      1,
		LatencyFactor:   1e-9,
		LatencyFloor:    time.Nanosecond,
		QErrorThreshold: 1,
		IncidentDir:     dir,
	}
}

func TestFlightMetricsPreregistered(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	for _, want := range []string{
		"flight_records_total 0",
		"flight_incidents_total 0",
		"flight_incident_write_errors_total 0",
		"plan_flip_total 0",
		`flight_anomaly_total{kind="plan_flip"} 0`,
		`flight_anomaly_total{kind="qerror"} 0`,
		`flight_anomaly_total{kind="latency"} 0`,
		"flight_templates 0",
		"flight_incidents 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q before traffic", want)
		}
	}
}

// readAll drains and closes a response body.
func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			if err.Error() == "EOF" {
				return sb.String(), nil
			}
			return sb.String(), err
		}
	}
}

// getJSON decodes one GET endpoint into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func TestFlightQErrorIncidentEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{}
	cfg.Flight = aggressiveFlight(dir)
	cfg.Flight.LatencyFactor = 1e9 // isolate the qerror path
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, _, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: figure1SQL, Analyze: true}); status != 200 {
		t.Fatalf("optimize = %d", status)
	}

	var list struct {
		Schema    string `json:"schema"`
		Enabled   bool   `json:"enabled"`
		Count     int    `json:"count"`
		Incidents []struct {
			ID     string `json:"id"`
			Kind   string `json:"kind"`
			SQL    string `json:"sql"`
			Detail string `json:"detail"`
		} `json:"incidents"`
	}
	getJSON(t, ts.URL+"/incidents", &list)
	if !list.Enabled || list.Count != 1 {
		t.Fatalf("incident list = %+v", list)
	}
	row := list.Incidents[0]
	if row.Kind != flight.KindQError || row.SQL != figure1SQL || row.Detail == "" {
		t.Fatalf("incident row = %+v", row)
	}

	// The full bundle is served and is byte-identical to the file on disk.
	resp, err := http.Get(ts.URL + "/incidents/" + row.ID)
	if err != nil {
		t.Fatal(err)
	}
	served, _ := readAll(resp)
	onDisk, err := os.ReadFile(filepath.Join(dir, row.ID+".json"))
	if err != nil {
		t.Fatalf("bundle file: %v", err)
	}
	if served != string(onDisk) {
		t.Error("served bundle differs from the file on disk")
	}

	// The bundle is complete: catalog, rules, events, provenance, profile.
	inc, err := flight.ReadIncident(filepath.Join(dir, row.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if inc.Kind != flight.KindQError || !inc.Record.Executed || inc.Record.MaxQError < 1 {
		t.Fatalf("bundle record = %+v", inc.Record)
	}
	cap := inc.Capture
	if len(cap.Catalog) == 0 || cap.Rules == "" || len(cap.Events) == 0 ||
		len(cap.Provenance) == 0 || cap.ProvenanceChecksum == "" || cap.Profile == nil {
		t.Fatalf("capture incomplete: catalog=%d rules=%d events=%d prov=%d profile=%v",
			len(cap.Catalog), len(cap.Rules), len(cap.Events), len(cap.Provenance), cap.Profile != nil)
	}
	if cap.CatalogEpoch == "" || cap.RulesHash == "" || cap.RulesHash != inc.Record.RulesHash {
		t.Fatalf("identity stamps missing: %+v", cap)
	}

	// Replay reproduces the captured plan and derivation exactly.
	rr, err := flight.Replay(inc)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !rr.FingerprintMatch() || !rr.Identical {
		t.Fatalf("replay diverged: fp=%s captured=%s identical=%v", rr.Fingerprint, rr.CapturedFP, rr.Identical)
	}

	// Metrics moved.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(mresp)
	for _, want := range []string{
		`flight_anomaly_total{kind="qerror"} 1`,
		"flight_incidents_total 1",
		"flight_incidents 1",
		"flight_templates 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q after incident", want)
		}
	}
}

func TestFlightLatencyIncident(t *testing.T) {
	cfg := Config{}
	cfg.Flight = aggressiveFlight("") // in-memory store only
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sql := "SELECT EMP.NAME FROM EMP WHERE EMP.SAL > 50"
	for i := 0; i < 2; i++ {
		if status, _, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: sql}); status != 200 {
			t.Fatalf("optimize %d = %d", i, status)
		}
	}
	incs := s.flight.Incidents()
	if len(incs) != 1 || incs[0].Kind != flight.KindLatency {
		t.Fatalf("incidents = %+v", incs)
	}
	tr := incs[0].Triggers[0]
	if tr.Samples != 1 || tr.BaselineNS <= 0 || tr.Observed <= tr.Threshold {
		t.Fatalf("latency trigger = %+v", tr)
	}
	if got := s.Registry().Counter(`flight_anomaly_total{kind="latency"}`).Value(); got != 1 {
		t.Errorf("latency anomaly counter = %d", got)
	}
}

func TestFlightPlanFlipIncident(t *testing.T) {
	// A catalog-stats mutation after boot leaves the boot-time epoch
	// stale, so the fingerprint change the new stats cause is flagged as
	// a plan flip. Mutating between fully-answered requests is safe: the
	// response only reaches the client after the worker (and its defers)
	// finished with the catalog.
	cat := workload.EmpDept()
	cfg := Config{Catalog: cat, Demo: true}
	cfg.Flight = aggressiveFlight(t.TempDir())
	cfg.Flight.LatencyFactor = 1e9 // isolate the flip path
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, _, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: figure1SQL}); status != 200 {
		t.Fatal("optimize failed")
	}
	cat.Table("EMP").Card = 50 // stats shift: the index-scan plan loses
	if status, _, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: figure1SQL}); status != 200 {
		t.Fatal("optimize failed")
	}

	incs := s.flight.Incidents()
	if len(incs) != 1 || incs[0].Kind != flight.KindPlanFlip {
		t.Fatalf("incidents = %+v", incs)
	}
	inc := incs[0]
	if inc.Prev == nil || inc.Prev.PlanFP == inc.Record.PlanFP {
		t.Fatalf("flip incident lacks a differing prev: %+v", inc.Prev)
	}
	if got := s.Registry().Counter("plan_flip_total").Value(); got != 1 {
		t.Errorf("plan_flip_total = %d", got)
	}
	// The capture holds the *mutated* catalog, so the replay reproduces
	// the new plan and an identical derivation — the flip explains itself.
	rr, err := flight.Replay(inc)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !rr.FingerprintMatch() || !rr.Identical {
		t.Fatalf("flip replay diverged: fp=%s captured=%s identical=%v",
			rr.Fingerprint, rr.CapturedFP, rr.Identical)
	}
}

func TestFlightDebugEndpoint(t *testing.T) {
	cfg := Config{}
	cfg.Flight = aggressiveFlight("")
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if status, _, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: figure1SQL}); status != 200 {
		t.Fatal("optimize failed")
	}
	var dbg struct {
		Schema       string `json:"schema"`
		Enabled      bool   `json:"enabled"`
		CatalogEpoch string `json:"catalog_epoch"`
		RulesHash    string `json:"rules_hash"`
		Stats        struct {
			Records   int64 `json:"records"`
			Templates int   `json:"templates"`
		} `json:"stats"`
		Templates []struct {
			Template string `json:"template"`
			PlanFP   string `json:"plan_fp"`
		} `json:"templates"`
		Recent []struct {
			Req string `json:"req"`
			SQL string `json:"sql"`
		} `json:"recent"`
	}
	getJSON(t, ts.URL+"/debug/flight", &dbg)
	if dbg.Schema != "stars/flight/v1" || !dbg.Enabled {
		t.Fatalf("debug = %+v", dbg)
	}
	if len(dbg.CatalogEpoch) != 16 || len(dbg.RulesHash) != 16 {
		t.Fatalf("identity stamps = %q/%q, want 16-hex digests", dbg.CatalogEpoch, dbg.RulesHash)
	}
	if dbg.Stats.Records != 1 || dbg.Stats.Templates != 1 ||
		len(dbg.Templates) != 1 || len(dbg.Recent) != 1 {
		t.Fatalf("census = %+v", dbg)
	}
	if dbg.Recent[0].SQL != figure1SQL || dbg.Templates[0].PlanFP == "" {
		t.Fatalf("contents = %+v", dbg)
	}
}

func TestFlightDisabled(t *testing.T) {
	s := newTestServer(t, Config{DisableFlight: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if status, _, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: figure1SQL}); status != 200 {
		t.Fatal("optimize failed")
	}
	// Surfaces stay mounted but empty and honest about it.
	var list struct {
		Enabled bool `json:"enabled"`
		Count   int  `json:"count"`
	}
	getJSON(t, ts.URL+"/incidents", &list)
	if list.Enabled || list.Count != 0 {
		t.Fatalf("disabled incident list = %+v", list)
	}
	var dbg struct {
		Enabled bool `json:"enabled"`
	}
	getJSON(t, ts.URL+"/debug/flight", &dbg)
	if dbg.Enabled {
		t.Fatal("debug/flight claims enabled")
	}
	// The flight metric surface is absent, not zero.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(mresp)
	if strings.Contains(body, "flight_") || strings.Contains(body, "plan_flip_total") {
		t.Error("disabled flight still exposes metrics")
	}
}

// TestFlightDisabledFoldZeroAlloc pins the disabled hot path: the per-request
// flight fold must cost nothing but the nil check when recording is off, so
// /optimize stays allocation-identical to a recorder-less build.
func TestFlightDisabledFoldZeroAlloc(t *testing.T) {
	s := newTestServer(t, Config{DisableFlight: true})
	req := OptimizeRequest{SQL: figure1SQL}
	allocs := testing.AllocsPerRun(100, func() {
		s.foldFlight("r1", "tmpl", req, nil, 0, nil, "", 200, time.Millisecond, false)
	})
	if allocs != 0 {
		t.Fatalf("disabled flight fold allocates: %v allocs/op", allocs)
	}
}

// TestIndexListsAllRoutes is the satellite audit: every mounted endpoint
// with a description appears on the root page, and nothing is mounted
// outside the shared routes table (so the index cannot go stale again).
func TestIndexListsAllRoutes(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	for _, r := range s.routes {
		if r.desc == "" {
			continue
		}
		_, path, _ := strings.Cut(r.pattern, " ")
		if !strings.Contains(body, path) || !strings.Contains(body, r.desc) {
			t.Errorf("index missing route %q (%s)", r.pattern, r.desc)
		}
	}
	for _, path := range []string{"/coverage", "/profile", "/incidents", "/debug/flight", "/events", "/metrics", "/readyz"} {
		if !strings.Contains(body, path) {
			t.Errorf("index missing %s", path)
		}
	}
}
