package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stars/internal/coverage"
	"stars/internal/glue"
)

// getCoverage fetches and decodes GET /coverage.
func getCoverage(t *testing.T, url string) *coverage.LedgerReport {
	t.Helper()
	resp, err := http.Get(url + "/coverage")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /coverage: %d", resp.StatusCode)
	}
	var rep coverage.LedgerReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

// TestCoverageEndpoint drives the acceptance path: a fresh daemon exposes
// the whole (unexercised) alternative space, and an execute+analyze request
// populates the per-template Q-error ledger.
func TestCoverageEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Before any traffic: full universe, nothing exercised, no templates.
	rep := getCoverage(t, ts.URL)
	if rep.Schema != coverage.SchemaV1 {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.Requests != 0 || len(rep.Templates) != 0 {
		t.Fatalf("fresh ledger not empty: %+v", rep)
	}
	if rep.Coverage == nil || rep.Coverage.Summary.Alternatives == 0 {
		t.Fatal("fresh ledger hides the alternative universe")
	}
	if rep.Coverage.Summary.Exercised != 0 {
		t.Fatalf("exercised before any request: %+v", rep.Coverage.Summary)
	}

	// One optimize-only and two execute+analyze requests (same template).
	for i, req := range []OptimizeRequest{
		{SQL: figure1SQL},
		{SQL: figure1SQL, Execute: true, Analyze: true},
		{SQL: strings.ReplaceAll(figure1SQL, "'Haas'", "'Nobody'"), Execute: true, Analyze: true},
	} {
		if status, _, bad := postOptimize(t, ts.URL, req); status != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, status, bad.Error)
		}
	}

	rep = getCoverage(t, ts.URL)
	if rep.Requests != 3 {
		t.Errorf("requests = %d", rep.Requests)
	}
	if got := rep.Coverage.Runs; got != 3 {
		t.Errorf("coverage runs = %d", got)
	}
	if rep.Coverage.Summary.Exercised == 0 || rep.Coverage.Summary.Winning == 0 {
		t.Errorf("requests exercised nothing: %+v", rep.Coverage.Summary)
	}
	// The two literal variants collapse into one template.
	if len(rep.Templates) != 1 {
		t.Fatalf("templates = %d, want 1 (literals must collapse): %+v", len(rep.Templates), rep.Templates)
	}
	tr := rep.Templates[0]
	if tr.Requests != 3 || tr.Executions != 2 {
		t.Errorf("template: %+v", tr)
	}
	if tr.QError == nil || tr.QError.Count == 0 {
		t.Fatalf("no per-template Q-error digest: %+v", tr)
	}
	if tr.QError.P50 < 1 || tr.QError.P99 < tr.QError.P50 || tr.QError.Max < tr.QError.P99 {
		t.Errorf("quantiles disordered: %+v", tr.QError)
	}
	if len(tr.Ops) == 0 {
		t.Error("no per-operator feedback")
	}
	if rep.QError == nil || rep.QError.Count != tr.QError.Count {
		t.Errorf("aggregate digest disagrees: %+v vs %+v", rep.QError, tr.QError)
	}
}

// TestCoverageMetricsSurface: the coverage/Q-error series are pre-registered
// at zero on a fresh daemon and move with traffic.
func TestCoverageMetricsSurface(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	metrics := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	fresh := metrics()
	for _, want := range []string{
		"coverage_runs_total 0",
		`coverage_alt_fired_total{rule="JMeth",alt="1"} 0`,
		`coverage_alt_retained_total{rule="TableAccess",alt="2"} 0`,
		`coverage_alt_winner_total{rule="AccessRoot",alt="1"} 0`,
		`coverage_veneer_injected_total{op="SHIP"} 0`,
		"qerror_observations_total 0",
		"coverage_ratio 0",
		"qerror_p99 0",
		"coverage_alternatives ",
	} {
		if !strings.Contains(fresh, want) {
			t.Errorf("fresh /metrics missing %q", want)
		}
	}
	for _, op := range glue.VeneerOps {
		if want := `coverage_veneer_injected_total{op="` + string(op) + `"} 0`; !strings.Contains(fresh, want) {
			t.Errorf("fresh /metrics missing %q", want)
		}
	}

	if status, _, bad := postOptimize(t, ts.URL, OptimizeRequest{SQL: figure1SQL, Execute: true, Analyze: true}); status != http.StatusOK {
		t.Fatalf("optimize: %d (%s)", status, bad.Error)
	}
	after := metrics()
	if strings.Contains(after, "coverage_runs_total 0") {
		t.Error("coverage_runs_total did not move")
	}
	if strings.Contains(after, "qerror_observations_total 0") {
		t.Error("qerror_observations_total did not move")
	}
	if strings.Contains(after, "coverage_ratio 0\n") {
		t.Error("coverage_ratio still zero after an exercised request")
	}
}
