package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	rpprof "runtime/pprof"
	"strings"
	"testing"

	"stars/internal/obs"
	"stars/internal/prof"
)

func getProfile(t *testing.T, url string) *prof.Report {
	t.Helper()
	resp, err := http.Get(url + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /profile status = %d", resp.StatusCode)
	}
	var rep prof.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

// TestProfileMetricsPreRegistered: every opt_phase_* / opt_rank_* series is
// scrapeable at zero before the first request.
func TestProfileMetricsPreRegistered(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, name := range obs.ProfMetricNames() {
		if !strings.Contains(body, name+" 0") {
			t.Errorf("/metrics before traffic lacks %s at zero", name)
		}
	}
}

// TestProfileEndpoint: a served request populates the rolling aggregate —
// phases (including the front end's parse phase) with self-time, and the
// opt_phase_* counters move.
func TestProfileEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if rep := getProfile(t, ts.URL); rep.Requests != 0 || len(rep.Totals.Phases) != 0 {
		t.Fatalf("fresh profile not empty: %+v", rep)
	}

	const N = 3
	for i := 0; i < N; i++ {
		if status, _, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: figure1SQL}); status != http.StatusOK {
			t.Fatalf("optimize status = %d", status)
		}
	}

	rep := getProfile(t, ts.URL)
	if rep.Schema != prof.SchemaV1 {
		t.Errorf("schema = %q, want %s", rep.Schema, prof.SchemaV1)
	}
	if rep.Requests != N {
		t.Errorf("requests = %d, want %d", rep.Requests, N)
	}
	if rep.Totals.ElapsedNS <= 0 {
		t.Errorf("totals elapsed = %d, want > 0", rep.Totals.ElapsedNS)
	}
	phases := map[string]int64{}
	for _, ph := range rep.Totals.Phases {
		phases[ph.Phase] = ph.Count
	}
	for _, want := range []string{"parse", "prepare", "access", "join-2", "root", "finalize"} {
		if phases[want] != N {
			t.Errorf("phase %s count = %d, want %d (phases: %v)", want, phases[want], N, phases)
		}
	}
	if len(rep.Totals.Rules) == 0 || rep.Totals.Rules[0].SelfNS <= 0 {
		t.Errorf("rule attribution empty: %+v", rep.Totals.Rules)
	}

	// The per-request publishes reached the shared registry.
	counters := s.Registry().Counters()
	if got := counters[`opt_phase_spans_total{phase="parse"}`]; got != N {
		t.Errorf(`opt_phase_spans_total{phase="parse"} = %d, want %d`, got, N)
	}
	if got := counters[`opt_phase_spans_total{phase="join"}`]; got != N {
		t.Errorf(`opt_phase_spans_total{phase="join"} = %d, want %d`, got, N)
	}
	if got := counters[`opt_phase_self_ns_total{phase="join"}`]; got <= 0 {
		t.Errorf("join self-time counter = %d, want > 0", got)
	}
}

// TestRequestPprofLabels: while a request is held inside the worker, the
// goroutine dump shows the req= and template= labels rpprof.Do applied.
func TestRequestPprofLabels(t *testing.T) {
	s := newTestServer(t, Config{})
	hold := make(chan struct{})
	s.testHold = hold
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		status, _, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: figure1SQL})
		done <- status
	}()
	waitFor(t, func() bool { return s.Registry().Gauge("serve_inflight").Value() == 1 })

	// debug=1 renders each goroutine's label set ("labels: {...}").
	var buf bytes.Buffer
	if err := rpprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	if !strings.Contains(dump, `"req":"r1"`) {
		t.Errorf("goroutine dump lacks the req label:\n%s", dump)
	}
	if !strings.Contains(dump, `"template":`) || !strings.Contains(dump, "SELECT DEPT.DNO") {
		t.Errorf("goroutine dump lacks the template label:\n%s", dump)
	}

	close(hold)
	if got := <-done; got != http.StatusOK {
		t.Errorf("held request finished with %d", got)
	}
}
