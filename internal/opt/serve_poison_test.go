package opt_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"stars/internal/flight"
	"stars/internal/opt"
	"stars/internal/serve"
	"stars/internal/workload"
)

// TestServeNeverReadsReleasedPlans drives the daemon's handler with arena
// poisoning on (run under -race in tier-1): every request releases its plan
// arenas, concurrent requests and the next ones refill them, and a plan
// pointer that any part of the request path — rendering, execution, the
// ledger and flight folds, a watchdog-triggered incident capture — kept past
// Release would surface as a __POISONED__ operator in a response body or an
// incident bundle. Every request shape is covered, at Parallelism 2 so
// worker arenas are recycled too, and each filed incident must replay to the
// identical derivation. The second repertoire makes every served plan STORE
// its inners and probe dynamic indexes on them, so what is rendered, executed
// and captured after Release includes temp and index names and arena-backed
// PATHS; every verbose rendering includes interned Rels' arena-backed COLS.
func TestServeNeverReadsReleasedPlans(t *testing.T) {
	opt.SetArenaPoison(true)
	defer opt.SetArenaPoison(false)
	t.Run("builtin", func(t *testing.T) { serveUnderPoison(t, opt.Options{}, "") })
	t.Run("dynamic indexes", func(t *testing.T) {
		serveUnderPoison(t, opt.Options{Rules: opt.DynamicIndexRules()}, "BUILDINDEX path=_ix")
	})
}

const (
	poisonChain3 = "SELECT T1.ID, T3.ID FROM T1, T2, T3 WHERE T1.K = T2.J AND T2.K = T3.J"
	poisonChain5 = "SELECT T1.ID, T5.ID FROM T1, T2, T3, T4, T5 WHERE T1.K = T2.J AND T2.K = T3.J AND T3.K = T4.J AND T4.K = T5.J ORDER BY T1.ID"
)

// poisonRequests is every request shape the poisoned daemon is driven with:
// optimize-only, verbose in both formats, execute+analyze, and provenance.
var poisonRequests = []serve.OptimizeRequest{
	{SQL: poisonChain5},
	{SQL: poisonChain3, Verbose: true, Format: "both"},
	{SQL: poisonChain3, Execute: true, Analyze: true},
	{SQL: poisonChain5, Provenance: true},
}

// serveUnderPoison is TestServeNeverReadsReleasedPlans for one repertoire;
// every explain rendering must mention mustRender.
func serveUnderPoison(t *testing.T, opts opt.Options, mustRender string) {
	dir := t.TempDir()
	s, err := serve.New(serve.Config{
		Catalog:     workload.ChainCatalog(5, 40, 30, 20, 10, 25),
		Options:     opts,
		Parallelism: 2,
		// Any execute+analyze request is a Q-error incident (Q-error is
		// never below 1); nothing is a latency outlier.
		Flight: flight.Config{MinSamples: 1, LatencyFactor: 1e9, LatencyFloor: time.Hour,
			QErrorThreshold: 1, IncidentDir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	requests := poisonRequests

	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				req := requests[(c+i)%len(requests)]
				body, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return
				}
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Errorf("%+v: status %d: %s", req, rec.Code, rec.Body)
					return
				}
				if strings.Contains(rec.Body.String(), "__POISONED__") {
					t.Errorf("%+v: response renders a released plan:\n%s", req, rec.Body)
					return
				}
				var resp serve.OptimizeResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || !strings.Contains(resp.Plan.Explain, mustRender) {
					t.Errorf("%+v: explain (decode error %v) lacks %q:\n%s", req, err, mustRender, resp.Plan.Explain)
					return
				}
				if req.Verbose && !strings.Contains(resp.Plan.Explain, "COLS   T1.ID") {
					t.Errorf("%+v: verbose explain renders no interned COLS:\n%s", req, resp.Plan.Explain)
					return
				}
				if req.Verbose && mustRender != "" && !strings.Contains(resp.Plan.Explain, "*(T") {
					t.Errorf("%+v: verbose explain lists no dynamic path in any PATHS:\n%s", req, resp.Plan.Explain)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	bundles, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(bundles) == 0 {
		t.Fatalf("no incident bundle filed (err %v)", err)
	}
	for _, path := range bundles {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(raw, []byte("__POISONED__")) {
			t.Fatalf("%s captures a released plan", filepath.Base(path))
		}
		inc, err := flight.ReadIncident(path)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := flight.Replay(inc)
		if err != nil {
			t.Fatalf("%s: replay: %v", inc.ID, err)
		}
		if !rr.FingerprintMatch() || !rr.Identical {
			t.Fatalf("%s: replay diverged: fp=%s captured=%s identical=%v", inc.ID, rr.Fingerprint, rr.CapturedFP, rr.Identical)
		}
	}
}

// FuzzOptimizeHandler feeds arbitrary bodies to POST /optimize with arena
// poisoning on. Whatever the body, the handler must not panic, must answer
// with one of the statuses the daemon documents and a JSON body of its
// schema, must render no released plan, and must write a success reply byte
// for byte as encoding/json writes the response it decodes to.
func FuzzOptimizeHandler(f *testing.F) {
	opt.SetArenaPoison(true)
	defer opt.SetArenaPoison(false)
	s, err := serve.New(serve.Config{
		Catalog:     workload.ChainCatalog(5, 40, 30, 20, 10, 25),
		Parallelism: 2,
		Timeout:     5 * time.Second,
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, req := range poisonRequests {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"sql": "SELECT T1.ID FROM T1`))
	f.Add([]byte(`{"sql": ""}`))
	f.Add([]byte(`{"sql": "` + poisonChain3 + `", "format": "xml"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity,
			http.StatusInternalServerError, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var reply struct {
			Schema string `json:"schema"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply.Schema != serve.SchemaV1 {
			t.Fatalf("status %d: body is not a %s reply (%v): %s", rec.Code, serve.SchemaV1, err, rec.Body)
		}
		if strings.Contains(rec.Body.String(), "__POISONED__") {
			t.Fatalf("status %d: reply renders a released plan:\n%s", rec.Code, rec.Body)
		}
		// The written reply is what encoding/json writes for the response it
		// decodes to.
		if rec.Code == http.StatusOK {
			var resp serve.OptimizeResponse
			var again bytes.Buffer
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if err := json.NewEncoder(&again).Encode(resp); err != nil || !bytes.Equal(again.Bytes(), rec.Body.Bytes()) {
				t.Fatalf("reply differs from encoding/json's (%v):\n got %s\nwant %s", err, rec.Body, again.Bytes())
			}
		}
	})
}
