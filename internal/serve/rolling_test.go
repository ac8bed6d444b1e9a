package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"stars/internal/flight"
)

// TestEveryRollingViewCountsARequestOnce: under concurrent traffic that mixes
// answers, refusals and failures, /coverage, /profile, /debug/flight and the
// per-template ledger entries each count every request that reached the
// worker exactly once — and a body that fails to decode, which never reaches
// it, nowhere.
func TestEveryRollingViewCountsARequestOnce(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	from := make([]string, 31) // past the enumerator's 30 quantifiers: 422
	for i := range from {
		from[i] = fmt.Sprintf("EMP E%d", i)
	}
	mix := []struct {
		body   string
		want   int
		worker bool // the request reaches the worker
	}{
		{`{"sql":"` + figure1SQL + `"}`, http.StatusOK, true},
		{`{}`, http.StatusBadRequest, true},
		{`{"sql":"SELECT FROM WHERE"}`, http.StatusBadRequest, true},
		{`{"sql":"SELECT E0.NAME FROM ` + strings.Join(from, ", ") + `"}`, http.StatusUnprocessableEntity, true},
		{`{"sql":"SELECT EMP.NAME FROM EMP WHERE EMP.DNO = 42","execute":true,"analyze":true}`, http.StatusOK, true},
		{`{"sql":`, http.StatusBadRequest, false},
	}
	const clients, rounds = 4, 3
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, m := range mix {
					resp, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(m.body))
					if err != nil {
						t.Error(err)
						return
					}
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != m.want {
						t.Errorf("%s: status %d, want %d (%s)", m.body, resp.StatusCode, m.want, raw)
					}
				}
			}
		}()
	}
	wg.Wait()
	var reached int64
	for _, m := range mix {
		if m.worker {
			reached += clients * rounds
		}
	}

	cov := getCoverage(t, ts.URL)
	var perTemplate int64
	for _, tr := range cov.Templates {
		perTemplate += tr.Requests
	}
	var dbg struct {
		Stats flight.Stats `json:"stats"`
	}
	getJSON(t, ts.URL+"/debug/flight", &dbg)
	for _, v := range []struct {
		view string
		n    int64
	}{
		{"/coverage requests", cov.Requests},
		{"/profile requests", getProfile(t, ts.URL).Requests},
		{"/debug/flight stats.records", dbg.Stats.Records},
		{"the per-template requests' sum", perTemplate},
	} {
		if v.n != reached {
			t.Errorf("%s = %d, want the %d requests that reached the worker", v.view, v.n, reached)
		}
	}
}
