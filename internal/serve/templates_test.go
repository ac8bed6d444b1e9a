package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stars/internal/coverage"
	"stars/internal/flight"
	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/prof"
	"stars/internal/workload"
)

// foldInputs optimizes Figure 1 the way a default request does and returns
// the result, its fingerprint, its event stream, with one exec.feedback
// event appended as an execute+analyze request would carry, and its profile.
func foldInputs(t testing.TB) (*opt.Result, string, []obs.Event, *prof.Profile) {
	t.Helper()
	sink := obs.NewMetricsSink()
	sink.EnableProf(obs.ProfOptions{})
	res, err := opt.New(workload.EmpDept(), opt.Options{Obs: sink}).Optimize(workload.Figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(res.Release)
	events := append(sink.Events(), obs.Event{Name: obs.EvExecFeedback, A1: "JOIN", P1: 0xffff, N1: 10, N2: 1, F1: 5, F2: 2})
	return res, res.Best.Fingerprint(), events, prof.FromSink(sink)
}

// served is what fold reads of a finished, executed request for tmpl,
// answered with res (nil for a failed one).
func served(tmpl string, res *opt.Result, fp string) request {
	return request{id: "r", tmpl: tmpl, req: OptimizeRequest{SQL: tmpl}, status: http.StatusOK, res: res, planFP: fp, executed: true}
}

// templateNames returns bound+k distinct template strings.
func templateNames(k int) []string {
	out := make([]string, maxTemplates+k)
	for i := range out {
		out[i] = fmt.Sprintf("SELECT E%d.NAME FROM EMP E%d WHERE E%d.SAL > ?", i, i, i)
	}
	return out
}

// TestTemplateTableEvictsLRU: past the bound, the least recently used
// template is evicted — not the oldest — its record reset for the newcomer,
// and the process-wide digest keeps every observation.
func TestTemplateTableEvictsLRU(t *testing.T) {
	s := newTestServer(t, Config{})
	feedback := []obs.Event{{Name: obs.EvExecFeedback, A1: "JOIN", P1: 0xffff, N1: 1, N2: 1, F1: 1, F2: 5}}
	fold := func(tmpl string) {
		r := served(tmpl, nil, "")
		s.fold(&r, feedback, nil, time.Millisecond, 0)
	}
	names := templateNames(1)
	for _, n := range names[:maxTemplates] {
		fold(n)
	}
	fold(names[0]) // names[1] is now the least recently used
	fold(names[maxTemplates])

	rec := httptest.NewRecorder()
	s.handleCoverage(rec, nil)
	var rep coverage.LedgerReport
	if err := json.NewDecoder(rec.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tr := range rep.Templates {
		got = append(got, tr.Template)
	}
	want := slices.Concat(names[:1], names[2:])
	if !slices.Equal(got, want) {
		t.Fatalf("templates after one eviction (admission order) = %d, want %d without %q", len(got), len(want), names[1])
	}
	if n := s.reg.Counter("templates_evicted_total").Value(); n != 1 {
		t.Errorf("templates_evicted_total = %d, want 1", n)
	}
	if tr := rep.Templates[0]; tr.Requests != 2 {
		t.Errorf("the touched template lost its entry: %+v", tr)
	}
	if tr := rep.Templates[len(rep.Templates)-1]; tr.Requests != 1 || tr.Executions != 1 ||
		tr.QError == nil || tr.QError.Count != 1 || len(tr.Ops) != 1 {
		t.Errorf("the reused record was not reset: %+v", tr)
	}
	if rep.Requests != maxTemplates+2 || rep.QError == nil || rep.QError.Count != maxTemplates+2 {
		t.Errorf("the aggregate lost an evicted template's observations: requests %d, qerror %+v", rep.Requests, rep.QError)
	}
}

// TestTemplateEvictionThroughDaemon drives bound+k templates through
// /optimize: /coverage and /debug/flight list the same templates in the same
// order, k were evicted, a re-admitted template starts afresh — so an
// eviction cannot read as a plan flip — and a template seen only in failed
// requests is counted by the ledger but never judged.
func TestTemplateEvictionThroughDaemon(t *testing.T) {
	const k = 3
	cat := workload.EmpDept()
	cfg := Config{Catalog: cat, Demo: true}
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(sql string, want int) {
		t.Helper()
		if status, _, bad := postOptimize(t, ts.URL, OptimizeRequest{SQL: sql}); status != want {
			t.Fatalf("%s: status %d, want %d (%s)", sql, status, want, bad.Error)
		}
	}
	lists := func() (ledger, watched []string) {
		t.Helper()
		for _, tr := range getCoverage(t, ts.URL).Templates {
			ledger = append(ledger, tr.Template)
		}
		var dbg struct {
			Templates []flight.TemplateState `json:"templates"`
		}
		getJSON(t, ts.URL+"/debug/flight", &dbg)
		for _, st := range dbg.Templates {
			watched = append(watched, st.Template)
		}
		return ledger, watched
	}

	// Figure 1 first, so it is the first evicted; then bound+k-1 others.
	post(figure1SQL, http.StatusOK)
	sqls := make([]string, maxTemplates+k-1)
	for i := range sqls {
		sqls[i] = fmt.Sprintf("SELECT E%d.NAME FROM EMP E%d WHERE E%d.SAL > 10", i, i, i)
		post(sqls[i], http.StatusOK)
	}
	ledger, watched := lists()
	if len(ledger) != maxTemplates || !slices.Equal(ledger, watched) {
		t.Fatalf("/coverage lists %d templates, /debug/flight %d; want the same %d in the same order",
			len(ledger), len(watched), maxTemplates)
	}
	if ledger[0] != coverage.Template(sqls[k-1]) {
		t.Errorf("first survivor = %q, want %q", ledger[0], coverage.Template(sqls[k-1]))
	}
	if n := s.reg.Counter("templates_evicted_total").Value(); n != k {
		t.Errorf("templates_evicted_total = %d, want %d", n, k)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if !slices.Contains(strings.Split(body, "\n"), fmt.Sprintf("flight_templates %d", maxTemplates)) {
		t.Errorf("/metrics lacks flight_templates %d", maxTemplates)
	}

	// Shift the stats so Figure 1 plans differently: with its history
	// kept this would be a plan flip; evicted, it is a first sight.
	cat.Table("EMP").Card = 50
	post(figure1SQL, http.StatusOK)
	rep := getCoverage(t, ts.URL)
	if tr := rep.Templates[len(rep.Templates)-1]; tr.Template != coverage.Template(figure1SQL) || tr.Requests != 1 {
		t.Errorf("re-admitted template: %+v, want %q at 1 request", tr, coverage.Template(figure1SQL))
	}
	if n := s.reg.Counter("plan_flip_total").Value(); n != 0 {
		t.Errorf("an eviction produced %d plan flip(s)", n)
	}
	var dbg struct {
		Templates []flight.TemplateState `json:"templates"`
	}
	getJSON(t, ts.URL+"/debug/flight", &dbg)
	if st := dbg.Templates[len(dbg.Templates)-1]; st.Template != coverage.Template(figure1SQL) || st.Requests != 1 {
		t.Errorf("re-admitted history: %+v, want %q at 1 sample", st, coverage.Template(figure1SQL))
	}
	if incs := s.flight.Incidents(); len(incs) != 0 {
		t.Errorf("incidents after re-admission: %+v", incs)
	}

	// A failed-only template: the ledger counts it, the watchdog never
	// judges it.
	const bad = "SELECT NOPE.X FROM NOWHERE NOPE"
	post(bad, http.StatusBadRequest)
	post(bad, http.StatusBadRequest)
	ledger, watched = lists()
	if got := getCoverage(t, ts.URL).Templates[len(ledger)-1]; got.Template != coverage.Template(bad) || got.Requests != 2 {
		t.Errorf("failed-only template in the ledger: %+v", got)
	}
	if slices.Contains(watched, coverage.Template(bad)) {
		t.Error("a failed-only template was judged")
	}
	if n := s.reg.Counter("templates_evicted_total").Value(); n != k+2 {
		t.Errorf("templates_evicted_total = %d, want %d", n, k+2)
	}
}

// TestTemplateFoldEvictAllocs: once warm, a fold that evicts one template to
// admit another allocates nothing of its own. Cycling bound+1 templates
// through the LRU table makes every fold an eviction.
func TestTemplateFoldEvictAllocs(t *testing.T) {
	s := newTestServer(t, Config{})
	res, fp, events, pr := foldInputs(t)
	names := templateNames(1)
	i := 0
	fold := func(res *opt.Result, fp string) func() {
		return func() {
			tmpl := names[i%len(names)]
			i++
			r := served(tmpl, res, fp)
			s.fold(&r, events, pr, time.Millisecond, 0)
		}
	}
	warm := fold(res, fp)
	for range 2 * len(names) {
		warm()
	}
	if n := testing.AllocsPerRun(100, fold(nil, "")); n != 0 {
		t.Errorf("an evicting fold without a plan allocates %.0f times, want 0", n)
	}
	// With a plan the record carries its shape fingerprint, which costs
	// what it costs on any fold; an evicted template has no previous
	// record to copy.
	shape := testing.AllocsPerRun(100, func() { _ = res.Best.ShapeFingerprint() })
	if n := testing.AllocsPerRun(100, fold(res, fp)); n > shape {
		t.Errorf("an evicting fold with a plan allocates %.0f times, want <= %.0f (the shape fingerprint's)", n, shape)
	}
	if n := s.reg.Counter("templates_evicted_total").Value(); n < 200 {
		t.Errorf("templates_evicted_total = %d: the folds did not evict", n)
	}
}

// BenchmarkTemplateFold times one request's ledger and flight fold on a warm
// table: "hit" folds a tracked template, "evict" cycles bound+1 templates so
// that every fold evicts one, and "parallel" folds from RunParallel's
// goroutines, each cycling its own tracked templates, into one table — the
// leg that shows whether the fold's one lock is contended.
func BenchmarkTemplateFold(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"hit", 1}, {"evict", maxTemplates + 1}} {
		b.Run(c.name, func(b *testing.B) {
			s, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			res, fp, events, pr := foldInputs(b)
			names := templateNames(1)[:c.n]
			for _, n := range names {
				r := served(n, res, fp)
				s.fold(&r, events, pr, time.Millisecond, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := names[i%len(names)]
				r := served(n, res, fp)
				s.fold(&r, events, pr, time.Millisecond, 0)
			}
		})
	}
	b.Run("parallel", func(b *testing.B) {
		s, err := New(Config{})
		if err != nil {
			b.Fatal(err)
		}
		res, fp, events, pr := foldInputs(b)
		const per = 4 // templates per goroutine
		names := templateNames(per * runtime.GOMAXPROCS(0))[:per*runtime.GOMAXPROCS(0)]
		for _, n := range names {
			r := served(n, res, fp)
			s.fold(&r, events, pr, time.Millisecond, 0)
		}
		var next atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			own := names[per*(next.Add(1)-1):][:per]
			for i := 0; pb.Next(); i++ {
				n := own[i%per]
				r := served(n, res, fp)
				s.fold(&r, events, pr, time.Millisecond, 0)
			}
		})
	})
}

// TestTemplateTableConcurrent folds from several goroutines, past the bound,
// while the table is rendered; run with -race for the memory-model half.
func TestTemplateTableConcurrent(t *testing.T) {
	s := newTestServer(t, Config{})
	res, fp, events, pr := foldInputs(t)
	names := templateNames(maxTemplates)
	const workers = 4
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := w; i < len(names); i += workers {
				r := served(names[i], res, fp)
				s.fold(&r, events, pr, time.Millisecond, 0)
			}
		}(w)
	}
	for running := workers; running > 0; {
		select {
		case <-done:
			running--
		default:
			s.handleCoverage(httptest.NewRecorder(), nil)
			s.handleMetrics(httptest.NewRecorder(), nil)
			s.flightTemplates()
		}
	}
	if n := len(s.flightTemplates()); n != maxTemplates {
		t.Errorf("%d templates judged, want the bound %d", n, maxTemplates)
	}
	if n := s.reg.Counter("templates_evicted_total").Value(); n != maxTemplates {
		t.Errorf("templates_evicted_total = %d, want %d", n, maxTemplates)
	}
}
