package stars_test

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"stars"
)

func TestFacadeEndToEnd(t *testing.T) {
	cat := stars.EmpDeptCatalog()
	g, err := stars.ParseSQL(
		"SELECT DEPT.DNO, EMP.NAME FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO AND DEPT.MGR = 'Haas'", cat)
	if err != nil {
		t.Fatal(err)
	}
	cluster := stars.NewCluster()
	stars.PopulateEmpDept(cluster, cat, 1)
	res, er, err := stars.Run(cat, cluster, g, stars.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if er.Stats.RowsOut == 0 {
		t.Fatal("no rows")
	}
	out := stars.Explain(res.Best)
	if !strings.Contains(out, "JOIN") {
		t.Fatalf("explain:\n%s", out)
	}
	if !strings.Contains(stars.Functional(res.Best), "JOIN(") {
		t.Error("functional notation")
	}
	if !strings.Contains(stars.ExplainVerbose(res.Best), "TABLES") {
		t.Error("verbose explain")
	}
	rows := stars.Project(er, g.SelectCols(cat))
	if len(rows) != int(er.Stats.RowsOut) || len(rows[0]) != 2 {
		t.Fatalf("Project shape: %d rows × %d cols", len(rows), len(rows[0]))
	}
}

func TestFacadeRules(t *testing.T) {
	rs := stars.DefaultRules()
	text := stars.FormatRules(rs)
	rs2, err := stars.ParseRules(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs2.Names()) != len(rs.Names()) {
		t.Error("round trip")
	}
}

func TestFacadeCatalogFile(t *testing.T) {
	cat := stars.EmpDeptCatalog()
	path := filepath.Join(t.TempDir(), "cat.json")
	if err := cat.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := stars.LoadCatalog(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Table("EMP") == nil || loaded.Table("EMP").Card != 10000 {
		t.Fatal("catalog round trip")
	}
	if _, err := stars.LoadCatalog(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := stars.LoadCatalog(bad); err == nil {
		t.Fatal("bad json")
	}
}

func TestFacadeTrace(t *testing.T) {
	cat := stars.EmpDeptCatalog()
	g, err := stars.ParseSQL("SELECT MGR FROM DEPT", cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stars.Optimize(cat, g, stars.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stars.FormatTrace(res), "AccessRoot") {
		t.Error("trace must show the access STAR")
	}
}

// TestDefaultRuleTextIsTheRepertoire pins the paper's STAR names into the
// shipped rule file so refactors cannot silently drop a strategy.
func TestDefaultRuleTextIsTheRepertoire(t *testing.T) {
	for _, want := range []string{
		"JoinRoot", "PermutedJoin", "RemoteJoin", "SitedJoin", "JMeth",
		"AccessRoot", "TableAccess", "IndexAccess",
		"'NL'", "'MG'", "'HA'",
		"sortablePreds", "hashablePreds", "indexablePreds", "innerPreds",
		"projectionPays", "indexCols",
		"IXAND", "tidcol", "OrderedStream", "pathPrefix",
	} {
		if !strings.Contains(stars.DefaultRuleText, want) {
			t.Errorf("rule file lost %q", want)
		}
	}
}

// TestConcurrentOptimizeIsolation runs many optimizations in parallel —
// some observed through per-request sinks, some through the process-wide
// default fallback — and asserts (a) every result is correct, (b) every
// request sink holds exactly the event sequence its query produces alone
// (traces never interleave), and (c) both per-request and fallback metrics
// registries accumulated work. Run under -race this also proves the
// optimizer's shared inputs (catalog, rule set) tolerate concurrent reads.
func TestConcurrentOptimizeIsolation(t *testing.T) {
	cat := stars.EmpDeptCatalog()
	queries := []string{
		"SELECT DEPT.DNO, EMP.NAME FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO AND DEPT.MGR = 'Haas'",
		"SELECT EMP.NAME, EMP.SAL FROM EMP WHERE EMP.DNO = 42",
		"SELECT DEPT.MGR, DEPT.BUDGET FROM DEPT WHERE DEPT.DNO = 7",
		"SELECT EMP.NAME, DEPT.BUDGET FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO",
		"SELECT EMP.ENO, EMP.ADDRESS FROM EMP WHERE EMP.SAL = 1000",
	}

	shared := stars.NewMetricsSink()
	stars.SetDefaultSink(shared)
	defer stars.SetDefaultSink(nil)

	const n = 24
	var wg sync.WaitGroup
	sinks := make([]*stars.Sink, n)
	results := make([]*stars.Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := stars.ParseSQL(queries[i%len(queries)], cat)
			if err != nil {
				errs[i] = err
				return
			}
			if i%3 == 0 {
				// Options.Obs nil: exercises the atomic default-sink path.
				results[i], errs[i] = stars.Optimize(cat, g, stars.Options{})
				return
			}
			sink := stars.NewRequestSink(fmt.Sprintf("q%d", i))
			sinks[i] = sink
			results[i], errs[i] = stars.Optimize(cat, g, stars.Options{Obs: sink})
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] == nil || results[i].Best == nil {
			t.Fatalf("goroutine %d: no plan", i)
		}
	}
	// solo renders the event sequence a query produces when run alone.
	solo := func(sql string) string {
		g, err := stars.ParseSQL(sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		sink := stars.NewSink()
		if _, err := stars.Optimize(cat, g, stars.Options{Obs: sink}); err != nil {
			t.Fatal(err)
		}
		return eventNames(sink)
	}
	for i, sink := range sinks {
		if sink == nil {
			continue
		}
		id := fmt.Sprintf("q%d", i)
		evs := sink.Events()
		if len(evs) == 0 {
			t.Fatalf("%s: sink recorded no events", id)
		}
		if sink.Tag() != id {
			t.Fatalf("%s: sink tagged %q", id, sink.Tag())
		}
		if got, want := eventNames(sink), solo(queries[i%len(queries)]); got != want {
			t.Fatalf("%s: trace mixing — %d events differ from the query's solo trace", id, len(evs))
		}
		if sink.Registry().Counter("star_rule_refs_total").Value() == 0 {
			t.Errorf("%s: per-request registry empty", id)
		}
	}
	if shared.Registry().Counter("star_rule_refs_total").Value() == 0 {
		t.Error("default fallback sink accumulated no metrics")
	}
}

// eventNames renders a trace's deterministic skeleton: sequence number, name
// and first argument of every event.
func eventNames(sink *stars.Sink) string {
	var b strings.Builder
	for _, e := range sink.Events() {
		fmt.Fprintf(&b, "%d %s %s\n", e.Seq, e.Name, e.A1)
	}
	return b.String()
}

func TestFacadeIncidentReplay(t *testing.T) {
	dir := t.TempDir()
	srv, err := stars.NewServer(stars.ServerConfig{
		Flight: stars.FlightConfig{
			MinSamples:      1,
			LatencyFactor:   1e9, // isolate the Q-error trigger
			QErrorThreshold: 1,
			IncidentDir:     dir,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"sql":"SELECT EMP.NAME FROM EMP WHERE EMP.DNO = 42","execute":true,"analyze":true}`
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/optimize", strings.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("optimize: status %d: %s", rec.Code, rec.Body.String())
	}
	paths, err := filepath.Glob(filepath.Join(dir, "inc-*.json"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("incident bundles on disk: %v (err %v)", paths, err)
	}
	inc, err := stars.ReadIncident(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if inc.Kind != "qerror" || inc.Capture.SQL == "" {
		t.Fatalf("incident %s kind %q, capture sql %q", inc.ID, inc.Kind, inc.Capture.SQL)
	}
	rr, err := stars.ReplayIncident(inc)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Identical {
		t.Fatalf("facade replay diverged: captured %s replayed %s", rr.CapturedFP, rr.Fingerprint)
	}
}
