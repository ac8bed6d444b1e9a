package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"stars/internal/cost"
	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/plan"
	"stars/internal/provenance"
	"stars/internal/query"
	"stars/internal/workload"
)

// graphSQL renders a query graph in the dialect sqlparse reads.
func graphSQL(g *query.Graph) string {
	var sel, from, where []string
	for _, c := range g.Select {
		sel = append(sel, c.String())
	}
	for _, q := range g.Quants {
		from = append(from, q.Table+" "+q.Name)
	}
	for _, p := range g.Preds.Slice() {
		where = append(where, p.String())
	}
	sql := "SELECT " + strings.Join(sel, ", ") + " FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	return sql
}

// oracleReply is encoding/json's reply for the same response: resp with its
// plan texts from the string renderers, Metrics from counters.Counters() and
// Provenance from dag's indented WriteJSON, through json.NewEncoder — how the
// daemon once wrote it.
func oracleReply(t testing.TB, resp OptimizeResponse, counters *obs.Registry, dag *provenance.DAG) []byte {
	p := &resp.Plan
	if p.tree && p.verbose {
		p.Explain = plan.ExplainVerbose(p.best)
	} else if p.tree {
		p.Explain = plan.Explain(p.best)
	}
	if p.functional {
		p.Functional = plan.Functional(p.best)
	}
	if ex := resp.Execution; ex != nil && ex.actuals != nil {
		withText := *ex
		withText.Analyze = plan.ExplainAnalyze(p.best, ex.actuals)
		resp.Execution = &withText
	}
	resp.Metrics = counters.Counters()
	if dag != nil {
		var p bytes.Buffer
		if err := dag.WriteJSON(&p); err != nil {
			t.Errorf("provenance: %v", err)
		}
		resp.Provenance = p.Bytes()
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Errorf("encoding/json: %v", err)
	}
	return buf.Bytes()
}

// checkReplies makes s compare every success reply it writes with
// oracleReply's, and returns the count of replies compared. newTestServer
// installs it, so every reply a test of this package gets is checked.
func checkReplies(t testing.TB, s *Server) *atomic.Int64 {
	n := new(atomic.Int64)
	s.testReply = func(resp OptimizeResponse, counters *obs.Registry, dag *provenance.DAG, body []byte) {
		n.Add(1)
		if want := oracleReply(t, resp, counters, dag); !bytes.Equal(body, want) {
			t.Errorf("reply differs from encoding/json's:\n got %s\nwant %s", body, want)
		}
	}
	return n
}

// TestReplyMatchesEncodingJSON serves every corpus query in every request
// shape the benchmark sends and compares each reply with encoding/json's.
// Execution runs on the EMP/DEPT entries only, as the benchmark's do: the
// synthetic star and chain tables are too large to run in a unit test.
func TestReplyMatchesEncodingJSON(t *testing.T) {
	shapes := []OptimizeRequest{
		{}, {Format: "functional"}, {Format: "both"}, {Verbose: true, Format: "both"},
		{Provenance: true}, {Provenance: true, Verbose: true},
	}
	executed := []OptimizeRequest{{Execute: true, Limit: 2}, {Analyze: true, Format: "both", Limit: -1}}
	for _, e := range workload.Corpus() {
		cfg, reqs := Config{Catalog: e.Cat}, shapes
		if strings.HasPrefix(e.Name, "figure1") {
			reqs = append(slices.Clone(shapes), executed...)
		}
		if e.Name == "figure1" {
			cfg = Config{} // the demo data the benchmark's analyze requests read
		}
		s := newTestServer(t, cfg)
		n := checkReplies(t, s)
		sql := graphSQL(e.Query)
		for _, req := range reqs {
			req.SQL = sql
			captureReply(t, s, req) // fails unless the reply is a 200
		}
		if n.Load() != int64(len(reqs)) {
			t.Errorf("%s: %d replies compared, want %d", e.Name, n.Load(), len(reqs))
		}
	}
}

// TestReplyWriterEscapes writes hand-made replies whose strings, plan texts
// and floats sit on encoding/json's edges — HTML characters, line
// separators, invalid UTF-8, quoted metric names, the float format cutoffs,
// nil against empty slices — and compares them with encoding/json's.
func TestReplyWriterEscapes(t *testing.T) {
	odd := "a<b>&c\u2028d\u2029e\xff\xfe\"q\"\\\n\x01é"
	oddPlan := &plan.Node{Op: plan.Op(odd), Table: odd, Origin: odd, Inputs: []*plan.Node{{Op: plan.OpSort, Site: odd}}}
	ran := func(*plan.Node) (plan.Actual, bool) { return plan.Actual{Rows: 3, Loops: 1, Cost: 2.5}, true }
	reg := obs.NewRegistry()
	reg.Counter(`coverage_veneer_injected_total{op="ACCESS"}`).Add(3)
	reg.Counter("zero_but_named")
	reg.Counter(odd).Add(-7)
	stale := obs.NewRegistry()
	stale.Counter("reset_and_unnamed").Add(1)
	stale.Reset()
	dag := &provenance.DAG{BestFP: odd, Plans: map[string]*provenance.Plan{
		"b": {FP: "b", Desc: odd, Cost: 1e21, Card: 1e-7, Inputs: []string{"a", odd}, Best: true, Evicted: true, PrunedBy: "a", PrunedByCost: 123456789.5},
		"a": {FP: "a", Desc: "SCAN", Origin: "Glue", Tables: "{A}", Cost: 0, Retained: true, Veneer: true, BoundedBy: "b", BoundedByCost: -2.5e-9},
	}, Rejections: []provenance.Rejection{{Rule: odd, Alt: 2, Cond: "x < 1", Depth: 3}, {Rule: "R", Alt: 1}}}
	for i, c := range []struct {
		resp     OptimizeResponse
		counters *obs.Registry
		dag      *provenance.DAG
	}{
		{OptimizeResponse{Schema: SchemaV1, RequestID: "r1", SQL: odd, Plan: PlanJSON{best: oddPlan, tree: true, functional: true, Fingerprint: odd,
			EstimatedRows: 1e-7, Cost: CostJSON{Total: 1e21, IO: 123456789.5, CPU: 0, Msg: math.Copysign(0, -1), Bytes: 999999999999999999999}},
			Stats: StatsJSON{RuleRefs: -1, PruneRate: 1.0 / 3, Events: math.MaxInt64}}, reg, dag},
		{OptimizeResponse{Plan: PlanJSON{best: oddPlan, functional: true}, Execution: &ExecutionJSON{Rows: [][]string{}, Truncated: true, ActualCost: 1e-6, actuals: ran}}, stale, nil},
		{OptimizeResponse{Plan: PlanJSON{best: oddPlan, tree: true, verbose: true}}, nil, nil},
		{OptimizeResponse{Execution: &ExecutionJSON{Columns: []string{odd}, Rows: [][]string{{odd, ""}, nil, {}}, ActualCost: 5e-324}}, nil, nil},
	} {
		var rb replyBuf
		err := rb.write(&c.resp, c.counters, c.dag)
		if want := oracleReply(t, c.resp, c.counters, c.dag); err != nil || !bytes.Equal(rb.body, want) {
			t.Errorf("case %d (%v):\n got %s\nwant %s", i, err, rb.body, want)
		}
	}
}

// TestUnencodableReplyIs500 injects a NaN cost into both ways a body is
// written — the /optimize reply writer (a NaN cost weight makes every plan
// cost NaN) and the reflective writer of the other endpoints — and expects
// a 500 with the uniform error body, never a 200 with a broken one.
func TestUnencodableReplyIs500(t *testing.T) {
	w := cost.DefaultWeights
	w.Msg = math.NaN()
	s := newTestServer(t, Config{Options: opt.Options{Weights: w}})
	rec := httptest.NewRecorder()
	body, _ := json.Marshal(OptimizeRequest{SQL: figure1SQL})
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body)))
	cold := httptest.NewRecorder()
	s.writeJSON(cold, http.StatusOK, CostJSON{Total: math.NaN()})
	for name, rec := range map[string]*httptest.ResponseRecorder{"reply": rec, "writeJSON": cold} {
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusInternalServerError || err != nil ||
			e.Schema != SchemaV1 || !strings.Contains(e.Error, "unsupported value: NaN") {
			t.Errorf("%s: status %d, body %s", name, rec.Code, rec.Body)
		}
	}
	if n := s.reg.Counter(`serve_requests_total{status="500"}`).Value(); n != 1 {
		t.Errorf(`serve_requests_total{status="500"} = %d, want 1`, n)
	}
}

// TestReplyWriteAllocatesNothing pins a warm reply write for a Figure 1
// request in each plan format, the plan render and the registry's counter
// listing included, at zero allocations.
func TestReplyWriteAllocatesNothing(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, req := range []OptimizeRequest{{}, {Format: "functional"}, {Verbose: true}} {
		req.SQL = figure1SQL
		r := captureReply(t, s, req)
		var rb replyBuf
		if err := rb.write(&r.resp, r.counters, nil); err != nil || !bytes.Equal(rb.body, r.body) {
			t.Fatalf("%+v: rewrite differs (%v):\n got %s\nwant %s", req, err, rb.body, r.body)
		}
		if n := testing.AllocsPerRun(100, func() { _ = rb.write(&r.resp, r.counters, nil) }); n != 0 {
			t.Errorf("%+v: a warm reply write allocates %v times, want 0", req, n)
		}
	}
}

// capturedReply is what one success reply was written from, kept past its
// request: the response with its plan detached from the request's arenas, a
// copy of the request registry's counters, the DAG, and the reply's bytes.
type capturedReply struct {
	resp     OptimizeResponse
	counters *obs.Registry
	dag      *provenance.DAG
	body     []byte
}

// captureReply serves req on s and returns what its reply was written from.
func captureReply(t testing.TB, s *Server, req OptimizeRequest) capturedReply {
	t.Helper()
	var c capturedReply
	check := s.testReply
	s.testReply = func(resp OptimizeResponse, counters *obs.Registry, dag *provenance.DAG, body []byte) {
		if check != nil {
			check(resp, counters, dag, body)
		}
		c = capturedReply{resp: resp, counters: obs.NewRegistry(), dag: dag, body: slices.Clone(body)}
		c.resp.Plan.best = plan.Detach(resp.Plan.best)
		c.counters.Merge(counters)
	}
	defer func() { s.testReply = check }()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body)))
	if rec.Code != http.StatusOK || c.body == nil {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	return c
}

// BenchmarkWriteReply times writing one /optimize success reply, its plan
// texts rendered, from what the worker holds once the plan is chosen: "tree"
// is a Figure 1 reply in the default format (a serve_small request),
// "render" a chain7 reply with the verbose tree and the functional text (the
// largest texts a request renders), "provenance" a chain4 reply with its
// derivation DAG embedded (a serve_explain request).
func BenchmarkWriteReply(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  Config
		req  OptimizeRequest
	}{
		{"tree", Config{}, OptimizeRequest{SQL: figure1SQL}},
		{"render", Config{Catalog: workload.ChainCatalog(7)},
			OptimizeRequest{SQL: graphSQL(workload.ChainQuery(7)), Format: "both", Verbose: true}},
		{"provenance", Config{Catalog: workload.ChainCatalog(4)},
			OptimizeRequest{SQL: graphSQL(workload.ChainQuery(4)), Provenance: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, err := New(c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			r := captureReply(b, s, c.req)
			var rb replyBuf
			b.SetBytes(int64(len(r.body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rb.write(&r.resp, r.counters, r.dag); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
