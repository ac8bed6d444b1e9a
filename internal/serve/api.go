package serve

import (
	"encoding/json"

	"stars/internal/cost"
	"stars/internal/exec"
	"stars/internal/expr"
	"stars/internal/jsonw"
	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/plan"
	"stars/internal/provenance"
)

// SchemaV1 identifies the request/response JSON schema of every /optimize
// round-trip and error body. Documented in docs/SERVING.md.
const SchemaV1 = "stars/serve/v1"

// OptimizeRequest is the POST /optimize body.
type OptimizeRequest struct {
	// SQL is the query text (one SELECT statement).
	SQL string `json:"sql"`
	// Format selects the plan rendering(s) returned: "tree" (EXPLAIN,
	// the default), "functional" (the paper's nested-function notation),
	// or "both".
	Format string `json:"format,omitempty"`
	// Verbose renders the tree with full property vectors.
	Verbose bool `json:"verbose,omitempty"`
	// Provenance embeds the run's derivation DAG (stars/provenance/v1).
	Provenance bool `json:"provenance,omitempty"`
	// Execute also runs the chosen plan against the daemon's generated
	// data. Executions are serialized server-side (the storage cluster is
	// a shared resource); optimization itself is fully concurrent.
	Execute bool `json:"execute,omitempty"`
	// Analyze implies Execute and returns EXPLAIN ANALYZE text with
	// per-operator estimated-vs-actual figures.
	Analyze bool `json:"analyze,omitempty"`
	// Limit caps the rows echoed back when executing (default 100, -1 for
	// all).
	Limit int `json:"limit,omitempty"`
}

// OptimizeResponse is the POST /optimize success body.
type OptimizeResponse struct {
	Schema    string `json:"schema"`
	RequestID string `json:"request_id"`
	SQL       string `json:"sql"`
	// Plan describes the chosen plan.
	Plan PlanJSON `json:"plan"`
	// Stats are the optimizer-effort counters for this request.
	Stats StatsJSON `json:"stats"`
	// Metrics is the request's private counter snapshot (star_*, glue_*,
	// plantable_*, opt_*, exec_*). The daemon's /metrics endpoint serves
	// the same names aggregated across all requests.
	Metrics map[string]int64 `json:"metrics,omitempty"`
	// Provenance is the derivation DAG (stars/provenance/v1) when
	// requested.
	Provenance json.RawMessage `json:"provenance,omitempty"`
	// Execution reports the run when Execute/Analyze was requested.
	Execution *ExecutionJSON `json:"execution,omitempty"`
}

// replyBuf is one /optimize reply's pooled storage: the body, and the
// scratch each plan text is rendered into before it is quoted.
type replyBuf struct{ body, text []byte }

// write writes resp's reply into rb.body: the bytes
// json.NewEncoder(w).Encode(resp) writes, newline included, for resp with its
// plan texts rendered from the plan, Metrics listed from counters and
// Provenance written from dag (nil: none). It fails on a float JSON cannot
// carry.
func (rb *replyBuf) write(resp *OptimizeResponse, counters *obs.Registry, dag *provenance.DAG) error {
	w := jsonw.Writer{B: rb.body[:0]}
	w.Open('{')
	w.Key("schema").String(resp.Schema)
	w.Key("request_id").String(resp.RequestID)
	w.Key("sql").String(resp.SQL)
	p, c, st := &resp.Plan, &resp.Plan.Cost, &resp.Stats
	text := func(key string, t []byte) { rb.text = t; w.Key(key).StringBytes(t) }
	w.Key("plan").Open('{')
	if p.tree {
		text("explain", plan.AppendExplain(rb.text[:0], p.best, p.verbose))
	}
	if p.functional {
		text("functional", plan.AppendFunctional(rb.text[:0], p.best))
	}
	w.Key("fingerprint").String(p.Fingerprint)
	w.Key("estimated_rows").Float(p.EstimatedRows)
	w.Key("cost").Open('{')
	w.Key("total").Float(c.Total)
	w.Key("io").Float(c.IO)
	w.Key("cpu").Float(c.CPU)
	w.Key("msg").Float(c.Msg)
	w.Key("bytes").Float(c.Bytes)
	w.Close('}')
	w.Close('}')
	w.Key("stats").Open('{')
	w.Key("rule_refs").Int(st.RuleRefs)
	w.Key("alts_fired").Int(st.AltsFired)
	w.Key("alts_rejected").Int(st.AltsRejected)
	w.Key("plans_built").Int(st.PlansBuilt)
	w.Key("plans_inserted").Int(st.PlansInserted)
	w.Key("plans_pruned").Int(st.PlansPruned)
	w.Key("plans_retained").Int(st.PlansRetained)
	w.Key("subsets").Int(st.Subsets)
	w.Key("pairs").Int(st.Pairs)
	w.Key("prune_rate").Float(st.PruneRate)
	w.Key("elapsed_us").Int(st.ElapsedUs)
	w.Key("events").Int(st.Events)
	w.Close('}')
	mark := len(w.B)
	w.Key("metrics")
	if counters.AppendCounters(&w) == 0 {
		w.B = w.B[:mark] // omitempty leaves an empty map out
	}
	if dag != nil {
		w.Key("provenance")
		dag.AppendJSON(&w)
	}
	if ex := resp.Execution; ex != nil {
		w.Key("execution").Open('{')
		w.Key("columns").Strings(ex.Columns)
		if w.Key("rows"); ex.Rows == nil {
			w.Strings(nil)
		} else {
			w.Open('[')
			for _, row := range ex.Rows {
				w.Strings(row)
			}
			w.Close(']')
		}
		w.Key("row_count").Int(ex.RowCount)
		w.OmitFalse("truncated", ex.Truncated)
		w.Key("actual_cost").Float(ex.ActualCost)
		w.Key("pages").Int(ex.Pages)
		w.Key("messages").Int(ex.Messages)
		w.Key("bytes_shipped").Int(ex.Bytes)
		w.Key("cpu_ops").Int(ex.CPUOps)
		if ex.actuals != nil {
			text("analyze", plan.AppendExplainAnalyze(rb.text[:0], p.best, ex.actuals))
		}
		w.Close('}')
	}
	w.Close('}')
	rb.body = append(w.B, '\n')
	return w.Err()
}

// PlanJSON renders the chosen plan. The daemon writes its texts into the
// reply straight from the plan (best) and leaves Explain and Functional
// empty; they are there for clients that decode a reply.
type PlanJSON struct {
	// Explain is the indented tree rendering (empty when Format is
	// "functional").
	Explain string `json:"explain,omitempty"`
	// Functional is the paper's nested-function notation (set when Format
	// is "functional" or "both").
	Functional string `json:"functional,omitempty"`
	// Fingerprint identifies the plan stably across runs and processes.
	Fingerprint string `json:"fingerprint"`
	// EstimatedRows is the optimizer's output-cardinality estimate.
	EstimatedRows float64 `json:"estimated_rows"`
	// Cost is the estimated resource vector.
	Cost CostJSON `json:"cost"`

	// best is the plan the texts render; tree and functional say which
	// renderings the reply carries, verbose that the tree lists properties.
	best                      *plan.Node
	tree, functional, verbose bool
}

// CostJSON is the estimated resource vector of a plan.
type CostJSON struct {
	Total float64 `json:"total"`
	IO    float64 `json:"io"`
	CPU   float64 `json:"cpu"`
	Msg   float64 `json:"msg"`
	Bytes float64 `json:"bytes"`
}

// costJSON converts a plan cost.
func costJSON(c plan.Cost) CostJSON {
	return CostJSON{Total: c.Total, IO: c.IO, CPU: c.CPU, Msg: c.Msg, Bytes: c.Bytes}
}

// StatsJSON reports one optimization's effort counters.
type StatsJSON struct {
	RuleRefs      int64   `json:"rule_refs"`
	AltsFired     int64   `json:"alts_fired"`
	AltsRejected  int64   `json:"alts_rejected"`
	PlansBuilt    int64   `json:"plans_built"`
	PlansInserted int64   `json:"plans_inserted"`
	PlansPruned   int64   `json:"plans_pruned"`
	PlansRetained int64   `json:"plans_retained"`
	Subsets       int64   `json:"subsets"`
	Pairs         int64   `json:"pairs"`
	PruneRate     float64 `json:"prune_rate"`
	ElapsedUs     int64   `json:"elapsed_us"`
	Events        int64   `json:"events"`
}

// statsJSON converts optimizer stats; events is the request sink's census.
func statsJSON(st opt.Stats, events int64) StatsJSON {
	out := StatsJSON{
		RuleRefs:      st.Star.RuleRefs,
		AltsFired:     st.Star.AltsFired,
		AltsRejected:  st.Star.AltsRejected,
		PlansBuilt:    st.Star.PlansBuilt,
		PlansInserted: st.PlansInserted,
		PlansPruned:   st.PlansPruned,
		PlansRetained: st.PlansRetained,
		Subsets:       st.Subsets,
		Pairs:         st.Pairs,
		ElapsedUs:     st.Elapsed.Microseconds(),
		Events:        events,
	}
	if st.PlansInserted+st.PlansPruned > 0 {
		out.PruneRate = float64(st.PlansPruned) / float64(st.PlansInserted+st.PlansPruned)
	}
	return out
}

// ExecutionJSON reports one plan execution.
type ExecutionJSON struct {
	// Columns names the projected output columns.
	Columns []string `json:"columns"`
	// Rows is the (possibly truncated) result set, rendered as strings.
	Rows [][]string `json:"rows"`
	// RowCount is the full result cardinality before truncation.
	RowCount int64 `json:"row_count"`
	// Truncated reports whether Rows was capped by the request's Limit.
	Truncated bool `json:"truncated,omitempty"`
	// ActualCost is the measured resource usage in cost-model units,
	// directly comparable with plan.cost.total.
	ActualCost float64 `json:"actual_cost"`
	Pages      int64   `json:"pages"`
	Messages   int64   `json:"messages"`
	Bytes      int64   `json:"bytes_shipped"`
	CPUOps     int64   `json:"cpu_ops"`
	// Analyze is the EXPLAIN ANALYZE rendering when requested; the daemon
	// writes it from actuals, as it writes PlanJSON's texts.
	Analyze string `json:"analyze,omitempty"`

	actuals func(*plan.Node) (plan.Actual, bool)
}

// executionJSON converts an execution result under the given weights,
// projecting rows onto the query's SELECT list (plans carry working columns
// like TIDs that API clients don't want).
func executionJSON(er *exec.Result, w cost.Weights, cols []expr.ColID, limit int) *ExecutionJSON {
	out := &ExecutionJSON{
		RowCount:   er.Stats.RowsOut,
		ActualCost: er.Stats.ActualCost(w),
		Pages:      er.Stats.IO.TotalPages(),
		Messages:   er.Stats.Messages,
		Bytes:      er.Stats.BytesShipped,
		CPUOps:     er.Stats.CPUOps,
	}
	idx := map[expr.ColID]int{}
	for i, c := range er.Schema {
		idx[c] = i
	}
	for _, c := range cols {
		out.Columns = append(out.Columns, c.String())
	}
	n := len(er.Rows)
	if limit >= 0 && n > limit {
		n = limit
		out.Truncated = true
	}
	out.Rows = make([][]string, 0, n)
	for _, row := range er.Rows[:n] {
		r := make([]string, len(cols))
		for i, c := range cols {
			if p, ok := idx[c]; ok && p < len(row) {
				r[i] = row[p].String()
			} else {
				r[i] = "?"
			}
		}
		out.Rows = append(out.Rows, r)
	}
	return out
}

// ErrorResponse is every non-200 JSON body.
type ErrorResponse struct {
	Schema    string `json:"schema"`
	RequestID string `json:"request_id,omitempty"`
	Error     string `json:"error"`
}
