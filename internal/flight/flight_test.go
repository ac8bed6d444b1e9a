package flight_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stars/internal/flight"
	"stars/internal/provenance"
	"stars/internal/sqlparse"
	"stars/internal/star"
	"stars/internal/workload"

	"stars/internal/obs"
	"stars/internal/opt"
)

// fixedClock returns a deterministic Now advancing one second per call.
func fixedClock() func() time.Time {
	t := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

// rec builds a successful record for template tmpl.
func rec(tmpl, fp string, wall time.Duration) flight.Record {
	return flight.Record{
		Template: tmpl, SQL: tmpl, Status: 200, PlanFP: fp,
		WallNS: int64(wall), EstCost: 10,
		CatalogEpoch: "epoch-a", RulesHash: "rules-a",
	}
}

// watch observes rec and judges it against its template's history h, as the
// serving daemon's fold does.
func watch(r *flight.Recorder, h *flight.History, rec flight.Record) flight.Observation {
	o := r.Observe(rec)
	r.Judge(h, &o)
	return o
}

func newRecorder(t *testing.T, cfg flight.Config) *flight.Recorder {
	t.Helper()
	if cfg.Now == nil {
		cfg.Now = fixedClock()
	}
	return flight.New(cfg)
}

func TestWatchdogPlanFlip(t *testing.T) {
	var h flight.History
	r := newRecorder(t, flight.Config{})
	if o := watch(r, &h, rec("Q", "fp1", time.Millisecond)); len(o.Triggers) != 0 {
		t.Fatalf("first sight triggered: %+v", o.Triggers)
	}
	if o := watch(r, &h, rec("Q", "fp1", time.Millisecond)); len(o.Triggers) != 0 {
		t.Fatalf("steady state triggered: %+v", o.Triggers)
	}
	o := watch(r, &h, rec("Q", "fp2", time.Millisecond))
	if o.Kind() != flight.KindPlanFlip {
		t.Fatalf("kind = %q, want plan_flip (triggers %+v)", o.Kind(), o.Triggers)
	}
	if o.Prev == nil || o.Prev.PlanFP != "fp1" {
		t.Fatalf("prev = %+v, want fp1", o.Prev)
	}
	if o.Triggers[0].PrevFP != "fp1" {
		t.Fatalf("trigger prev fp = %q", o.Triggers[0].PrevFP)
	}
	// A fingerprint change accompanied by a new catalog epoch is not a
	// flip — the inputs changed.
	n := rec("Q", "fp3", time.Millisecond)
	n.CatalogEpoch = "epoch-b"
	if o := watch(r, &h, n); o.Kind() == flight.KindPlanFlip {
		t.Fatalf("epoch change still flagged as flip: %+v", o.Triggers)
	}
	// Same for a rules-hash change.
	n = rec("Q", "fp4", time.Millisecond)
	n.CatalogEpoch = "epoch-b"
	n.RulesHash = "rules-b"
	if o := watch(r, &h, n); o.Kind() == flight.KindPlanFlip {
		t.Fatalf("rules change still flagged as flip: %+v", o.Triggers)
	}
}

// TestWatchdogComparesShape: records carrying a shape fingerprint flip on it
// alone — a template's different literals change PlanFP but not the plan.
func TestWatchdogComparesShape(t *testing.T) {
	var h flight.History
	r := newRecorder(t, flight.Config{})
	shaped := func(fp, shape string) flight.Record {
		n := rec("Q", fp, time.Millisecond)
		n.ShapeFP = shape
		return n
	}
	watch(r, &h, shaped("fp-lit1", "shape-a"))
	if o := watch(r, &h, shaped("fp-lit2", "shape-a")); len(o.Triggers) != 0 {
		t.Fatalf("a literal change triggered: %+v", o.Triggers)
	}
	o := watch(r, &h, shaped("fp-lit3", "shape-b"))
	if o.Kind() != flight.KindPlanFlip {
		t.Fatalf("a shape change did not flip: %+v", o.Triggers)
	}
	if tr := o.Triggers[0]; tr.PrevFP != "fp-lit2" || !strings.Contains(tr.Detail, "fp-lit2 -> fp-lit3") {
		t.Errorf("the flip must cite the displayed fingerprints: %+v", tr)
	}
}

func TestWatchdogLatency(t *testing.T) {
	var h, h2, h3 flight.History
	r := newRecorder(t, flight.Config{
		MinSamples: 3, LatencyFactor: 2, LatencyFloor: time.Microsecond,
	})
	for i := 0; i < 3; i++ {
		if o := watch(r, &h, rec("Q", "fp1", time.Millisecond)); len(o.Triggers) != 0 {
			t.Fatalf("warmup %d triggered: %+v", i, o.Triggers)
		}
	}
	// 3 samples at 1ms; 2x baseline = 2ms. 3ms must trigger.
	o := watch(r, &h, rec("Q", "fp1", 3*time.Millisecond))
	if o.Kind() != flight.KindLatency {
		t.Fatalf("kind = %q, want latency (%+v)", o.Kind(), o.Triggers)
	}
	tr := o.Triggers[0]
	if tr.Samples != 3 || tr.BaselineNS != float64(time.Millisecond) {
		t.Fatalf("baseline context = %+v", tr)
	}
	// Below the absolute floor nothing fires even when the ratio is wild.
	r2 := newRecorder(t, flight.Config{
		MinSamples: 1, LatencyFactor: 2, LatencyFloor: time.Second,
	})
	watch(r2, &h2, rec("Q", "fp1", time.Microsecond))
	if o := watch(r2, &h2, rec("Q", "fp1", 100*time.Microsecond)); len(o.Triggers) != 0 {
		t.Fatalf("sub-floor latency triggered: %+v", o.Triggers)
	}
	// Below MinSamples nothing fires.
	r3 := newRecorder(t, flight.Config{
		MinSamples: 5, LatencyFactor: 2, LatencyFloor: time.Microsecond,
	})
	watch(r3, &h3, rec("Q", "fp1", time.Millisecond))
	if o := watch(r3, &h3, rec("Q", "fp1", time.Second)); len(o.Triggers) != 0 {
		t.Fatalf("under-sampled latency triggered: %+v", o.Triggers)
	}
}

func TestWatchdogQError(t *testing.T) {
	var h flight.History
	r := newRecorder(t, flight.Config{QErrorThreshold: 50})
	n := rec("Q", "fp1", time.Millisecond)
	n.Executed, n.MaxQError = true, 49
	if o := watch(r, &h, n); len(o.Triggers) != 0 {
		t.Fatalf("below-threshold Q-error triggered: %+v", o.Triggers)
	}
	n = rec("Q", "fp1", time.Millisecond)
	n.Executed, n.MaxQError = true, 50
	o := watch(r, &h, n)
	if o.Kind() != flight.KindQError {
		t.Fatalf("kind = %q, want qerror (%+v)", o.Kind(), o.Triggers)
	}
	// Unexecuted requests are never judged on Q-error.
	n = rec("Q", "fp1", time.Millisecond)
	n.MaxQError = 1e9
	if o := watch(r, &h, n); len(o.Triggers) != 0 {
		t.Fatalf("unexecuted request triggered qerror: %+v", o.Triggers)
	}
}

func TestTriggerPriority(t *testing.T) {
	// A record that flips, blows the Q-error budget, and is slow at once
	// files under plan_flip, with triggers sorted by priority.
	var h flight.History
	r := newRecorder(t, flight.Config{
		MinSamples: 1, LatencyFactor: 2, LatencyFloor: time.Microsecond,
		QErrorThreshold: 10,
	})
	watch(r, &h, rec("Q", "fp1", time.Millisecond))
	n := rec("Q", "fp2", 10*time.Millisecond)
	n.Executed, n.MaxQError = true, 100
	o := watch(r, &h, n)
	if len(o.Triggers) != 3 {
		t.Fatalf("triggers = %+v, want 3", o.Triggers)
	}
	if o.Kind() != flight.KindPlanFlip {
		t.Fatalf("kind = %q, want plan_flip", o.Kind())
	}
	inc, err := r.File(o, flight.Capture{SQL: n.SQL, Template: n.Template})
	if err != nil {
		t.Fatalf("File: %v", err)
	}
	kinds := []string{inc.Triggers[0].Kind, inc.Triggers[1].Kind, inc.Triggers[2].Kind}
	want := []string{flight.KindPlanFlip, flight.KindQError, flight.KindLatency}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("trigger order = %v, want %v", kinds, want)
		}
	}
	if inc.Kind != flight.KindPlanFlip || inc.ID != "inc-000001-plan_flip" {
		t.Fatalf("incident = %s/%s", inc.ID, inc.Kind)
	}
}

// The recorder's fixed bounds (ring, per-template history, incidents) that
// the tests below drive. The template bound and its eviction belong to the
// serving daemon's template table (internal/serve).
const ringSize, historySize, maxIncidents = 128, 32, 32

func TestFailuresRingOnlyAndBounds(t *testing.T) {
	r := newRecorder(t, flight.Config{})
	var h flight.History
	// Failures enter the ring but never the history.
	bad := flight.Record{Template: "Q", SQL: "Q", Status: 400}
	if o := watch(r, &h, bad); o.Prev != nil || len(o.Triggers) != 0 {
		t.Fatalf("failure judged: %+v", o)
	}
	if _, n := h.Baseline(); n != 0 {
		t.Fatalf("failure entered the template history (%d samples)", n)
	}
	if _, ok := h.State("Q"); ok {
		t.Fatal("a failure-only history renders a template state")
	}
	// Ring is bounded and ordered oldest-first.
	for i := 0; i < ringSize+2; i++ {
		watch(r, &h, rec("Q", "fp1", time.Millisecond))
	}
	ring := r.Recent()
	if len(ring) != ringSize {
		t.Fatalf("ring len = %d, want %d", len(ring), ringSize)
	}
	for i := 1; i < len(ring); i++ {
		if ring[i].Seq != ring[i-1].Seq+1 {
			t.Fatalf("ring not sequential: %+v", ring)
		}
	}
	// History bounded: baseline reflects only the last historySize records.
	var o flight.Observation
	for i := 0; i <= historySize; i++ {
		o = watch(r, &h, rec("Q", "fp1", 5*time.Millisecond))
	}
	if o.Samples != historySize || o.BaselineNS != float64(5*time.Millisecond) {
		t.Fatalf("history not bounded: samples=%d baseline=%v", o.Samples, o.BaselineNS)
	}
	// A reset history is a first sight again.
	h.Reset()
	if o := watch(r, &h, rec("Q", "fp2", time.Millisecond)); o.Prev != nil || o.Samples != 0 || len(o.Triggers) != 0 {
		t.Fatalf("reset history still judged against the old one: %+v", o)
	}
}

func TestIncidentStoreBounds(t *testing.T) {
	var h flight.History
	r := newRecorder(t, flight.Config{QErrorThreshold: 1})
	for i := 0; i <= maxIncidents; i++ {
		n := rec("Q", "fp1", time.Millisecond)
		n.Executed, n.MaxQError = true, 10
		o := watch(r, &h, n)
		if _, err := r.File(o, flight.Capture{SQL: n.SQL}); err != nil {
			t.Fatalf("File: %v", err)
		}
	}
	incs := r.Incidents()
	if len(incs) != maxIncidents {
		t.Fatalf("store len = %d, want %d", len(incs), maxIncidents)
	}
	last := fmt.Sprintf("inc-%06d-qerror", maxIncidents+1)
	if incs[0].ID != "inc-000002-qerror" || incs[len(incs)-1].ID != last {
		t.Fatalf("wrong survivors: %s, %s", incs[0].ID, incs[len(incs)-1].ID)
	}
	st := r.Stats()
	if st.IncidentsTotal != maxIncidents+1 || st.Dropped != 1 || st.Incidents != maxIncidents ||
		st.ByKind[flight.KindQError] != maxIncidents+1 {
		t.Fatalf("stats = %+v", st)
	}
	if r.Incident(last) == nil || r.Incident("inc-000001-qerror") != nil {
		t.Fatal("Incident lookup wrong")
	}
}

func TestIncidentBundleBitStable(t *testing.T) {
	dir := t.TempDir()
	bundle := func(sub string) []byte {
		r := flight.New(flight.Config{
			IncidentDir: filepath.Join(dir, sub),
			Now:         fixedClock(),
		})
		var h flight.History
		watch(r, &h, rec("SELECT * FROM EMP WHERE SAL > ?", "fp1", time.Millisecond))
		o := watch(r, &h, rec("SELECT * FROM EMP WHERE SAL > ?", "fp2", 2*time.Millisecond))
		inc, err := r.File(o, flight.Capture{
			SQL:      "SELECT * FROM EMP WHERE SAL > 100",
			Template: "SELECT * FROM EMP WHERE SAL > ?",
			Rules:    "dummy", RulesHash: "rules-a",
			Options: flight.CapturedOptions{Parallelism: 1},
		})
		if err != nil {
			t.Fatalf("File: %v", err)
		}
		b, err := os.ReadFile(filepath.Join(dir, sub, inc.ID+".json"))
		if err != nil {
			t.Fatalf("read bundle: %v", err)
		}
		return b
	}
	a, b := bundle("a"), bundle("b")
	if !bytes.Equal(a, b) {
		t.Fatalf("bundles differ:\n%s\n---\n%s", a, b)
	}
	// And the file round-trips through ReadIncident.
	var inc flight.Incident
	if err := json.Unmarshal(a, &inc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if inc.Schema != flight.IncidentSchema || inc.Kind != flight.KindPlanFlip {
		t.Fatalf("bundle = %s/%s", inc.Schema, inc.Kind)
	}
	if len(inc.Ring) != 2 {
		t.Fatalf("ring len = %d, want 2", len(inc.Ring))
	}
	path := filepath.Join(dir, "a", inc.ID+".json")
	got, err := flight.ReadIncident(path)
	if err != nil {
		t.Fatalf("ReadIncident: %v", err)
	}
	if got.ID != inc.ID || got.Record.PlanFP != "fp2" {
		t.Fatalf("round-trip = %+v", got)
	}
	// Schema guard.
	badPath := filepath.Join(dir, "bad.json")
	os.WriteFile(badPath, []byte(`{"schema":"stars/other/v9"}`), 0o644)
	if _, err := flight.ReadIncident(badPath); err == nil {
		t.Fatal("foreign schema accepted")
	}
}

func TestNilRecorderZeroAlloc(t *testing.T) {
	var r *flight.Recorder
	var h flight.History
	n := rec("Q", "fp", time.Millisecond)
	allocs := testing.AllocsPerRun(100, func() {
		o := watch(r, &h, n)
		if len(o.Triggers) != 0 {
			t.Fatal("nil recorder triggered")
		}
		r.Recent()
		r.Stats()
		r.Incidents()
		if _, err := r.File(o, flight.Capture{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocates: %v allocs/op", allocs)
	}
}

// captureFor optimizes figure1 over EmpDept and builds the full capture the
// serving daemon would file, returning the capture and the fingerprint.
func captureFor(t *testing.T, parallelism int) (flight.Capture, string) {
	t.Helper()
	cat := workload.EmpDept()
	catJSON, err := cat.MarshalJSONIndent()
	if err != nil {
		t.Fatalf("catalog json: %v", err)
	}
	rules := star.DefaultRules()
	sql := "SELECT DEPT.DNO, EMP.NAME FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO AND DEPT.MGR = 'Haas'"
	g, err := sqlparse.Parse(sql, cat)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := opt.New(cat, opt.Options{
		Rules: rules, Obs: obs.NewSink(), Parallelism: parallelism,
	}).Optimize(g)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	dag, err := provenance.FromResult(res)
	if err != nil {
		t.Fatalf("provenance: %v", err)
	}
	var dagBuf bytes.Buffer
	if err := dag.WriteJSON(&dagBuf); err != nil {
		t.Fatalf("dag json: %v", err)
	}
	return flight.Capture{
		SQL:                sql,
		Template:           "tmpl",
		Rules:              star.Format(rules),
		Catalog:            catJSON,
		Provenance:         dagBuf.Bytes(),
		ProvenanceChecksum: dag.Checksum(),
		Options:            flight.CapturedOptions{Parallelism: parallelism},
	}, res.Best.Fingerprint()
}

func TestReplayIdentical(t *testing.T) {
	cap, fp := captureFor(t, 1)
	inc := &flight.Incident{
		Schema: flight.IncidentSchema, ID: "inc-000001-plan_flip",
		Kind:        flight.KindPlanFlip,
		Observation: flight.Observation{Record: flight.Record{SQL: cap.SQL, Template: cap.Template, Status: 200, PlanFP: fp}},
		Capture:     cap,
	}
	rr, err := flight.Replay(inc)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !rr.FingerprintMatch() {
		t.Fatalf("fingerprint %s, captured %s", rr.Fingerprint, rr.CapturedFP)
	}
	if !rr.Identical {
		t.Fatalf("DAGs differ: %+v", rr.Diff)
	}
	if rr.Checksum != rr.CapturedChecksum {
		t.Fatalf("checksums differ: %s vs %s", rr.Checksum, rr.CapturedChecksum)
	}
}

func TestReplayDivergent(t *testing.T) {
	// Capture against EmpDept, then tamper the catalog stats in the
	// bundle (EMP shrinks 10000 -> 10): the replay must choose and derive
	// differently and say so.
	cap, fp := captureFor(t, 1)
	tampered := bytes.Replace(cap.Catalog, []byte(`"card": 10000`), []byte(`"card": 10`), 1)
	if bytes.Equal(tampered, cap.Catalog) {
		t.Fatalf("tamper did not apply; catalog:\n%s", cap.Catalog)
	}
	cap.Catalog = tampered
	inc := &flight.Incident{
		Schema: flight.IncidentSchema, ID: "inc-000001-plan_flip",
		Kind:        flight.KindPlanFlip,
		Observation: flight.Observation{Record: flight.Record{SQL: cap.SQL, Template: cap.Template, Status: 200, PlanFP: fp}},
		Capture:     cap,
	}
	rr, err := flight.Replay(inc)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rr.Identical {
		t.Fatal("tampered catalog replayed to an identical DAG")
	}
	if rr.Diff == nil || !rr.Diff.Changed() {
		t.Fatalf("diff = %+v, want changed", rr.Diff)
	}
}

func TestReplayParallelismDeterminism(t *testing.T) {
	// A capture taken at parallelism 4 replays to the identical DAG —
	// the enumeration's determinism contract carried into replay.
	cap, fp := captureFor(t, 4)
	inc := &flight.Incident{
		Schema: flight.IncidentSchema, ID: "inc-000001-latency",
		Kind:        flight.KindLatency,
		Observation: flight.Observation{Record: flight.Record{SQL: cap.SQL, Status: 200, PlanFP: fp}},
		Capture:     cap,
	}
	rr, err := flight.Replay(inc)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !rr.Identical || !rr.FingerprintMatch() {
		t.Fatalf("parallel capture diverged: identical=%v fp=%s/%s", rr.Identical, rr.Fingerprint, rr.CapturedFP)
	}
}

func TestReplayErrors(t *testing.T) {
	if _, err := flight.Replay(nil); err == nil {
		t.Fatal("nil incident accepted")
	}
	inc := &flight.Incident{Schema: flight.IncidentSchema, ID: "inc-x"}
	if _, err := flight.Replay(inc); err == nil {
		t.Fatal("catalog-less bundle accepted")
	}
	cap, _ := captureFor(t, 1)
	cap.Rules = ""
	if _, err := flight.Replay(&flight.Incident{Schema: flight.IncidentSchema, Capture: cap}); err == nil {
		t.Fatal("rules-less bundle accepted")
	}
}

func TestObserveConcurrent(t *testing.T) {
	// Hammer one recorder from many goroutines, one template (and so one
	// history) each; bounds hold and the census adds up. Run with -race
	// for the memory-model half.
	r := newRecorder(t, flight.Config{})
	hs := make([]flight.History, 8)
	done := make(chan struct{})
	for w := range hs {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				o := watch(r, &hs[w], rec(fmt.Sprintf("Q%d", w), "fp1", time.Millisecond))
				r.File(o, flight.Capture{})
			}
		}(w)
	}
	for range hs {
		<-done
	}
	if st := r.Stats(); st.Records != 400 {
		t.Fatalf("stats = %+v", st)
	}
	for w := range hs {
		if _, n := hs[w].Baseline(); n != historySize {
			t.Fatalf("history %d holds %d samples, want %d", w, n, historySize)
		}
	}
	if len(r.Recent()) != ringSize {
		t.Fatalf("ring overflowed: %d", len(r.Recent()))
	}
}
