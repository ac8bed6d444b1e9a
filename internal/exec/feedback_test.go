package exec_test

import (
	"reflect"
	"testing"

	"stars/internal/exec"
	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/storage"
	"stars/internal/workload"
)

// runWithFeedback optimizes and executes Figure 1 with op-stats collection,
// returning the exec.feedback events in stream order.
func runWithFeedback(t *testing.T) []obs.Event {
	t.Helper()
	cat := workload.EmpDept()
	cluster := storage.NewCluster()
	workload.PopulateEmpDept(cluster, cat, 1)
	res, err := opt.New(cat, opt.Options{}).Optimize(workload.Figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	rt := exec.NewRuntime(cluster, cat)
	rt.CollectOpStats = true
	sink := obs.NewSink()
	rt.Obs = sink
	if _, err := rt.Run(res.Best); err != nil {
		t.Fatal(err)
	}
	var out []obs.Event
	for _, e := range sink.Events() {
		if e.Name == obs.EvExecFeedback {
			e.Seq, e.T = 0, 0 // compare payloads, not clock fields
			out = append(out, e)
		}
	}
	if got := sink.Registry().Counter("qerror_observations_total").Value(); got != int64(len(out)) {
		t.Errorf("qerror_observations_total = %d, %d feedback events", got, len(out))
	}
	return out
}

func TestExecFeedbackEvents(t *testing.T) {
	events := runWithFeedback(t)
	if len(events) == 0 {
		t.Fatal("no exec.feedback events")
	}
	for _, e := range events {
		if e.A1 == "" || e.P1 == 0 {
			t.Errorf("feedback without operator/fingerprint: %+v", e)
		}
		if e.F2 < 1 {
			t.Errorf("Q-error below 1: %+v", e)
		}
		if e.N2 < 1 {
			t.Errorf("open count below 1: %+v", e)
		}
	}
	// The feedback walk is the plan tree in pre-order, so two identical
	// runs emit identical streams — the property the serve ledger and the
	// parallelism determinism tests build on.
	if again := runWithFeedback(t); !reflect.DeepEqual(events, again) {
		t.Errorf("feedback events not deterministic:\nfirst:  %+v\nsecond: %+v", events, again)
	}
}

func TestNoFeedbackWithoutOpStats(t *testing.T) {
	cat := workload.EmpDept()
	cluster := storage.NewCluster()
	workload.PopulateEmpDept(cluster, cat, 1)
	res, err := opt.New(cat, opt.Options{}).Optimize(workload.Figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	rt := exec.NewRuntime(cluster, cat)
	sink := obs.NewSink()
	rt.Obs = sink
	if _, err := rt.Run(res.Best); err != nil {
		t.Fatal(err)
	}
	for _, e := range sink.Events() {
		if e.Name == obs.EvExecFeedback || e.Name == obs.EvExecOp {
			t.Fatalf("per-op event without CollectOpStats: %+v", e)
		}
	}
}
