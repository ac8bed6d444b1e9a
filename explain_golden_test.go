package stars_test

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"stars/internal/cost"
	"stars/internal/exec"
	"stars/internal/opt"
	"stars/internal/plan"
	"stars/internal/storage"
	"stars/internal/workload"
)

const explainGolden = "testdata/golden/explain_corpus.txt"

// TestExplainCorpusGolden pins every plan rendering byte for byte: Explain,
// ExplainVerbose, Functional and DOT of the best plan of each corpus entry,
// and ExplainAnalyze of Figure 1 run on the demo data (seed 1), once with its
// actuals and once with none. Elapsed times come from the row and loop counts
// so the text does not read a clock. Rewrite it with `go test . -run
// TestExplainCorpusGolden -update-golden`.
func TestExplainCorpusGolden(t *testing.T) {
	var b strings.Builder
	for _, e := range workload.Corpus() {
		res, err := opt.New(e.Cat, opt.Options{}).Optimize(e.Query)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Fprintf(&b, "### %s explain\n%s", e.Name, plan.Explain(res.Best))
		fmt.Fprintf(&b, "### %s verbose\n%s", e.Name, plan.ExplainVerbose(res.Best))
		fmt.Fprintf(&b, "### %s functional\n%s\n", e.Name, plan.Functional(res.Best))
		fmt.Fprintf(&b, "### %s dot\n%s", e.Name, plan.DOT(res.Best))
		if e.Name != "figure1" {
			continue
		}
		cluster := storage.NewCluster()
		workload.PopulateEmpDept(cluster, e.Cat, 1)
		rt := exec.NewRuntime(cluster, e.Cat)
		rt.CollectOpStats = true
		er, err := rt.Run(res.Best)
		if err != nil {
			t.Fatalf("%s: run: %v", e.Name, err)
		}
		actuals := exec.Actuals(er, cost.DefaultWeights)
		fixed := func(n *plan.Node) (plan.Actual, bool) {
			a, ok := actuals(n)
			a.Elapsed = time.Duration(a.Rows*1537+a.Loops*911) * time.Nanosecond
			return a, ok
		}
		never := func(*plan.Node) (plan.Actual, bool) { return plan.Actual{}, false }
		fmt.Fprintf(&b, "### %s analyze\n%s", e.Name, plan.ExplainAnalyze(res.Best, fixed))
		fmt.Fprintf(&b, "### %s analyze unexecuted\n%s", e.Name, plan.ExplainAnalyze(res.Best, never))
	}
	if *updateGolden {
		if err := os.WriteFile(explainGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(explainGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(raw) {
		t.Errorf("%s moved\n got:\n%s\nwant:\n%s", explainGolden, got, raw)
	}
}
