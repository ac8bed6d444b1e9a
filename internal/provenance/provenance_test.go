package provenance

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"stars/internal/catalog"
	"stars/internal/expr"
	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/query"
	"stars/internal/workload"
)

// runOpt optimizes g with the event stream on and returns the result.
func runOpt(t *testing.T, cat *catalog.Catalog, g *query.Graph, o opt.Options) *opt.Result {
	t.Helper()
	o.Obs = obs.NewSink()
	res, err := opt.New(cat, o).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// figure3Catalog is the paper's Figure 3 Glue scenario: DEPT at NY, query
// at LA, results ordered — Glue must veneer SHIP and SORT.
func figure3Catalog(t *testing.T) (*catalog.Catalog, *query.Graph) {
	t.Helper()
	cat := workload.EmpDept()
	cat.Sites = []string{"LA", "NY"}
	cat.QuerySite = "LA"
	cat.Table("DEPT").Site = "NY"
	g := workload.Figure1Query()
	g.OrderBy = []expr.ColID{{Table: "DEPT", Col: "DNO"}}
	return cat, g
}

func TestWhyBestFigure1(t *testing.T) {
	res := runOpt(t, workload.EmpDept(), workload.Figure1Query(), opt.Options{})
	d, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if d.BestFP == "" || d.Plans[d.BestFP] == nil {
		t.Fatalf("DAG lost the best plan: %s", d.Summary())
	}
	why, err := d.Why("best")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(why, "chosen as the winning plan") {
		t.Errorf("Why(best) missing verdict:\n%s", why)
	}
	// The derivation chain must cite STAR alternatives ("Rule#alt").
	if !strings.Contains(why, "#") {
		t.Errorf("Why(best) cites no STAR alternative:\n%s", why)
	}
	// Every distinct operator of the winning plan appears in the chain.
	if got, want := strings.Count(why, "fp="), res.Best.Count(); got < want {
		t.Errorf("Why(best) lists %d nodes, winning plan has %d", got, want)
	}
	// Addressing the best plan by its printed fingerprint works too.
	why2, err := d.Why(d.BestFP)
	if err != nil || why2 != why {
		t.Errorf("Why(<best fp>) differs from Why(best): %v", err)
	}
}

func TestWhyBestFigure3CitesGlueVeneers(t *testing.T) {
	cat, g := figure3Catalog(t)
	res := runOpt(t, cat, g, opt.Options{})
	d, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	why, err := d.Why("best")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(why, "Glue veneer") {
		t.Errorf("Figure 3 derivation chain does not mark Glue veneers:\n%s", why)
	}
	if !strings.Contains(why, "SHIP") {
		t.Errorf("Figure 3 derivation chain lost the SHIP veneer:\n%s", why)
	}
}

func TestWhyNotNamesDominatorAndCost(t *testing.T) {
	cat := workload.ChainCatalog(4, 400, 150, 60, 200)
	g := workload.ChainQuery(4)
	res := runOpt(t, cat, g, opt.Options{})
	if res.Stats.PlansPruned == 0 {
		t.Fatal("chain-4 run pruned nothing; the fixture no longer exercises dominance")
	}
	d, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	pruned := d.Pruned()
	if len(pruned) == 0 {
		t.Fatalf("no pruned plans recorded despite %d prune decisions; %s",
			res.Stats.PlansPruned, d.Summary())
	}
	// Prefer a pruned join order, the acceptance scenario.
	victim := pruned[0]
	for _, p := range pruned {
		if strings.HasPrefix(p.Desc, "JOIN") {
			victim = p
			break
		}
	}
	report := d.WhyNot(victim.FP)
	if !strings.Contains(report, "dominated by") {
		t.Errorf("WhyNot(pruned) does not explain dominance:\n%s", report)
	}
	if victim.PrunedBy == "" || !strings.Contains(report, victim.PrunedBy) {
		t.Errorf("WhyNot(pruned) does not name the dominating plan %q:\n%s", victim.PrunedBy, report)
	}
	if !strings.Contains(report, "cost") {
		t.Errorf("WhyNot(pruned) does not cite costs:\n%s", report)
	}
}

func TestWhyNotNeverDerivedCitesConditions(t *testing.T) {
	res := runOpt(t, workload.EmpDept(), workload.Figure1Query(), opt.Options{})
	d, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	report := d.WhyNot("ffffffffffffffff")
	if !strings.Contains(report, "never derived") {
		t.Errorf("unknown fingerprint not reported as never derived:\n%s", report)
	}
	if len(d.Rejections) == 0 {
		t.Fatal("Figure 1 run rejected no alternatives; fixture lost its rejections")
	}
	// The report must cite at least one failing condition by name.
	if !strings.Contains(report, d.Rejections[0].Rule) {
		t.Errorf("WhyNot does not cite rejected rules:\n%s", report)
	}
	for _, r := range d.Rejections {
		if r.Cond == "" {
			t.Fatalf("rejection %s#%d lost its condition", r.Rule, r.Alt)
		}
	}
}

func TestWhyNotRetainedButNotChosen(t *testing.T) {
	res := runOpt(t, workload.EmpDept(), workload.Figure1Query(), opt.Options{})
	d, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	var loser *Plan
	for _, n := range d.sorted() {
		if n.Retained && !n.Best {
			loser = n
			break
		}
	}
	if loser == nil {
		t.Skip("every retained plan is on the winning chain")
	}
	report := d.WhyNot(loser.FP)
	if !strings.Contains(report, "survived") {
		t.Errorf("WhyNot(retained) misses the survived-but-not-chosen verdict:\n%s", report)
	}
}

func TestDOTIsWellFormed(t *testing.T) {
	cat, g := figure3Catalog(t)
	res := runOpt(t, cat, g, opt.Options{})
	d, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	dot := buf.String()
	if !strings.HasPrefix(dot, "digraph provenance {") || !strings.HasSuffix(dot, "}\n") {
		t.Fatalf("DOT not bracketed:\n%s", dot)
	}
	if open, close := strings.Count(dot, "{"), strings.Count(dot, "}"); open != close {
		t.Fatalf("unbalanced braces: %d open, %d close", open, close)
	}
	if q := strings.Count(dot, `"`); q%2 != 0 {
		t.Fatalf("odd quote count %d; an id or label is unterminated", q)
	}
	// Every node id must be the quoted fingerprint; every plan appears.
	for fp := range d.Plans {
		if !strings.Contains(dot, `"`+fp+`"`) {
			t.Errorf("plan %s missing from DOT", fp)
		}
	}
	if !strings.Contains(dot, "->") {
		t.Error("DOT has no edges")
	}
	// Pruned nodes draw their dominance edge.
	if len(d.Pruned()) > 0 && !strings.Contains(dot, "dominated by") && !strings.Contains(dot, "evicted by") {
		t.Error("DOT shows no prune forensics despite pruned plans")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	cat := workload.ChainCatalog(3, 400, 150, 60)
	res := runOpt(t, cat, workload.ChainQuery(3), opt.Options{})
	d, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := d.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	// The export is valid generic JSON.
	var generic map[string]any
	if err := json.Unmarshal(first.Bytes(), &generic); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	if generic["schema"] != SchemaVersion {
		t.Fatalf("schema = %v", generic["schema"])
	}
	// Read → write reproduces the bytes exactly (lossless round-trip).
	back, err := ReadJSON(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := back.WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("round-trip not lossless:\n--- first\n%s\n--- second\n%s", first.String(), second.String())
	}
	// Queries keep working on the reconstructed DAG.
	if _, err := back.Why("best"); err != nil {
		t.Errorf("Why on reconstructed DAG: %v", err)
	}
}

// TestWriteJSONMatchesEncodingJSON checks the export against encoding/json's
// indented encoding of jsonDAG, on DAGs with veneers, prunes, bounds and
// rejections, and that a NaN cost fails the export as it failed there.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	cat3, g3 := figure3Catalog(t)
	var dags []*DAG
	for _, r := range []*opt.Result{
		runOpt(t, workload.EmpDept(), workload.Figure1Query(), opt.Options{}),
		runOpt(t, cat3, g3, opt.Options{}),
		runOpt(t, workload.ChainCatalog(4, 400, 150, 60, 200), workload.ChainQuery(4), opt.Options{}),
		runOpt(t, workload.StarCatalog(3, 100000, 1000), workload.StarQuery(3), opt.Options{}),
	} {
		d, err := FromResult(r)
		if err != nil {
			t.Fatal(err)
		}
		dags = append(dags, d)
	}
	dags = append(dags, &DAG{Plans: map[string]*Plan{}}, &DAG{Plans: map[string]*Plan{"x": {FP: "x", Cost: math.NaN()}}})
	for i, d := range dags {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		wantErr := enc.Encode(jsonDAG{Schema: SchemaVersion, Best: d.BestFP, Plans: d.sorted(), Rejections: d.Rejections})
		var got bytes.Buffer
		err := d.WriteJSON(&got)
		if (err == nil) != (wantErr == nil) || err == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("DAG %d (%v, want %v):\n got %s\nwant %s", i, err, wantErr, got.Bytes(), want.Bytes())
		}
	}
}

func TestDiffPruningAblation(t *testing.T) {
	cat := workload.ChainCatalog(4, 400, 150, 60, 200)
	g := workload.ChainQuery(4)
	base := runOpt(t, cat, g, opt.Options{})
	noPrune := runOpt(t, cat, g, opt.Options{DisablePruning: true})
	dBase, err := FromResult(base)
	if err != nil {
		t.Fatal(err)
	}
	dNoPrune, err := FromResult(noPrune)
	if err != nil {
		t.Fatal(err)
	}
	r := Diff(dNoPrune, dBase) // A = ablation (no pruning), B = default
	if len(r.PrunedOnlyInOneRun) == 0 {
		t.Errorf("diff between PruneDisabled and default reports no pruned-only plans:\n%s", r.Format())
	}
	if r.BestChanged {
		t.Errorf("pruning ablation changed the winning plan: %s vs %s", r.BestA, r.BestB)
	}
	text := r.Format()
	for _, want := range []string{"provenance diff:", "pruned in exactly one run"} {
		if !strings.Contains(text, want) {
			t.Errorf("diff report missing %q:\n%s", want, text)
		}
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	// Builds from independent runs plus queries/exports on a shared DAG,
	// all concurrently — the race detector is the assertion.
	cat, g := figure3Catalog(t)
	shared, err := FromResult(runOpt(t, cat, g, opt.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := runOpt(t, workload.EmpDept(), workload.Figure1Query(), opt.Options{})
			d, err := FromResult(res)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := shared.Why("best"); err != nil {
				t.Error(err)
			}
			shared.WhyNot("ffffffffffffffff")
			for _, n := range shared.Pruned() {
				shared.WhyNot(n.FP)
			}
			if err := shared.WriteDOT(io.Discard); err != nil {
				t.Error(err)
			}
			if err := shared.WriteJSON(io.Discard); err != nil {
				t.Error(err)
			}
			Diff(shared, d)
		}()
	}
	wg.Wait()
}

func TestFromResultRequiresEvents(t *testing.T) {
	res, err := opt.New(workload.EmpDept(), opt.Options{}).Optimize(workload.Figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromResult(res); err == nil {
		t.Error("FromResult accepted a run without observability")
	}
	o := opt.Options{Obs: obs.NewMetricsSink()}
	res2, err := opt.New(workload.EmpDept(), o).Optimize(workload.Figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromResult(res2); err == nil {
		t.Error("FromResult accepted a metrics-only sink (no events)")
	}
}

// TestWhyNotCitesGlueBound: a candidate Glue passed over because it already
// cost more than the cheapest satisfying plan says so in WhyNot, from the one
// glue.skip record its reference left; and the never-derived answer mentions
// that the run skipped candidates at all.
func TestWhyNotCitesGlueBound(t *testing.T) {
	cat, g := figure3Catalog(t)
	res := runOpt(t, cat, g, opt.Options{})
	d, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if d.Bounded == 0 || d.Reused == 0 {
		t.Fatalf("figure 3 run skipped nothing (reused %d, bounded %d)", d.Reused, d.Bounded)
	}
	if d.Bounded != res.Stats.Glue.Bounded || d.Reused != res.Stats.Glue.Reused {
		t.Errorf("DAG totals %d/%d, Stats %d/%d", d.Reused, d.Bounded, res.Stats.Glue.Reused, res.Stats.Glue.Bounded)
	}
	cited := 0
	for _, n := range d.sorted() {
		if n.BoundedBy == "" {
			continue
		}
		cited++
		if n.Cost <= n.BoundedByCost || d.Plans[n.BoundedBy] == nil {
			t.Errorf("%s bounded at %.1f by %s at %.1f", n.FP, n.Cost, n.BoundedBy, n.BoundedByCost)
		}
		if out := d.WhyNot(n.FP); !strings.Contains(out, "were not built: base cost") ||
			!strings.Contains(out, "already above cheapest satisfying") || !strings.Contains(out, n.BoundedBy) {
			t.Errorf("WhyNot(%s) does not cite the bound:\n%s", n.FP, out)
		}
	}
	if cited == 0 {
		t.Error("no plan carries a bound citation")
	}
	if out := d.WhyNot("0000000000000000"); !strings.Contains(out, "candidate(s) unveneered") {
		t.Errorf("never-derived answer does not mention the bound:\n%s", out)
	}
}
