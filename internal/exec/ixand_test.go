package exec_test

import (
	"reflect"
	"strings"
	"testing"

	"stars/internal/catalog"
	"stars/internal/datum"
	"stars/internal/exec"
	"stars/internal/expr"
	"stars/internal/opt"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/storage"
	"stars/internal/workload"
)

// ixandCatalog: a wide table with two single-column indexes, each matching
// one moderately selective predicate; neither index alone is selective
// enough to beat the scan, but their intersection is.
func ixandCatalog() *catalog.Catalog {
	cat := catalog.New()
	cat.AddTable(&catalog.Table{
		Name: "T",
		Cols: []*catalog.Column{
			{Name: "ID", Type: datum.KindInt, NDV: 200000},
			{Name: "A", Type: datum.KindInt, NDV: 20},
			{Name: "B", Type: datum.KindInt, NDV: 20},
			{Name: "PAD", Type: datum.KindString, NDV: 200000, Width: 200},
		},
		Card: 200000,
		Paths: []*catalog.AccessPath{
			{Name: "T_A", Table: "T", Cols: []string{"A"}},
			{Name: "T_B", Table: "T", Cols: []string{"B"}},
		},
	})
	if err := cat.Validate(); err != nil {
		panic(err)
	}
	return cat
}

func ixandQuery() *query.Graph {
	g := query.MustNew(
		[]query.Quantifier{{Name: "T", Table: "T"}},
		&expr.Cmp{Op: expr.EQ, L: expr.C("T", "A"), R: &expr.Const{Val: datum.NewInt(3)}},
		&expr.Cmp{Op: expr.EQ, L: expr.C("T", "B"), R: &expr.Const{Val: datum.NewInt(7)}},
	)
	g.Select = []expr.ColID{{Table: "T", Col: "ID"}, {Table: "T", Col: "PAD"}}
	return g
}

func TestIndexAndingWinsAndExecutes(t *testing.T) {
	cat := ixandCatalog()
	g := ixandQuery()
	res, err := opt.New(cat, opt.Options{}).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain(res.Best)
	if !strings.Contains(out, "IXAND") {
		t.Fatalf("expected index-ANDing to win:\n%s", out)
	}
	// Both predicates are applied by the probes, none left to the GET.
	if !res.Best.Props.Preds().Contains(g.Preds.Slice()[0]) ||
		!res.Best.Props.Preds().Contains(g.Preds.Slice()[1]) {
		t.Fatalf("predicates dropped:\n%s", out)
	}

	// Execute on smaller data of the same shape and compare to the oracle.
	small := ixandCatalog()
	small.Table("T").Card = 20000
	cluster := storage.NewCluster()
	workload.Populate(cluster, small, 17)
	er, err := exec.NewRuntime(cluster, cat).Run(res.Best)
	if err != nil {
		t.Fatalf("execute:\n%s\nerror: %v", out, err)
	}
	want := workload.Oracle(cluster, cat, g)
	got := workload.RenderRows(er.Schema, er.Rows, g.SelectCols(cat))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("IXAND result mismatch: %d vs %d rows\n%s", len(got), len(want), out)
	}
	if len(want) == 0 {
		t.Fatal("oracle empty; the scenario is vacuous")
	}
}

// TestIndexAndingNotUsedWhenOneIndexSuffices: with one highly selective
// predicate, the single-index plan must win (no pointless second probe).
func TestIndexAndingNotUsedWhenOneIndexSuffices(t *testing.T) {
	cat := ixandCatalog()
	cat.Table("T").Column("A").NDV = 100000 // A alone is selective
	g := ixandQuery()
	res, err := opt.New(cat, opt.Options{}).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.Explain(res.Best), "IXAND") {
		t.Fatalf("IXAND should lose to the single selective index:\n%s", plan.Explain(res.Best))
	}
}
