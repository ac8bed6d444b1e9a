package exec_test

import (
	"reflect"
	"testing"

	"stars/internal/datum"
	"stars/internal/exec"
	"stars/internal/expr"
	"stars/internal/opt"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/storage"
	"stars/internal/workload"
)

func TestOrderByExecutesSorted(t *testing.T) {
	cat := workload.EmpDept()
	cluster := storage.NewCluster()
	workload.PopulateEmpDept(cluster, cat, 1)
	g := workload.Figure1Query()
	g.OrderBy = []expr.ColID{{Table: "EMP", Col: "NAME"}}
	res, err := opt.New(cat, opt.Options{}).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	er, err := exec.NewRuntime(cluster, cat).Run(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	pos := -1
	for i, c := range er.Schema {
		if c == (expr.ColID{Table: "EMP", Col: "NAME"}) {
			pos = i
		}
	}
	if pos < 0 {
		t.Fatal("NAME not in output schema")
	}
	for i := 1; i < len(er.Rows); i++ {
		if er.Rows[i][pos].Less(er.Rows[i-1][pos]) {
			t.Fatalf("row %d out of order", i)
		}
	}
}

func TestDistributedExecutionShipsAndAgrees(t *testing.T) {
	cat := workload.EmpDept()
	cat.Sites = []string{"HQ", "NY", "SJ"}
	cat.QuerySite = "HQ"
	cat.Table("DEPT").Site = "NY"
	cat.Table("EMP").Site = "SJ"
	cluster := storage.NewCluster("HQ", "NY", "SJ")
	workload.PopulateEmpDept(cluster, cat, 2)
	g := workload.Figure1Query()
	res, err := opt.New(cat, opt.Options{}).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	er, err := exec.NewRuntime(cluster, cat).Run(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if er.Stats.Messages == 0 || er.Stats.BytesShipped == 0 {
		t.Error("distributed plan must ship")
	}
	want := workload.Oracle(cluster, cat, g)
	got := workload.RenderRows(er.Schema, er.Rows, g.SelectCols(cat))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("distributed result mismatch: %d vs %d rows", len(got), len(want))
	}
}

func TestIndexRangeProbe(t *testing.T) {
	// A range predicate on an indexed column must execute through
	// ScanRange and agree with the oracle.
	cat := workload.ChainCatalog(1, 2000)
	cluster := storage.NewCluster()
	workload.Populate(cluster, cat, 6)
	g := query.MustNew(
		[]query.Quantifier{{Name: "T1", Table: "T1"}},
		&expr.Cmp{Op: expr.LT, L: expr.C("T1", "J"), R: &expr.Const{Val: datum.NewInt(20)}},
	)
	g.Select = []expr.ColID{{Table: "T1", Col: "ID"}, {Table: "T1", Col: "J"}}
	res, err := opt.New(cat, opt.Options{}).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	er, err := exec.NewRuntime(cluster, cat).Run(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	want := workload.Oracle(cluster, cat, g)
	got := workload.RenderRows(er.Schema, er.Rows, g.SelectCols(cat))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("range query mismatch: %d vs %d", len(got), len(want))
	}
}

func TestNullJoinKeysNeverMatch(t *testing.T) {
	// Hand-built data with NULL join keys: no join method may match them.
	cat := workload.ChainCatalog(2, 4, 4)
	cluster := storage.NewCluster()
	st := cluster.Store("")
	t1 := st.CreateTable("T1", []string{"ID", "J", "K", "PAD"}, 32)
	t2 := st.CreateTable("T2", []string{"ID", "J", "K", "PAD"}, 32)
	pad := datum.NewString("p")
	t1.Heap.Insert(datum.Row{datum.NewInt(1), datum.NewInt(0), datum.Null, pad}, nil)
	t1.Heap.Insert(datum.Row{datum.NewInt(2), datum.NewInt(0), datum.NewInt(7), pad}, nil)
	t2.Heap.Insert(datum.Row{datum.NewInt(10), datum.Null, datum.NewInt(0), pad}, nil)
	t2.Heap.Insert(datum.Row{datum.NewInt(11), datum.NewInt(7), datum.NewInt(0), pad}, nil)

	g := workload.ChainQuery(2)
	// Run every retained alternative: NULL semantics must agree across
	// NL, MG, and HA.
	res, err := opt.New(cat, opt.Options{KeepAllGlue: true}).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	want := workload.Oracle(cluster, cat, g)
	if len(want) != 1 {
		t.Fatalf("oracle = %v (only 2–11 matches)", want)
	}
	rt := exec.NewRuntime(cluster, cat)
	for _, p := range res.Table.Entry(g.TableSet()) {
		er, err := rt.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Flavor, err)
		}
		got := workload.RenderRows(er.Schema, er.Rows, g.SelectCols(cat))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("NULL handling differs under %s:\n%s", p.Flavor, plan.Explain(p))
		}
	}
}

func TestRuntimeRejectsUnknownOp(t *testing.T) {
	cat := workload.EmpDept()
	cluster := storage.NewCluster()
	rt := exec.NewRuntime(cluster, cat)
	n := &plan.Node{Op: plan.Op("MYSTERY")}
	if _, err := rt.Run(n); err == nil {
		t.Fatal("unknown op must fail")
	}
	if rt.Registered(plan.OpJoin) == false {
		t.Error("built-ins registered")
	}
}

func TestMissingDataFails(t *testing.T) {
	cat := workload.EmpDept()
	cluster := storage.NewCluster() // no data loaded
	res, err := opt.New(cat, opt.Options{}).Optimize(workload.Figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.NewRuntime(cluster, cat).Run(res.Best); err == nil {
		t.Fatal("executing without stored data must fail cleanly")
	}
}

func TestRepeatedRunsAreIndependent(t *testing.T) {
	cat := workload.EmpDept()
	cluster := storage.NewCluster()
	workload.PopulateEmpDept(cluster, cat, 1)
	res, err := opt.New(cat, opt.Options{}).Optimize(workload.Figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	rt := exec.NewRuntime(cluster, cat)
	a, err := rt.Run(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Run(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.RowsOut != b.Stats.RowsOut {
		t.Error("reruns must agree")
	}
	if a.Stats.IO.TotalPages() != b.Stats.IO.TotalPages() {
		t.Errorf("counters must reset between runs: %d vs %d",
			a.Stats.IO.TotalPages(), b.Stats.IO.TotalPages())
	}
}
