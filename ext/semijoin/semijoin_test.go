package semijoin_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"stars"
	"stars/ext/semijoin"
	"stars/internal/datum"
	"stars/internal/plan"
	"stars/internal/star"
	"stars/internal/workload"
)

// shipCatalog mirrors ext/bloom's scenario: a large remote EMP, a selective
// local DEPT with wide output columns, and a selective join predicate.
func shipCatalog() *stars.Catalog {
	lo, hi := 0.0, 1000.0
	cat := stars.NewCatalog()
	cat.Sites = []string{"LA", "NY"}
	cat.QuerySite = "LA"
	cat.AddTable(&stars.Table{
		Name: "DEPT", Site: "LA",
		Cols: []*stars.Column{
			{Name: "DNO", Type: datum.KindInt, NDV: 1000},
			{Name: "MGRNAME", Type: datum.KindString, NDV: 900, Width: 200},
			{Name: "BUDGET", Type: datum.KindFloat, NDV: 1000, Lo: &lo, Hi: &hi},
		},
		Card: 1000,
	})
	cat.AddTable(&stars.Table{
		Name: "EMP", Site: "NY",
		Cols: []*stars.Column{
			{Name: "DNO", Type: datum.KindInt, NDV: 1000},
			{Name: "NAME", Type: datum.KindString, NDV: 100000, Width: 24},
		},
		Card: 100000,
	})
	if err := cat.Validate(); err != nil {
		panic(err)
	}
	return cat
}

const shipSQL = "SELECT DEPT.DNO, DEPT.MGRNAME, EMP.NAME FROM DEPT, EMP " +
	"WHERE DEPT.DNO = EMP.DNO AND DEPT.BUDGET < 150"

func TestSemijoinAlternativeWins(t *testing.T) {
	cat := shipCatalog()
	g, err := stars.ParseSQL(shipSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	base, err := stars.Optimize(cat, g, stars.Options{})
	if err != nil {
		t.Fatal(err)
	}
	withOpts := stars.Options{}
	if err := semijoin.Install(&withOpts); err != nil {
		t.Fatal(err)
	}
	with, err := stars.Optimize(cat, g, withOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(with.Best), "SEMIJOIN") {
		t.Fatalf("semijoin not picked:\n%s", plan.Explain(with.Best))
	}
	if with.Best.Props.Cost.Total >= base.Best.Props.Cost.Total {
		t.Fatalf("semijoin plan (%.1f) not cheaper than baseline (%.1f)",
			with.Best.Props.Cost.Total, base.Best.Props.Cost.Total)
	}
}

func TestSemijoinExecutesCorrectly(t *testing.T) {
	cat := shipCatalog()
	g, err := stars.ParseSQL(shipSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	opts := stars.Options{}
	if err := semijoin.Install(&opts); err != nil {
		t.Fatal(err)
	}
	res, err := stars.Optimize(cat, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(res.Best), "SEMIJOIN") {
		t.Fatalf("expected a SEMIJOIN plan:\n%s", plan.Explain(res.Best))
	}
	small := shipCatalog()
	small.Table("DEPT").Card = 200
	small.Table("EMP").Card = 5000
	cluster := stars.NewCluster("LA", "NY")
	stars.Populate(cluster, small, 13)

	rt := stars.NewRuntime(cluster, cat)
	semijoin.Register(rt)
	er, err := rt.Run(res.Best)
	if err != nil {
		t.Fatalf("execute:\n%s\nerror: %v", plan.Explain(res.Best), err)
	}
	plain, err := stars.Optimize(cat, g, stars.Options{})
	if err != nil {
		t.Fatal(err)
	}
	er2, err := stars.NewRuntime(cluster, cat).Run(plain.Best)
	if err != nil {
		t.Fatal(err)
	}
	sel := g.SelectCols(cat)
	if !reflect.DeepEqual(render(er, sel), render(er2, sel)) {
		t.Fatalf("semijoin result differs (%d vs %d rows)", len(er.Rows), len(er2.Rows))
	}
	if er.Stats.BytesShipped >= er2.Stats.BytesShipped {
		t.Errorf("semijoin shipped %d bytes, baseline %d", er.Stats.BytesShipped, er2.Stats.BytesShipped)
	}
	// The semijoin is exact: the value list it shipped is tiny, and the
	// reduced EMP stream matches the join's contributing rows exactly.
	t.Logf("semijoin bytes=%d baseline bytes=%d rows=%d",
		er.Stats.BytesShipped, er2.Stats.BytesShipped, len(er.Rows))
}

func render(r *stars.ExecResult, sel []stars.ColID) []string {
	idx := map[stars.ColID]int{}
	for i, c := range r.Schema {
		idx[c] = i
	}
	out := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		s := ""
		for i, c := range sel {
			if i > 0 {
				s += "|"
			}
			s += row[idx[c]].String()
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestForkedEnginesShareRegistries optimizes a star join under the semijoin
// repertoire — whose Prepare fills the engine's builder and signature
// registries, plus a helper here so all three are extension-populated —
// serially and at a fan-out of 8. The per-subset engines share those
// registries instead of copying them, so under -race this proves nothing
// writes them during enumeration, and the plan and counters must not move.
func TestForkedEnginesShareRegistries(t *testing.T) {
	cat := workload.StarCatalog(5, 100000, 500)
	run := func(par int) *stars.Result {
		t.Helper()
		opts := stars.Options{Parallelism: par}
		if err := semijoin.Install(&opts); err != nil {
			t.Fatal(err)
		}
		install := opts.Prepare
		opts.Prepare = func(en *star.Engine) {
			install(en)
			en.Register(star.Signature{Name: "always", ArityUnknown: true}, func(*star.Engine, []star.Value) (star.Value, error) {
				return star.BoolValue(true), nil
			})
		}
		res, err := stars.Optimize(cat, workload.StarQuery(5), opts)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		res.Stats.Elapsed = 0
		return res
	}
	serial, parallel := run(1), run(8)
	if s, p := serial.Best.Fingerprint(), parallel.Best.Fingerprint(); s != p {
		t.Errorf("best plan: serial %s, parallel %s", s, p)
	}
	if !reflect.DeepEqual(serial.Stats, parallel.Stats) {
		t.Errorf("counters differ:\nserial   %+v\nparallel %+v", serial.Stats, parallel.Stats)
	}
	// A local star never retains a semijoin plan, so the builder having run
	// in the forked engines shows in the effort counters instead.
	base, err := stars.Optimize(cat, workload.StarQuery(5), stars.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, without := parallel.Stats.Star.PlansBuilt, base.Stats.Star.PlansBuilt; got <= without {
		t.Errorf("%d plans built with SEMIJOIN installed, %d without: the extension builder never ran", got, without)
	}
}
