package experiments

import (
	"strings"

	"stars/internal/catalog"
	"stars/internal/datum"
	"stars/internal/expr"
	"stars/internal/opt"
	"stars/internal/plan"
	"stars/internal/query"
)

func init() {
	register("E14", "§4 omitted STARs — ANDing two indexes by TID intersection", e14)
}

// e14 sweeps the selectivity of two indexed predicates on a wide table and
// reports which access strategy wins: the sequential scan (unselective
// predicates), the TID intersection of both indexes (each predicate
// moderately selective, the conjunction sharp), or a single index (one
// predicate selective enough alone).
func e14() (*Report, error) {
	mk := func(ndv int64) (*catalog.Catalog, *query.Graph) {
		cat := catalog.New()
		cat.AddTable(&catalog.Table{
			Name: "T",
			Cols: []*catalog.Column{
				{Name: "ID", Type: datum.KindInt, NDV: 200000},
				{Name: "A", Type: datum.KindInt, NDV: ndv},
				{Name: "B", Type: datum.KindInt, NDV: ndv},
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
		g := query.MustNew(
			[]query.Quantifier{{Name: "T", Table: "T"}},
			&expr.Cmp{Op: expr.EQ, L: expr.C("T", "A"), R: &expr.Const{Val: datum.NewInt(1)}},
			&expr.Cmp{Op: expr.EQ, L: expr.C("T", "B"), R: &expr.Const{Val: datum.NewInt(1)}},
		)
		g.Select = []expr.ColID{{Table: "T", Col: "ID"}, {Table: "T", Col: "PAD"}}
		return cat, g
	}
	kind := func(p *plan.Node) string {
		out := plan.Explain(p)
		switch {
		case strings.Contains(out, "IXAND"):
			return "index ANDing"
		case strings.Contains(out, "ACCESS(index)"):
			return "single index"
		default:
			return "sequential scan"
		}
	}
	rep := &Report{
		Claim:   "ANDing multiple indexes for a single table (a Section 4 omitted STAR, included in this repertoire): intersecting two probes' TIDs pays when each predicate is only moderately selective but their conjunction is sharp; very unselective predicates favour the scan and a single sharp predicate needs no second probe.",
		Headers: []string{"NDV(A)=NDV(B)", "sel each", "conj sel", "chosen access", "est cost"},
	}
	var sawScan, sawAnd bool
	for _, ndv := range []int64{2, 5, 20, 100, 2000} {
		cat, g := mk(ndv)
		res, err := opt.New(cat, opt.Options{}).Optimize(g)
		if err != nil {
			return nil, err
		}
		k := kind(res.Best)
		switch k {
		case "sequential scan":
			if ndv <= 5 {
				sawScan = true
			}
		case "index ANDing":
			sawAnd = true
		}
		rep.Rows = append(rep.Rows, []string{
			fi(ndv),
			f1(100 / float64(ndv)), f1(100 / float64(ndv*ndv)),
			k, f1(res.Best.Props.Cost.Total),
		})
	}
	rep.Notes = append(rep.Notes,
		"selectivities are shown as percentages; OR-ing of indexes is the dual strategy and would follow the same pattern (the front end produces conjunctive predicates only)")
	rep.OK = sawScan && sawAnd
	rep.Summary = "the access choice moves from scan to TID intersection as the predicates sharpen — the omitted STAR slots into the repertoire and wins exactly in its band"
	if !rep.OK {
		rep.Summary = "the expected scan/intersection bands did not appear"
	}
	return rep, nil
}
