package experiments

import (
	"fmt"

	"stars/internal/catalog"
	"stars/internal/datum"
	"stars/internal/expr"
	"stars/internal/opt"
	"stars/internal/plan"
	"stars/internal/query"

	"stars/ext/bloom"
	"stars/ext/semijoin"
)

func init() {
	register("E13", "[MACK 86] — semijoin vs. Bloomjoin: value lists grow, filters don't", e13)
}

// e13 sweeps the filtered build side's size and compares the two filtration
// extensions (both added purely as rule text + registered functions): the
// semijoin ships an exact value list that grows with the build side, the
// Bloomjoin a fixed-size filter with a small false-positive surcharge —
// exactly the trade-off behind [MACK 86]'s finding that Bloomjoins often
// beat semijoins.
func e13() (*Report, error) {
	lo, hi := 0.0, 1000.0
	mk := func(buildRows int64) (*catalog.Catalog, *query.Graph, error) {
		cat := catalog.New()
		cat.Sites = []string{"LA", "NY"}
		cat.QuerySite = "LA"
		cat.AddTable(&catalog.Table{
			Name: "DEPT", Site: "LA",
			Cols: []*catalog.Column{
				{Name: "DNO", Type: datum.KindInt, NDV: 20000},
				{Name: "PROFILE", Type: datum.KindString, NDV: 900, Width: 200},
				{Name: "BUDGET", Type: datum.KindFloat, NDV: 1000, Lo: &lo, Hi: &hi},
			},
			Card: 20000,
		})
		cat.AddTable(&catalog.Table{
			Name: "EMP", Site: "NY",
			Cols: []*catalog.Column{
				{Name: "DNO", Type: datum.KindInt, NDV: 20000},
				{Name: "NAME", Type: datum.KindString, NDV: 100000, Width: 24},
			},
			Card: 200000,
		})
		if err := cat.Validate(); err != nil {
			return nil, nil, err
		}
		// BUDGET < x selects buildRows of the 20000 departments.
		threshold := float64(buildRows) / 20000 * 1000
		g := query.MustNew(
			[]query.Quantifier{{Name: "DEPT", Table: "DEPT"}, {Name: "EMP", Table: "EMP"}},
			&expr.Cmp{Op: expr.EQ, L: expr.C("DEPT", "DNO"), R: expr.C("EMP", "DNO")},
			&expr.Cmp{Op: expr.LT, L: expr.C("DEPT", "BUDGET"), R: &expr.Const{Val: datum.NewFloat(threshold)}},
		)
		g.Select = []expr.ColID{
			{Table: "DEPT", Col: "DNO"}, {Table: "DEPT", Col: "PROFILE"}, {Table: "EMP", Col: "NAME"},
		}
		return cat, g, nil
	}

	rep := &Report{
		Claim: "A semijoin ships the build side's exact join values (size grows with the build); a Bloomjoin ships a fixed-size filter that admits some false positives. Small builds favour the semijoin, large builds the Bloomjoin — the [MACK 86] trade-off.",
		Headers: []string{"filtered DEPT rows", "baseline cost", "semijoin cost", "bloom cost",
			"cheaper reducer"},
	}
	var semiWinsSmall, bloomWinsLarge bool
	sweep := []int64{200, 1000, 5000, 10000}
	for _, buildRows := range sweep {
		cat, g, err := mk(buildRows)
		if err != nil {
			return nil, err
		}
		base, err := opt.New(cat, opt.Options{}).Optimize(g)
		if err != nil {
			return nil, err
		}
		semiOpts := opt.Options{}
		if err := semijoin.Install(&semiOpts); err != nil {
			return nil, err
		}
		semi, err := opt.New(cat, semiOpts).Optimize(g)
		if err != nil {
			return nil, err
		}
		bloomOpts := opt.Options{}
		if err := bloom.Install(&bloomOpts); err != nil {
			return nil, err
		}
		blm, err := opt.New(cat, bloomOpts).Optimize(g)
		if err != nil {
			return nil, err
		}
		sc := semi.Best.Props.Cost.Total
		bc := blm.Best.Props.Cost.Total
		winner := "semijoin"
		if bc < sc*0.9999 {
			winner = "bloom"
		} else if sc < bc*0.9999 {
			winner = "semijoin"
		} else {
			winner = "tie"
		}
		if buildRows == sweep[0] && sc < bc {
			semiWinsSmall = true
		}
		if buildRows == sweep[len(sweep)-1] && bc < sc {
			bloomWinsLarge = true
		}
		if !hasOp(semi.Best, semijoin.OpSemi) && !hasOp(blm.Best, bloom.OpBloom) &&
			buildRows <= 1000 {
			rep.Notes = append(rep.Notes,
				fmt.Sprintf("build=%d: neither reducer adopted — unexpected", buildRows))
		}
		rep.Rows = append(rep.Rows, []string{
			fi(buildRows), f1(base.Best.Props.Cost.Total), f1(sc), f1(bc), winner,
		})
	}
	_ = plan.Explain
	rep.OK = semiWinsSmall && bloomWinsLarge
	rep.Summary = "the exact value list wins while it is smaller than the filter, and the fixed-size Bloom filter wins once it isn't — [MACK 86]'s reasoning reproduces with both reducers living entirely in extension packages"
	if !rep.OK {
		rep.Summary = "the semijoin/Bloomjoin crossover did not reproduce"
	}
	return rep, nil
}
