package experiments

import (
	"fmt"
	"strings"

	"stars/internal/catalog"
	"stars/internal/datum"
	"stars/internal/expr"
	"stars/internal/opt"
	"stars/internal/plan"
	"stars/internal/query"
)

func init() {
	register("E6", "Section 4.5.3 — dynamic index creation pays for selective join predicates", e6)
	register("E7", "Section 4.5.2 — forcing projection pays for narrow/selective inners", e7)
}

// twoTableCatalog builds OUTERT (card outerCard, with a BUDGET column for a
// controllable filter) and INNERT (card innerCard, join column J with the
// given NDV, plus a PAD column of padWidth bytes).
func twoTableCatalog(outerCard, innerCard, innerNDV int64, padWidth int) *catalog.Catalog {
	lo, hi := 0.0, 1000.0
	cat := catalog.New()
	cat.AddTable(&catalog.Table{
		Name: "OUTERT",
		Cols: []*catalog.Column{
			{Name: "K", Type: datum.KindInt, NDV: innerNDV},
			{Name: "BUDGET", Type: datum.KindFloat, NDV: 1000, Lo: &lo, Hi: &hi},
		},
		Card: outerCard,
	})
	cat.AddTable(&catalog.Table{
		Name: "INNERT",
		Cols: []*catalog.Column{
			{Name: "J", Type: datum.KindInt, NDV: innerNDV},
			{Name: "VAL", Type: datum.KindInt, NDV: innerCard},
			{Name: "PAD", Type: datum.KindString, NDV: innerCard, Width: padWidth},
		},
		Card: innerCard,
	})
	if err := cat.Validate(); err != nil {
		panic(err)
	}
	return cat
}

// twoTableQuery joins OUTERT.K = INNERT.J with an outer filter of the given
// selectivity (BUDGET < sel*1000), projecting the join column and VAL (PAD
// stays unprojected).
func twoTableQuery(budget float64) *query.Graph {
	g := query.MustNew(
		[]query.Quantifier{
			{Name: "OUTERT", Table: "OUTERT"},
			{Name: "INNERT", Table: "INNERT"},
		},
		&expr.Cmp{Op: expr.EQ, L: expr.C("OUTERT", "K"), R: expr.C("INNERT", "J")},
		&expr.Cmp{Op: expr.LT, L: expr.C("OUTERT", "BUDGET"), R: &expr.Const{Val: datum.NewFloat(budget)}},
	)
	g.Select = []expr.ColID{
		{Table: "OUTERT", Col: "K"},
		{Table: "INNERT", Col: "VAL"},
	}
	return g
}

func hasOp(p *plan.Node, op plan.Op) bool {
	found := false
	p.Walk(func(n *plan.Node) {
		if n.Op == op {
			found = true
		}
	})
	return found
}

func methodOf(p *plan.Node) string {
	m := "?"
	p.Walk(func(n *plan.Node) {
		if n.Op == plan.OpJoin && m == "?" {
			m = n.Flavor
		}
	})
	return m
}

// e6 sweeps join-predicate selectivity (via the inner join column's NDV) on
// an R*-era repertoire (NL + MG) with and without the dynamic-index
// alternative; the inner has no user-created index.
func e6() (*Report, error) {
	rep := &Report{
		Claim: "Creating an index on the inner dynamically sounds more expensive than sorting for a merge join, but it saves sorting the outer and will pay for itself when the join predicate is selective [MACK 86]. Expect a crossover: dynamic index wins at high selectivity, the merge join at low.",
		Headers: []string{"inner NDV(J)", "sel(join)", "cost NL+MG", "cost +dynamic-ix",
			"winner plan", "uses BUILDINDEX"},
	}
	baseRules, err := jmethVariant(altNL, altMG)
	if err != nil {
		return nil, err
	}
	dynRules, err := jmethVariant(altNL, altMG, altDynIx)
	if err != nil {
		return nil, err
	}
	// A big, unsorted outer: the merge join must sort it, which is what the
	// dynamic index saves (the paper's own argument).
	g := twoTableQuery(990)
	var winsHi, winsLo bool
	for _, ndv := range []int64{10, 100, 1000, 10000, 100000} {
		cat := twoTableCatalog(100000, 100000, ndv, 24)
		base, err := opt.New(cat, opt.Options{Rules: baseRules}).Optimize(g)
		if err != nil {
			return nil, err
		}
		dyn, err := opt.New(cat, opt.Options{Rules: dynRules}).Optimize(g)
		if err != nil {
			return nil, err
		}
		usesIx := hasOp(dyn.Best, plan.OpBuildIndex)
		if usesIx && dyn.Best.Props.Cost.Total < base.Best.Props.Cost.Total*0.999 {
			winsHi = winsHi || ndv >= 10000
		}
		if !usesIx {
			winsLo = winsLo || ndv <= 100
		}
		rep.Rows = append(rep.Rows, []string{
			fi(ndv), fmt.Sprintf("%.1e", 1/float64(ndv)),
			f1(base.Best.Props.Cost.Total), f1(dyn.Best.Props.Cost.Total),
			methodOf(dyn.Best), fmt.Sprintf("%v", usesIx),
		})
	}
	rep.OK = winsHi && winsLo
	rep.Summary = "the dynamic-index alternative wins exactly where the join predicate is selective and loses to the merge join where it is not — the [MACK 86] crossover reproduces"
	if !rep.OK {
		rep.Summary = "the expected selectivity crossover did not appear"
	}
	return rep, nil
}

// e7 sweeps the projected-column fraction of a wide inner on an NL-only
// repertoire with and without the forced-projection alternative.
func e7() (*Report, error) {
	rep := &Report{
		Claim: "For nested-loop joins it may be advantageous to materialize the selected and projected inner and re-access it, whenever a very small percentage of the inner table results — selective predicates and/or few referenced columns.",
		Headers: []string{"inner PAD width", "projected fraction", "cost NL only", "cost +forced projection",
			"improvement", "uses STORE"},
	}
	baseRules, err := jmethVariant(altNL)
	if err != nil {
		return nil, err
	}
	projRules, err := jmethVariant(altNL, altProj)
	if err != nil {
		return nil, err
	}
	g := twoTableQuery(50)
	var bigWin, fairTie bool
	for _, pad := range []int{8, 64, 320, 1600} {
		cat := twoTableCatalog(500, 100000, 1000, pad)
		inner := cat.Table("INNERT")
		frac := float64(8+8) / float64(inner.RowWidth())
		base, err := opt.New(cat, opt.Options{Rules: baseRules}).Optimize(g)
		if err != nil {
			return nil, err
		}
		proj, err := opt.New(cat, opt.Options{Rules: projRules}).Optimize(g)
		if err != nil {
			return nil, err
		}
		imp := base.Best.Props.Cost.Total / proj.Best.Props.Cost.Total
		usesStore := hasOp(proj.Best, plan.OpStore)
		if usesStore && imp > 2 {
			bigWin = true
		}
		if !usesStore && imp < 1.01 && pad <= 64 {
			fairTie = true
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%dB", pad), fmt.Sprintf("%.3f", frac),
			f1(base.Best.Props.Cost.Total), f1(proj.Best.Props.Cost.Total),
			fmt.Sprintf("%.1fx", imp), fmt.Sprintf("%v", usesStore),
		})
	}
	rep.Notes = append(rep.Notes,
		"the repertoire here is NL-only, the setting Section 4.5.2 targets; with merge/hash joins present the materialized temp roughly ties them",
		"the deferred-expensive-predicate case of the same claim is not driven here: this front end applies single-table predicates at access time")
	rep.OK = bigWin && fairTie
	rep.Summary = "forcing projection wins by a widening factor as the unprojected width grows, and the condition of applicability correctly declines to fire when projection saves nothing"
	if !rep.OK {
		rep.Summary = "the forced-projection profit pattern did not reproduce"
	}
	_ = strings.TrimSpace
	return rep, nil
}
