package main

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"stars"
	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/sqlparse"
	"stars/internal/workload"
	"stars/internal/xform"
)

// checkBudget bounds each of the sampled reference checks; checkMin is how
// many of them run even when the budget is already spent.
const (
	checkBudget = 800 * time.Millisecond
	checkMin    = 3
)

// exhaustiveSlack is how far above internal/xform's exhaustive best a served
// cost may lie. At the seed commit one template of serve_small's universe
// (T8, T9, T10 with a predicate on T9.ID) is served a plan 1.00131 times the
// exhaustive best; every other one is at or below it.
const exhaustiveSlack = 1.002

// budgeted calls fn on items in seeded order until the budget is spent (but
// at least checkMin times).
func budgeted[T any](rng *rand.Rand, items []T, fn func(T)) {
	start := time.Now()
	for n, i := range rng.Perm(len(items)) {
		if n >= checkMin && time.Since(start) > checkBudget {
			return
		}
		fn(items[i])
	}
}

// check verifies the served operations against references that do not come
// from the optimizer under test, counting every miss into res, and returns
// the plan costs of the quality prefix.
//
//   - identical SQL has one fingerprint within the run, and the same one at
//     Parallelism 2 (sampled);
//   - for all-local templates of at most three quantifiers and no ORDER BY
//     (which internal/xform does not price), sampled, the served cost is
//     within exhaustiveSlack of xform's exhaustive best — four quantifiers take xform
//     7.6 s a template at the seed commit, which no run has time for;
//   - executed rows equal workload.Oracle's over the same data (sampled).
func check(res *result, name string, cat *catalog.Catalog, list []request, ops []op, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	at := func(o op) request { return list[o.idx%len(list)] }

	fps := map[string]string{}          // SQL -> fingerprint
	served := map[*template]op{}        // first good operation per template
	executed := map[string][][]string{} // SQL -> rows
	var costs []float64
	covered := map[int]bool{}
	for _, o := range ops {
		if o.err != nil {
			continue
		}
		r := at(o)
		if fp, seen := fps[r.sql]; seen && fp != o.fp {
			res.fail("op %d: fingerprint %s, earlier %s for the same SQL", o.idx, o.fp, fp)
		}
		fps[r.sql] = o.fp
		if _, seen := served[r.tmpl]; !seen {
			served[r.tmpl] = o
		}
		if o.rows != nil {
			executed[r.sql] = o.rows
		}
		if o.idx < quality(name) && !covered[o.idx] {
			covered[o.idx] = true
			costs = append(costs, o.cost)
		}
	}
	if len(costs) < quality(name) {
		res.fail("only %d of the %d quality-prefix operations completed", len(costs), quality(name))
	}

	var sqls []string
	for sql := range fps {
		sqls = append(sqls, sql)
	}
	sort.Strings(sqls)
	budgeted(rng, sqls, func(sql string) {
		g, err := stars.ParseSQL(sql, cat)
		if err != nil {
			res.fail("parallelism check: %v", err)
			return
		}
		r, err := stars.Optimize(cat, g, stars.Options{Parallelism: 2})
		if err != nil {
			res.fail("parallelism check: %v", err)
			return
		}
		if fp := r.Best.Fingerprint(); fp != fps[sql] {
			res.fail("fingerprint %s at Parallelism 2, %s served: %s", fp, fps[sql], sql)
		}
		r.Release()
	})

	var small []op
	for t, o := range served {
		if t.local && t.quants <= 3 && t.tail == "" {
			small = append(small, o)
		}
	}
	sort.Slice(small, func(a, b int) bool { return small[a].idx < small[b].idx })
	budgeted(rng, small, func(o op) {
		g, err := sqlparse.Parse(at(o).sql, cat)
		if err != nil {
			res.fail("exhaustive check: %v", err)
			return
		}
		xr, err := xform.New(cat, g, cost.DefaultWeights).Optimize()
		if err != nil || xr.Truncated {
			res.fail("exhaustive check: truncated=%v err=%v: %s", xr != nil && xr.Truncated, err, at(o).sql)
			return
		}
		if best := xr.Best.Props.Cost.Total; o.cost > best*exhaustiveSlack {
			res.fail("cost %.3f served, exhaustive best %.3f: %s", o.cost, best, at(o).sql)
		}
	})

	if len(executed) > 0 {
		sqls = sqls[:0]
		for sql := range executed {
			sqls = append(sqls, sql)
		}
		sort.Strings(sqls)
		cluster := referenceCluster(cat)
		budgeted(rng, sqls, func(sql string) {
			g, err := sqlparse.Parse(sql, cat)
			if err != nil {
				res.fail("row check: %v", err)
				return
			}
			got := make([]string, 0, len(executed[sql]))
			for _, row := range executed[sql] {
				got = append(got, strings.Join(row, "|"))
			}
			sort.Strings(got)
			if want := workload.Oracle(cluster, cat, g); !slices.Equal(got, want) {
				res.fail("%d rows executed, %d expected: %s", len(got), len(want), sql)
			}
		})
	}
	return costs
}
