// Package workload supplies deterministic synthetic schemas, data, and
// query generators for the examples, tests, and the experiment harness, plus
// a brute-force reference evaluator ("oracle") that tests compare executed
// plans against.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"stars/internal/catalog"
	"stars/internal/datum"
	"stars/internal/expr"
	"stars/internal/query"
	"stars/internal/storage"
)

// EmpDept returns the paper's Section 2.1 catalog: DEPT(DNO, MGR, BUDGET)
// and EMP(ENO, DNO, NAME, ADDRESS, SAL) with the index on EMP.DNO Figure 1
// uses.
func EmpDept() *catalog.Catalog {
	cat := catalog.New()
	cat.AddTable(&catalog.Table{
		Name: "DEPT",
		Cols: []*catalog.Column{
			{Name: "DNO", Type: datum.KindInt, NDV: 100},
			{Name: "MGR", Type: datum.KindString, NDV: 90, Width: 12},
			{Name: "BUDGET", Type: datum.KindFloat, NDV: 100},
		},
		Card: 100,
	})
	cat.AddTable(&catalog.Table{
		Name: "EMP",
		Cols: []*catalog.Column{
			{Name: "ENO", Type: datum.KindInt, NDV: 10000},
			{Name: "DNO", Type: datum.KindInt, NDV: 100},
			{Name: "NAME", Type: datum.KindString, NDV: 9000, Width: 16},
			{Name: "ADDRESS", Type: datum.KindString, NDV: 9500, Width: 24},
			{Name: "SAL", Type: datum.KindFloat, NDV: 5000},
		},
		Card: 10000,
		Paths: []*catalog.AccessPath{
			{Name: "EMPDNO", Table: "EMP", Cols: []string{"DNO"}, Clustered: true},
		},
	})
	mustValidate(cat)
	return cat
}

// Figure1Query returns the query of Figure 1: DEPT join EMP on DNO with
// MGR = 'Haas', projecting DNO, MGR, NAME, ADDRESS.
func Figure1Query() *query.Graph {
	g := query.MustNew(
		[]query.Quantifier{
			{Name: "DEPT", Table: "DEPT"},
			{Name: "EMP", Table: "EMP"},
		},
		&expr.Cmp{Op: expr.EQ, L: expr.C("DEPT", "DNO"), R: expr.C("EMP", "DNO")},
		&expr.Cmp{Op: expr.EQ, L: expr.C("DEPT", "MGR"), R: &expr.Const{Val: datum.NewString("Haas")}},
	)
	g.Select = []expr.ColID{
		{Table: "DEPT", Col: "DNO"}, {Table: "DEPT", Col: "MGR"},
		{Table: "EMP", Col: "NAME"}, {Table: "EMP", Col: "ADDRESS"},
	}
	return g
}

// PopulateEmpDept fills a cluster with EMP/DEPT data in which department 42
// is managed by 'Haas' (so Figure 1's query returns rows), each DNO in
// 0..99, and employees spread uniformly over departments.
func PopulateEmpDept(cluster *storage.Cluster, cat *catalog.Catalog, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dept := cat.Table("DEPT")
	emp := cat.Table("EMP")
	dtd := cluster.Store(cat.SiteOf("DEPT")).CreateTable("DEPT", dept.ColNames(), dept.RowWidth())
	for i := int64(0); i < dept.Card; i++ {
		mgr := "mgr" + strconv.FormatInt(rng.Int63n(90), 10)
		if i == 42 {
			mgr = "Haas"
		}
		dtd.Heap.Insert(datum.Row{
			datum.NewInt(i % 100),
			datum.NewString(mgr),
			datum.NewFloat(float64(rng.Int63n(1000000))),
		}, nil)
	}
	etd := cluster.Store(cat.SiteOf("EMP")).CreateTable("EMP", emp.ColNames(), emp.RowWidth())
	// The EMPDNO index is declared clustering, so EMP is stored in DNO order:
	// each row joins its DNO's bucket as it is drawn (DNO, ADDRESS, SAL, in
	// that order) and the buckets are stored in ascending DNO, which is the
	// stable sort by DNO. The rows share one backing array of datums.
	var byDNO [100][]datum.Row
	cells := make([]datum.Datum, 0, emp.Card*int64(len(emp.Cols)))
	var name, addr []byte
	for i := int64(0); i < emp.Card; i++ {
		dno := rng.Int63n(int64(len(byDNO)))
		name = strconv.AppendInt(append(name[:0], "name"...), i, 10)
		addr = append(strconv.AppendInt(addr[:0], rng.Int63n(9500), 10), " Main St"...)
		cells = append(cells,
			datum.NewInt(i),
			datum.NewInt(dno),
			datum.NewString(string(name)),
			datum.NewString(string(addr)),
			datum.NewFloat(float64(20000+rng.Int63n(80000))),
		)
		n := len(cells)
		byDNO[dno] = append(byDNO[dno], cells[n-len(emp.Cols):n:n])
	}
	for _, rows := range byDNO {
		for _, r := range rows {
			etd.Heap.Insert(r, nil)
		}
	}
	cluster.ResetCounters()
}

func mustValidate(cat *catalog.Catalog) {
	if err := cat.Validate(); err != nil {
		panic(fmt.Sprintf("workload: invalid catalog: %v", err))
	}
}

// ChainCatalog builds n tables T1..Tn where Ti has columns ID, J, K, PAD and
// cardinality cards[i] (cards is cycled if shorter than n). Each table gets
// an index on J. A chain query joins Ti.K = Ti+1.J.
func ChainCatalog(n int, cards ...int64) *catalog.Catalog {
	if len(cards) == 0 {
		cards = []int64{1000}
	}
	cat := catalog.New()
	for i := 1; i <= n; i++ {
		card := cards[(i-1)%len(cards)]
		ndv := card / 10
		if ndv < 2 {
			ndv = 2
		}
		name := fmt.Sprintf("T%d", i)
		cat.AddTable(&catalog.Table{
			Name: name,
			Cols: []*catalog.Column{
				{Name: "ID", Type: datum.KindInt, NDV: card},
				{Name: "J", Type: datum.KindInt, NDV: ndv},
				{Name: "K", Type: datum.KindInt, NDV: ndv},
				{Name: "PAD", Type: datum.KindString, NDV: card, Width: 32},
			},
			Card: card,
			Paths: []*catalog.AccessPath{
				{Name: name + "_J", Table: name, Cols: []string{"J"}},
			},
		})
	}
	mustValidate(cat)
	return cat
}

// ChainQuery joins T1..Tn with Ti.K = Ti+1.J, selecting every ID column.
func ChainQuery(n int) *query.Graph {
	var quants []query.Quantifier
	var sel []expr.ColID
	var preds []expr.Expr
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("T%d", i)
		quants = append(quants, query.Quantifier{Name: name, Table: name})
		sel = append(sel, expr.ColID{Table: name, Col: "ID"})
		if i > 1 {
			prev := fmt.Sprintf("T%d", i-1)
			preds = append(preds, &expr.Cmp{Op: expr.EQ, L: expr.C(prev, "K"), R: expr.C(name, "J")})
		}
	}
	g := query.MustNew(quants, preds...)
	g.Select = sel
	return g
}

// StarCatalog builds a fact table F (factCard rows) and k dimension tables
// D1..Dk (dimCard rows each); F has a foreign key FKi per dimension, with an
// index on each.
func StarCatalog(k int, factCard, dimCard int64) *catalog.Catalog {
	cat := catalog.New()
	fact := &catalog.Table{
		Name: "F",
		Cols: []*catalog.Column{
			{Name: "ID", Type: datum.KindInt, NDV: factCard},
			{Name: "VAL", Type: datum.KindFloat, NDV: factCard},
		},
		Card: factCard,
	}
	for i := 1; i <= k; i++ {
		fk := fmt.Sprintf("FK%d", i)
		fact.Cols = append(fact.Cols, &catalog.Column{Name: fk, Type: datum.KindInt, NDV: dimCard})
		fact.Paths = append(fact.Paths, &catalog.AccessPath{
			Name: "F_" + fk, Table: "F", Cols: []string{fk},
		})
		cat.AddTable(&catalog.Table{
			Name: fmt.Sprintf("D%d", i),
			Cols: []*catalog.Column{
				{Name: "ID", Type: datum.KindInt, NDV: dimCard},
				{Name: "ATTR", Type: datum.KindString, NDV: dimCard / 2, Width: 16},
			},
			Card: dimCard,
		})
	}
	cat.AddTable(fact)
	mustValidate(cat)
	return cat
}

// StarQuery joins F with its first k dimensions on the foreign keys.
func StarQuery(k int) *query.Graph {
	quants := []query.Quantifier{{Name: "F", Table: "F"}}
	sel := []expr.ColID{{Table: "F", Col: "ID"}}
	var preds []expr.Expr
	for i := 1; i <= k; i++ {
		d := fmt.Sprintf("D%d", i)
		quants = append(quants, query.Quantifier{Name: d, Table: d})
		sel = append(sel, expr.ColID{Table: d, Col: "ATTR"})
		preds = append(preds, &expr.Cmp{
			Op: expr.EQ,
			L:  expr.C("F", fmt.Sprintf("FK%d", i)),
			R:  expr.C(d, "ID"),
		})
	}
	g := query.MustNew(quants, preds...)
	g.Select = sel
	return g
}

// Populate fills a cluster with deterministic synthetic rows matching every
// catalog table's cardinality and column NDVs. Column values are uniform
// over their NDV domain unless the column declares Skew (then Zipf-
// distributed); int and string domains are v = 0..NDV-1 (strings as "v<k>",
// padded to the declared width); floats spread over [Lo, Hi] when bounded,
// else [0, NDV).
func Populate(cluster *storage.Cluster, cat *catalog.Catalog, seed int64) {
	names := cat.TableNames()
	for _, name := range names {
		t := cat.Table(name)
		rng := rand.New(rand.NewSource(seed ^ int64(len(name))<<32 ^ hashName(name)))
		st := cluster.Store(cat.SiteOf(name))
		td := st.CreateTable(name, t.ColNames(), t.RowWidth())
		rows := make([]datum.Row, 0, t.Card)
		for i := int64(0); i < t.Card; i++ {
			row := make(datum.Row, len(t.Cols))
			for ci, col := range t.Cols {
				row[ci] = genValue(rng, col, i)
			}
			rows = append(rows, row)
		}
		if len(t.Order) > 0 {
			keys := make([]int, 0, len(t.Order))
			for _, oc := range t.Order {
				for ci, col := range t.Cols {
					if col.Name == oc {
						keys = append(keys, ci)
					}
				}
			}
			sort.SliceStable(rows, func(i, j int) bool {
				return datum.CompareRows(rows[i], rows[j], keys) < 0
			})
		}
		for _, row := range rows {
			td.Heap.Insert(row, nil)
		}
	}
	cluster.ResetCounters()
}

func hashName(s string) int64 {
	h := int64(1469598103934665603)
	for _, c := range s {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h
}

func genValue(rng *rand.Rand, col *catalog.Column, rowIdx int64) datum.Datum {
	ndv := col.NDV
	if ndv <= 0 {
		ndv = 100
	}
	draw := func() int64 {
		if col.Skew > 0 && ndv >= 2 {
			z := rand.NewZipf(rng, 1+col.Skew, 1, uint64(ndv-1))
			return int64(z.Uint64())
		}
		return rng.Int63n(ndv)
	}
	switch col.Type {
	case datum.KindInt:
		return datum.NewInt(draw())
	case datum.KindFloat:
		if col.Lo != nil && col.Hi != nil {
			return datum.NewFloat(*col.Lo + rng.Float64()*(*col.Hi-*col.Lo))
		}
		return datum.NewFloat(float64(rng.Int63n(ndv)))
	case datum.KindString:
		// Pad to the declared average width so executed byte counts match
		// the statistics the optimizer planned with.
		s := fmt.Sprintf("v%d", draw())
		for len(s) < col.AvgWidth()-1 {
			s += "_"
		}
		return datum.NewString(s)
	case datum.KindBool:
		return datum.NewBool(rng.Intn(2) == 0)
	default:
		return datum.Null
	}
}

// Oracle evaluates the query by brute-force nested iteration directly over
// the stored data and returns the projected result as a sorted multiset of
// rendered rows — the reference answer any correct plan must reproduce. Each
// predicate is checked as soon as all of its quantifiers are bound, so
// selective queries stay tractable while the evaluation remains trivially
// auditable.
func Oracle(cluster *storage.Cluster, cat *catalog.Catalog, g *query.Graph) []string {
	sel := g.SelectCols(cat)
	// predsAt[i] holds the predicates that become fully bound once
	// quantifiers 0..i are bound.
	predsAt := make([][]expr.Expr, len(g.Quants))
	pos := map[string]int{}
	for i, q := range g.Quants {
		pos[q.Name] = i
	}
	for _, p := range g.Preds.Slice() {
		last := 0
		for _, t := range expr.Tables(p) {
			if pos[t] > last {
				last = pos[t]
			}
		}
		predsAt[last] = append(predsAt[last], p)
	}

	var out []string
	binding := expr.MapBinding{}
	var rec func(qi int)
	rec = func(qi int) {
		if qi == len(g.Quants) {
			row := make([]string, len(sel))
			for i, c := range sel {
				v, _ := binding.ColValue(c)
				row[i] = v.String()
			}
			out = append(out, join(row))
			return
		}
		q := g.Quants[qi]
		t := cat.Table(q.Table)
		td := cluster.Store(cat.SiteOf(q.Table)).Table(q.Table)
		if td == nil {
			return
		}
		cur := td.Heap.Cursor(nil)
	rows:
		for {
			_, row, ok := cur.Next()
			if !ok {
				break
			}
			for ci, col := range t.Cols {
				binding[expr.ColID{Table: q.Name, Col: col.Name}] = row[ci]
			}
			for _, p := range predsAt[qi] {
				if !expr.EvalBool(p, binding) {
					continue rows
				}
			}
			rec(qi + 1)
		}
		for _, col := range t.Cols {
			delete(binding, expr.ColID{Table: q.Name, Col: col.Name})
		}
	}
	rec(0)
	sort.Strings(out)
	return out
}

func join(parts []string) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += "|"
		}
		s += p
	}
	return s
}

// RenderRows renders executed rows projected onto sel as the same sorted
// multiset encoding Oracle uses.
func RenderRows(schema []expr.ColID, rows []datum.Row, sel []expr.ColID) []string {
	idx := map[expr.ColID]int{}
	for i, c := range schema {
		idx[c] = i
	}
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		parts := make([]string, len(sel))
		for i, c := range sel {
			p, ok := idx[c]
			if !ok {
				parts[i] = "?"
				continue
			}
			parts[i] = r[p].String()
		}
		out = append(out, join(parts))
	}
	sort.Strings(out)
	return out
}
