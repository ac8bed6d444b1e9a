package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"stars/internal/catalog"
	"stars/internal/serve"
)

// A template is one query shape: SQL text with at most one literal slot, plus
// the rendering and execution flags its requests carry. The template sets are
// enumerated without the seed, so every seed serves the same shapes and
// plan_cost_geomean (estimates do not depend on literal values: no column of
// the catalog declares a value range) is comparable across seeds; the seed
// picks order and literals.
type template struct {
	class  string
	head   string  // SQL up to the literal
	tail   string  // SQL after it
	lit    literal // zero kind: no literal slot
	quants int
	// orderCol is the column an ORDER BY variant sorts on.
	orderCol string
	// local is true when every table is stored at the query site, the
	// condition under which internal/xform can serve as the cost reference.
	local bool
	opts  serve.OptimizeRequest // flags only; SQL is filled per request
}

// literal is the value domain of a template's slot.
type literal struct {
	kind byte   // 'i' integer, 's' string, 0 none
	n    int64  // domain size
	pfx  string // string prefix ("mgr" draws 'mgr17')
}

func (l literal) draw(rng *rand.Rand) string {
	switch l.kind {
	case 'i':
		return fmt.Sprint(rng.Int63n(l.n))
	case 's':
		return fmt.Sprintf("'%s%d'", l.pfx, rng.Int63n(l.n))
	}
	return ""
}

// request is one generated operation: a POST /optimize body for the serve
// workloads, the SQL alone for lib_scale.
type request struct {
	tmpl *template
	sql  string
	body []byte
}

func (t *template) render(rng *rand.Rand) request {
	sql := t.head + t.lit.draw(rng) + t.tail
	req := t.opts
	req.SQL = sql
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of strings, bools and ints always marshals
	}
	return request{tmpl: t, sql: sql, body: body}
}

// column is a predicate target with its literal domain.
type column struct {
	name string
	lit  literal
}

func intCol(name string, n int64) column { return column{name, literal{kind: 'i', n: n}} }
func strCol(name, pfx string, n int64) column {
	return column{name, literal{kind: 's', n: n, pfx: pfx}}
}

// tableCols lists the predicate columns of every catalog table; the first
// column of each doubles as its SELECT and ORDER BY column.
func tableCols(table string) []column {
	switch {
	case table == "EMP":
		return []column{intCol("ENO", 10000), intCol("DNO", 100), intCol("SAL", 100000),
			strCol("NAME", "name", 10000), strCol("ADDRESS", "addr", 100)}
	case table == "DEPT":
		return []column{intCol("DNO", 100), intCol("BUDGET", 1000000), strCol("MGR", "mgr", 90)}
	case table == "F":
		cols := []column{intCol("ID", 100000), intCol("VAL", 100000)}
		for i := 1; i <= starDims; i++ {
			cols = append(cols, intCol(fmt.Sprintf("FK%d", i), 500))
		}
		return cols
	case strings.HasPrefix(table, "D"):
		return []column{intCol("ID", 500), strCol("ATTR", "v", 250)}
	default: // T1..T14
		return []column{intCol("ID", 400), intCol("J", 40), intCol("K", 40), strCol("PAD", "v", 400)}
	}
}

// localPreds enumerates "<table>.<col> <op> " prefixes with their literal
// domain: =, < and > on numeric columns, = on strings.
func localPreds(table string) (preds []string, lits []literal) {
	for _, c := range tableCols(table) {
		ops := []string{"=", "<", ">"}
		if c.lit.kind == 's' {
			ops = ops[:1]
		}
		for _, op := range ops {
			preds = append(preds, fmt.Sprintf("%s.%s %s ", table, c.name, op))
			lits = append(lits, c.lit)
		}
	}
	return preds, lits
}

// skeleton is a join shape: the tables, the projection and the join
// predicates (plus any fixed local ones).
type skeleton struct {
	class  string
	tables []string
	sel    []string
	where  []string
}

func (k skeleton) template(cat *catalog.Catalog, where []string) template {
	head := "SELECT " + strings.Join(k.sel, ", ") + " FROM " + strings.Join(k.tables, ", ")
	if len(where) > 0 {
		head += " WHERE " + strings.Join(where, " AND ")
	}
	return template{class: k.class, head: head, orderCol: k.sel[0],
		quants: len(k.tables), local: cat.LocalQuery(k.tables)}
}

// plain is the skeleton as it stands, with no literal slot.
func (k skeleton) plain(cat *catalog.Catalog) template { return k.template(cat, k.where) }

// variants crosses the skeleton with one local predicate on each of its
// tables.
func (k skeleton) variants(cat *catalog.Catalog) []template {
	var out []template
	for _, t := range k.tables {
		preds, lits := localPreds(t)
		for i, p := range preds {
			v := k.template(cat, append(k.where[:len(k.where):len(k.where)], p))
			v.lit = lits[i]
			out = append(out, v)
		}
	}
	return out
}

func chainName(i int) string { return fmt.Sprintf("T%d", i) }

// chain is the n-table chain Ti.K = Ti+1.J starting at T<lo>.
func chain(lo, n int) skeleton {
	k := skeleton{class: fmt.Sprintf("chain%d", n)}
	for i := lo; i < lo+n; i++ {
		k.tables = append(k.tables, chainName(i))
		if i > lo {
			k.where = append(k.where, fmt.Sprintf("T%d.K = T%d.J", i-1, i))
		}
	}
	k.sel = []string{k.tables[0] + ".ID", k.tables[n-1] + ".ID"}
	return k
}

// chainTemplates enumerates the variants of every n-table window of
// T1..T<span>.
func chainTemplates(cat *catalog.Catalog, n, span int) []template {
	var out []template
	for lo := 1; lo+n-1 <= span; lo++ {
		out = append(out, chain(lo, n).variants(cat)...)
	}
	return out
}

// starJoin joins F with the given dimensions on its foreign keys.
func starJoin(dims []int) skeleton {
	k := skeleton{class: fmt.Sprintf("star%d", len(dims)), tables: []string{"F"}, sel: []string{"F.ID"}}
	for _, d := range dims {
		k.tables = append(k.tables, fmt.Sprintf("D%d", d))
		k.sel = append(k.sel, fmt.Sprintf("D%d.ATTR", d))
		k.where = append(k.where, fmt.Sprintf("F.FK%d = D%d.ID", d, d))
	}
	return k
}

// starTemplates enumerates the variants of F joined with every k-subset of
// its dimensions.
func starTemplates(cat *catalog.Catalog, k int) []template {
	var out []template
	var pick func(from int, dims []int)
	pick = func(from int, dims []int) {
		if len(dims) == k {
			out = append(out, starJoin(dims).variants(cat)...)
			return
		}
		for d := from; d <= starDims; d++ {
			pick(d+1, append(dims[:len(dims):len(dims)], d))
		}
	}
	pick(1, nil)
	return out
}

// clique joins T1..Tn pairwise.
func clique(n int) skeleton {
	k := skeleton{class: fmt.Sprintf("clique%d", n), sel: []string{"T1.ID"}}
	for i := 1; i <= n; i++ {
		k.tables = append(k.tables, chainName(i))
		for j := 1; j < i; j++ {
			k.where = append(k.where, fmt.Sprintf("T%d.K = T%d.J", j, i))
		}
	}
	return k
}

// figure1 is the paper's Figure 1 join over the two-site EMP/DEPT.
func figure1(tables, sel []string) skeleton {
	return skeleton{class: "figure1", tables: tables, sel: sel, where: []string{"DEPT.DNO = EMP.DNO"}}
}

var figure1Projections = [][]string{
	{"DEPT.DNO", "DEPT.MGR", "EMP.NAME", "EMP.ADDRESS"},
	{"EMP.NAME", "EMP.SAL"},
	{"DEPT.MGR", "EMP.ENO"},
	{"EMP.ENO", "EMP.NAME", "DEPT.BUDGET"},
}

// figure1Templates enumerates variants of Figure 1: both FROM orders, four
// projections, a local predicate on either table.
func figure1Templates(cat *catalog.Catalog) []template {
	var out []template
	for _, tables := range [][]string{{"DEPT", "EMP"}, {"EMP", "DEPT"}} {
		for _, sel := range figure1Projections {
			out = append(out, figure1(tables, sel).variants(cat)...)
		}
	}
	return out
}

// selectTemplates enumerates single-table selects with one local predicate
// over every table of the catalog.
func selectTemplates(cat *catalog.Catalog) []template {
	tables := []string{"EMP", "DEPT", "F"}
	for i := 1; i <= chainTables; i++ {
		tables = append(tables, chainName(i))
	}
	for i := 1; i <= starDims; i++ {
		tables = append(tables, fmt.Sprintf("D%d", i))
	}
	var out []template
	for _, t := range tables {
		k := skeleton{class: "select1", tables: []string{t}, sel: []string{t + "." + tableCols(t)[0].name}}
		out = append(out, k.variants(cat)...)
	}
	return out
}

// spread picks n distinct templates scattered over the enumeration (a stride
// coprime to its length, so neighbours differ in tables, not only in the
// predicate) and gives every fourth an ORDER BY on its first projected column.
func spread(cands []template, n int) []template {
	if n > len(cands) {
		panic(fmt.Sprintf("bench: class %s enumerates %d templates, %d wanted", cands[0].class, len(cands), n))
	}
	step := len(cands)*5/8 + 1
	for gcd(step, len(cands)) != 1 {
		step++
	}
	out := make([]template, n)
	for i := range out {
		out[i] = cands[i*step%len(cands)]
		if i%4 == 3 {
			out[i].tail = " ORDER BY " + out[i].orderCol
		}
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// asClass returns the templates renamed to a request class of serve_explain,
// carrying its flags.
func asClass(class string, ts []template, opts serve.OptimizeRequest) []template {
	for i := range ts {
		ts[i].class, ts[i].opts = class, opts
	}
	return ts
}

// blocks builds a list of n blocks; every block holds one request per entry
// of mix (a class name), in seeded order, and the j-th use of a class takes
// its j-th template, so no template repeats until a class is exhausted.
func blocks(rng *rand.Rand, classes map[string][]template, mix []string, n int) []request {
	used := map[string]int{}
	list := make([]request, 0, n*len(mix))
	for b := 0; b < n; b++ {
		order := rng.Perm(len(mix))
		block := make([]request, len(mix))
		for i, class := range mix { // templates assigned in mix order, placed in seeded order
			ts := classes[class]
			block[order[i]] = ts[used[class]%len(ts)].render(rng)
			used[class]++
		}
		list = append(list, block...)
	}
	return list
}

// Workload sizes. A list is long enough that a run of run_seconds at the
// seed commit's speed consumes well under half of it; a faster program wraps
// around.
const (
	smallUniverse = 512 // templates; 128 per class
	smallRequests = 1 << 15
	zipfS         = 1.1
	wideBlocks    = 40
	explainBlocks = 480
	libPasses     = 12
)

var (
	// chain7 and star5 cost about the same and hold the median; star6 holds
	// the 90th percentile.
	wideMix = []string{"chain6", "chain6", "chain7", "chain7", "chain7", "star5", "star5", "chain8", "star6", "star6"}
	// Two parts provenance_chain4 put the median inside that class's cluster of
	// latencies and the 90th percentile inside verbose_chain5's, not on a
	// boundary between two classes, where a percentile would jump.
	explainMix     = []string{"analyze_figure1", "provenance_chain4", "provenance_chain4", "provenance_verbose_star3", "verbose_chain5"}
	libScalePoints = []string{"figure1", "chain4", "chain6", "chain8", "chain10", "chain12", "chain14",
		"star3", "star4", "star5", "star6", "star7", "star8", "clique3", "clique4", "clique5", "clique6"}
)

// generate builds the workload's request list from the seed. The first
// quality(name) positions hold the same template set for every seed.
func generate(name string, cat *catalog.Catalog, seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "serve_small":
		const per = smallUniverse / 4
		classes := [4][]template{
			spread(selectTemplates(cat), per),
			spread(figure1Templates(cat), per),
			spread(chainTemplates(cat, 2, chainTables), per),
			spread(chainTemplates(cat, 3, chainTables), per),
		}
		// Popularity rank r is held by template r/4 of class r mod 4 for every
		// seed: which templates are hot decides the cost of the mix, and the
		// runs of different seeds are to measure the same work.
		ranked := make([]*template, smallUniverse)
		for c, ts := range classes {
			for i := range ts {
				ranked[i*len(classes)+c] = &ts[i]
			}
		}
		list := make([]request, 0, smallRequests)
		// The cold sweep sends every template once, the most popular first:
		// the ledger and the flight recorder track the templates they see
		// first, and a seeded order would track another part of the traffic,
		// at another cost, with every seed.
		for _, t := range ranked {
			list = append(list, t.render(rng))
		}
		zipf := rand.NewZipf(rng, zipfS, 1, smallUniverse-1)
		for len(list) < smallRequests {
			list = append(list, ranked[zipf.Uint64()].render(rng))
		}
		return list
	case "serve_wide":
		classes := map[string][]template{}
		for _, n := range []int{6, 7, 8} {
			ts := chainTemplates(cat, n, 12)
			classes[ts[0].class] = spread(ts, len(ts)/2)
		}
		for _, k := range []int{5, 6} {
			ts := starTemplates(cat, k)
			classes[ts[0].class] = spread(ts, len(ts)/2)
		}
		return blocks(rng, classes, wideMix, wideBlocks)
	case "serve_explain":
		// Executed variants: DEPT first (the reference evaluator iterates in
		// FROM order) and an equality that keeps the result small.
		var executable []template
		for _, sel := range figure1Projections[:3] {
			for _, t := range figure1([]string{"DEPT", "EMP"}, sel).variants(cat) {
				for _, p := range []string{"DEPT.DNO = ", "DEPT.MGR = "} {
					if strings.HasSuffix(t.head, p) {
						executable = append(executable, t)
					}
				}
			}
		}
		classes := map[string][]template{}
		for _, ts := range [][]template{
			asClass("analyze_figure1", executable, serve.OptimizeRequest{Analyze: true, Format: "both", Limit: -1}),
			asClass("provenance_chain4", spread(chainTemplates(cat, 4, chainTables), 64), serve.OptimizeRequest{Provenance: true}),
			asClass("provenance_verbose_star3", spread(starTemplates(cat, 3), 64), serve.OptimizeRequest{Provenance: true, Verbose: true}),
			asClass("verbose_chain5", spread(chainTemplates(cat, 5, chainTables), 64), serve.OptimizeRequest{Verbose: true, Format: "both"}),
		} {
			classes[ts[0].class] = ts
		}
		return blocks(rng, classes, explainMix, explainBlocks)
	case "lib_scale":
		haas := figure1([]string{"DEPT", "EMP"}, figure1Projections[0])
		haas.where = append(haas.where, "DEPT.MGR = 'Haas'")
		points := []skeleton{haas}
		for _, n := range []int{4, 6, 8, 10, 12, 14} {
			points = append(points, chain(1, n))
		}
		for k := 3; k <= 8; k++ {
			points = append(points, starJoin([]int{1, 2, 3, 4, 5, 6, 7, 8}[:k]))
		}
		for n := 3; n <= 6; n++ {
			points = append(points, clique(n))
		}
		classes := map[string][]template{}
		for _, k := range points {
			classes[k.class] = []template{k.plain(cat)}
		}
		return blocks(rng, classes, libScalePoints, libPasses)
	}
	panic("bench: unknown workload " + name)
}

// quality is the length of the list prefix over which plan_cost_geomean is
// taken: a template set that is the same for every seed and that a run
// covers with a wide margin.
func quality(name string) int {
	switch name {
	case "serve_small":
		return smallUniverse
	case "serve_wide":
		return 4 * len(wideMix)
	case "serve_explain":
		return 25 * len(explainMix)
	default:
		return len(libScalePoints)
	}
}
