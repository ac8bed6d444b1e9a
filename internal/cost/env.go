// Package cost implements the paper's Section 3 machinery: the property
// function of each LOLEPOP (how the operator transforms the property vector,
// including cost) and the R*-style cost model — total cost is a linear
// combination of I/O, CPU, and communications [LOHM 85] — plus System-R-style
// selectivity and cardinality estimation.
//
// Property functions live in a registry keyed by Op, so a Database Customizer
// adds a LOLEPOP by registering one function here and one executor in package
// exec, with no optimizer changes (Section 5).
package cost

import (
	"fmt"
	"math"
	"slices"
	"time"

	"stars/internal/catalog"
	"stars/internal/expr"
	"stars/internal/obs"
	"stars/internal/plan"
	"stars/internal/query"
)

// Weights are the coefficients of the linear cost combination.
type Weights struct {
	// IO is the cost of one page access.
	IO float64
	// CPU is the cost of one tuple-handling operation.
	CPU float64
	// Msg is the fixed cost of one inter-site message.
	Msg float64
	// Byte is the cost of shipping one payload byte.
	Byte float64
}

// DefaultWeights approximates the relative R* weightings validated in
// [MACK 86]: a page I/O is the unit, per-tuple CPU is ~1/100 of an I/O, a
// message costs about two I/Os of latency, and shipping a page's worth of
// bytes costs about one I/O of bandwidth.
var DefaultWeights = Weights{
	IO:   1.0,
	CPU:  0.01,
	Msg:  2.0,
	Byte: 1.0 / catalog.PageSize,
}

// Total applies the weights to a raw resource vector.
func (w Weights) Total(c plan.Cost) float64 {
	return w.IO*c.IO + w.CPU*c.CPU + w.Msg*c.Msg + w.Byte*c.Bytes
}

// PropertyFunc is the paper's "property function for each LOLEPOP": it is
// passed the operator's arguments (the node) with its input plans already
// priced, and returns the revised property vector for the operator's output
// stream.
type PropertyFunc func(e *Env, n *plan.Node) (*plan.Props, error)

// hashMemPages is the number of buffer pages the hash join may use before
// its cost model charges partitioning I/O (a simple Grace-hash spill model).
const hashMemPages = 256

// sortMemPages is the run size for the external-sort cost model.
const sortMemPages = 256

// Env is the pricing environment: catalog, quantifier bindings, weights, and
// the property-function registry.
type Env struct {
	// Cat is the system catalog.
	Cat *catalog.Catalog
	// W are the cost weights.
	W Weights
	// Obs, when set to a profiled sink, receives cost_price activity
	// timings; nil (the default) costs one check per Price call.
	Obs *obs.Sink
	// Arena, when non-nil, slab-allocates the Props this environment
	// prices and the Rels it interns (and the nodes builders and Glue
	// construct through it); nil prices onto the heap (tests, tools).
	// The optimizer gives the root environment and each enumeration worker's
	// fork an arena of its own (see internal/opt). An environment that has
	// interned into an arena must not outlive the arena's next Reset.
	Arena *plan.Arena
	// Bound, when set before Bind, is the storage Bind resolves the query's
	// names into, recycled from one query to the next (the optimizer keeps
	// one per workspace); Bind allocates one when it is nil.
	Bound *Binding
	// Rels is the table InternRel interns into, recycled from one query to
	// the next (the optimizer keeps one per environment a workspace serves
	// and clears it); InternRel makes one when it is nil.
	Rels Rels

	funcs  map[plan.Op]PropertyFunc
	base   *Env           // frozen parent of a forked environment
	u      *expr.Universe // of the bound query: ACCESS resolves its quantifier's table set
	cols   *expr.Vocab    // of the bound query
	quants []quantCols    // of the bound query, by quantifier ordinal
}

// Binding is one query's names resolved to numbers (Bind): the catalog table
// of each quantifier ordinal, the selectivity of each conjunct ordinal and
// the byte width of each column ordinal. Pricing reads these instead of
// looking names up per operator. Rebinding reuses the arrays.
type Binding struct {
	tables []*catalog.Table
	sels   []float64
	widths []int
}

// quantCols is what Bind resolves per quantifier over the column vocabulary
// for plans to carry: the columns the query needs from it, its TID
// pseudo-column, its table's stored order and its catalog PATHS (in catalog
// order). Like the vocabulary it is allocated per query and never recycled,
// since detached plans keep pointing at it.
type quantCols struct {
	needed, tid, order expr.ColList
	paths              []plan.PathInfo
}

// Reset lets go of the bound catalog tables and keeps the arrays.
func (b *Binding) Reset() { clear(b.tables) }

// Rels holds an environment's interned relational property vectors: the
// head of each bucket, chained by Rel.Next. Create one with Rels{}.
type Rels map[relKey]*plan.Rel

// relKey buckets interned Rels by the words of their sets: the table set's
// mask and the predicate set's Hash64, so probing the intern table renders
// nothing. Within a bucket the predicate and column sets are compared.
type relKey struct {
	tables, ph uint64
}

// NewEnv builds a pricing environment with the built-in property functions
// registered.
func NewEnv(cat *catalog.Catalog, w Weights) *Env {
	e := &Env{
		Cat:   cat,
		W:     w,
		funcs: map[plan.Op]PropertyFunc{},
	}
	e.Register(plan.OpAccess, accessProps)
	e.Register(plan.OpGet, getProps)
	e.Register(plan.OpSort, sortProps)
	e.Register(plan.OpShip, shipProps)
	e.Register(plan.OpStore, storeProps)
	e.Register(plan.OpFilter, filterProps)
	e.Register(plan.OpBuildIndex, buildIndexProps)
	e.Register(plan.OpJoin, joinProps)
	e.Register(plan.OpUnion, unionProps)
	e.Register(plan.OpIndexAnd, indexAndProps)
	return e
}

// Fork returns a pricing environment for one worker of a parallel
// enumeration: the catalog, weights, query binding, and property functions
// are shared (they are read-only once optimization starts), while
// the Rel-intern table becomes an overlay — local writes over read-through
// access to the frozen parent — that lives as long as the worker and is never
// merged back: interned Rels are compared by content, never by pointer, so a
// Rel two workers each interned is merely stored twice.
func (e *Env) Fork() *Env {
	// Obs, Arena and Rels are deliberately not inherited: the caller wires
	// the worker's own.
	return &Env{
		Cat: e.Cat, W: e.W, Bound: e.Bound, u: e.u, cols: e.cols, quants: e.quants, funcs: e.funcs,
		base: e,
	}
}

// InternRel returns the canonical *Rel for the given relational property
// triple, deduplicated per optimization: plans that compute the same WHAT
// share one Rel no matter how their HOW differs. Lookups allocate nothing on
// a hit. Forked environments intern locally over the frozen parent chain. A
// Rel interned on a miss carries its row width.
func (e *Env) InternRel(tables expr.TableSet, cols expr.ColSet, preds expr.PredSet) *plan.Rel {
	k := relKey{tables: tables.Mask(), ph: preds.Hash64()}
	for env := e; env != nil; env = env.base {
		for r := env.Rels[k]; r != nil; r = r.Next() {
			if r.Preds.Equal(preds) && r.Cols.Equal(cols) {
				return r
			}
		}
	}
	if e.Rels == nil {
		e.Rels = Rels{}
	}
	r := e.Arena.NewRel(plan.Rel{Tables: tables, Cols: cols, Preds: preds, Width: e.setWidth(cols)}, e.Rels[k])
	e.Rels[k] = r
	return r
}

// Register installs (or replaces) the property function for an Op. This is
// the Section 5 extension point for new LOLEPOPs.
func (e *Env) Register(op plan.Op, f PropertyFunc) { e.funcs[op] = f }

// Registered reports whether op has a property function.
func (e *Env) Registered(op plan.Op) bool { _, ok := e.funcs[op]; return ok }

// Bind points the environment at the query it prices plans of and resolves
// the query's names once: the universe its sets are subsets of, the catalog
// table of each quantifier ordinal (FROM position), the selectivity of each
// conjunct ordinal, and the column vocabulary (bindCols). Binding again
// re-reads the catalog, so statistics changed between two queries are seen
// by the second.
func (e *Env) Bind(g *query.Graph) {
	if e.Bound == nil {
		e.Bound = &Binding{}
	}
	b := e.Bound
	e.u = g.Universe()
	b.tables = b.tables[:0]
	for _, q := range g.Quants {
		b.tables = append(b.tables, e.Cat.Table(q.Table))
	}
	all := e.u.Preds()
	b.sels = b.sels[:0]
	for i := 0; i < all.Len(); i++ {
		b.sels = append(b.sels, e.Selectivity(e.u.Conjunct(i)))
	}
	e.bindCols(g)
}

// bindCols fixes the query's column vocabulary — every column a plan can
// carry: each quantifier's needed columns, its TID pseudo-column, and the
// columns of its table's stored order and catalog paths' keys — and
// resolves each column's width and each quantifier's quantCols over it.
func (e *Env) bindCols(g *query.Graph) {
	b := e.Bound
	// A quantifier needs its columns in the select list, every predicate and
	// ORDER BY: sorted, each quantifier's run is contiguous.
	needed := make([][]expr.ColID, len(g.Quants))
	all := slices.Concat(g.SelectCols(e.Cat), g.Preds.Columns(), g.OrderBy)
	slices.SortFunc(all, expr.ColID.Compare)
	for all = slices.Compact(all); len(all) > 0; {
		n := 1
		for n < len(all) && all[n].Table == all[0].Table {
			n++
		}
		if q := e.u.Ordinal(all[0].Table); q >= 0 {
			needed[q] = all[:n:n]
		}
		all = all[n:]
	}
	var ids []expr.ColID
	qualify := func(q string, names []string) []expr.ColID {
		for _, c := range names {
			ids = append(ids, expr.ColID{Table: q, Col: c})
		}
		return ids[len(ids)-len(names):]
	}
	for i, q := range g.Quants {
		ids = append(append(ids, needed[i]...), expr.ColID{Table: q.Name, Col: plan.TIDCol})
		if t := b.tables[i]; t != nil {
			qualify(q.Name, t.Order)
			for _, p := range t.Paths {
				qualify(q.Name, p.Cols)
			}
		}
	}
	v := expr.NewVocab(e.u, ids)
	b.widths = b.widths[:0]
	for i := 0; i < v.Len(); i++ {
		w, id := 8, v.ID(i)
		if t := b.tables[e.u.Ordinal(id.Table)]; t != nil && id.Col != plan.TIDCol {
			if c := t.Column(id.Col); c != nil {
				w = c.AvgWidth()
			}
		}
		b.widths = append(b.widths, w)
	}
	e.cols, e.quants, ids = v, make([]quantCols, len(g.Quants)), nil // v owns ids
	for i, q := range g.Quants {
		qc := &e.quants[i]
		qc.needed, qc.tid = v.List(needed[i]...), v.List(expr.ColID{Table: q.Name, Col: plan.TIDCol})
		if t := b.tables[i]; t != nil {
			qc.order = v.List(qualify(q.Name, t.Order)...)
			qc.paths = make([]plan.PathInfo, len(t.Paths))
			for k, p := range t.Paths {
				qc.paths[k] = plan.PathInfo{Name: p.Name, Cols: v.List(qualify(q.Name, p.Cols)...), Clustered: p.Clustered}
			}
		}
	}
}

// Vocab returns the bound query's column vocabulary.
func (e *Env) Vocab() *expr.Vocab { return e.cols }

// quant returns what Bind resolved for quantifier q (empty for a name the
// bound query does not have).
func (e *Env) quant(q string) quantCols {
	if i := e.u.Ordinal(q); i >= 0 {
		return e.quants[i]
	}
	return quantCols{}
}

// Needed returns the columns the query needs from quantifier q: its columns
// in the select list, every predicate, and ORDER BY, in name order.
func (e *Env) Needed(q string) expr.ColList { return e.quant(q).needed }

// TID returns quantifier q's TID pseudo-column as a one-column list.
func (e *Env) TID(q string) expr.ColList { return e.quant(q).tid }

// Path returns the access path of quantifier q's table with the given name,
// resolved over the vocabulary, or nil.
func (e *Env) Path(q, name string) *plan.PathInfo {
	paths := e.quant(q).paths
	for i := range paths {
		if paths[i].Name == name {
			return &paths[i]
		}
	}
	return nil
}

// BaseTable resolves a quantifier of the bound query to its catalog table;
// any other name (an unbound environment's) is taken as a table name. Nil
// for temps and unknown names.
func (e *Env) BaseTable(q string) *catalog.Table {
	if i := e.u.Ordinal(q); i >= 0 {
		return e.Bound.tables[i]
	}
	return e.Cat.Table(q)
}

// newProps places a freshly computed property vector (arena when wired, heap
// otherwise).
func (e *Env) newProps(p plan.Props) *plan.Props { return e.Arena.NewProps(p) }

// cloneProps is Props.Clone into the environment's arena.
func (e *Env) cloneProps(p *plan.Props) *plan.Props {
	q := e.Arena.NewProps(*p)
	if p.Extra != nil {
		q.Extra = make(map[string]string, len(p.Extra))
		for k, v := range p.Extra {
			q.Extra[k] = v
		}
	}
	return q
}

// Price computes and attaches Props for a single node whose inputs are
// already priced. It is idempotent: nodes with Props are left alone.
func (e *Env) Price(n *plan.Node) error {
	if n.Props != nil {
		return nil
	}
	var t0 time.Time
	profiled := e.Obs.ProfEnabled()
	if profiled {
		t0 = time.Now()
	}
	for _, in := range n.Inputs {
		if in.Props == nil {
			return fmt.Errorf("cost: input of %s not priced", n.Op)
		}
	}
	f, ok := e.funcs[n.Op]
	if !ok {
		return fmt.Errorf("cost: no property function registered for %s", n.Op)
	}
	if err := n.Validate(); err != nil {
		return err
	}
	p, err := f(e, n)
	if err != nil {
		return err
	}
	p.Cost.Total = e.W.Total(p.Cost)
	p.Rescan.Total = e.W.Total(p.Rescan)
	n.Props = p
	if profiled {
		e.Obs.ProfActivity(obs.ActCost, time.Since(t0), 1)
	}
	return nil
}

// PriceTree prices an entire plan bottom-up, skipping already-priced shared
// subplans.
func (e *Env) PriceTree(n *plan.Node) error {
	for _, in := range n.Inputs {
		if err := e.PriceTree(in); err != nil {
			return err
		}
	}
	return e.Price(n)
}

// setWidth is the byte width of a row of the given columns: the sum of
// their bound widths, at least 1. Widths are integers, so the sum is exact
// whatever order the columns are added in.
func (e *Env) setWidth(cols expr.ColSet) float64 {
	w := 0
	for i := cols.Next(0); i >= 0; i = cols.Next(i + 1) {
		w += e.Bound.widths[i]
	}
	return float64(max(w, 1))
}

// Width is the byte width of the listed columns: the sum of their bound
// widths.
func (e *Env) Width(cols expr.ColList) int {
	w := 0
	for k := 0; k < cols.Len(); k++ {
		w += e.Bound.widths[cols.At(k)]
	}
	return w
}

// RowWidth is the byte width of a row of the named columns of the bound
// query, at least 1.
func (e *Env) RowWidth(cols []expr.ColID) float64 {
	return float64(max(e.Width(e.cols.List(cols...)), 1))
}

// pagesOf estimates the page count of card rows of the given byte width.
func pagesOf(card, width float64) float64 {
	pages := math.Ceil(card * width / catalog.PageSize)
	if pages < 1 {
		pages = 1
	}
	return pages
}
