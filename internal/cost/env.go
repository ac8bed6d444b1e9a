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
	// prices, the Rels it interns and their COLS (and the nodes builders and
	// Glue construct through it); nil prices onto the heap (tests, tools).
	// The optimizer gives the root environment and each enumeration worker's
	// fork an arena of its own (see internal/opt). An environment that has
	// interned into an arena must not outlive the arena's next Reset.
	Arena *plan.Arena
	// Bound, when set before Bind, is the storage Bind resolves the query's
	// names into, recycled from one query to the next (the optimizer keeps
	// one per workspace); Bind allocates one when it is nil.
	Bound *Binding

	funcs map[plan.Op]PropertyFunc
	rels  map[relKey]*plan.Rel // interned relational property vectors: bucket heads, chained by Rel.Next
	base  *Env                 // frozen parent of a forked environment
	u     *expr.Universe       // of the bound query: ACCESS resolves its quantifier's table set
}

// Binding is one query's names resolved to numbers (Bind): the catalog table
// of each quantifier ordinal and the selectivity of each conjunct ordinal.
// Pricing reads these instead of looking names up per operator. Rebinding
// reuses the arrays.
type Binding struct {
	tables []*catalog.Table
	sels   []float64
}

// Reset lets go of the bound catalog tables and keeps the arrays.
func (b *Binding) Reset() { clear(b.tables) }

// relKey buckets interned Rels by the words of their sets: the table set's
// mask and the predicate set's Hash64, so probing the intern table renders
// nothing. Within a bucket the predicate set is verified and Cols
// (projection variants) compared linearly.
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
		rels:  map[relKey]*plan.Rel{},
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
	// Obs and Arena are deliberately not inherited: the caller wires the
	// worker's own.
	return &Env{
		Cat: e.Cat, W: e.W, Bound: e.Bound, u: e.u, funcs: e.funcs,
		rels: map[relKey]*plan.Rel{},
		base: e,
	}
}

// InternRel returns the canonical *Rel for the given relational property
// triple, deduplicated per optimization: plans that compute the same WHAT
// share one Rel no matter how their HOW differs. Lookups allocate nothing on
// a hit. Forked environments intern locally over the frozen parent chain. A
// Rel interned on a miss carries its row width (RowWidth of cols).
func (e *Env) InternRel(tables expr.TableSet, cols []expr.ColID, preds expr.PredSet) *plan.Rel {
	return e.intern(tables, cols, nil, preds, -1)
}

// InternMerged is InternRel of plan.MergeCols(a.Cols, b) — the COLS of a JOIN
// or a GET, or a's own COLS when b is empty (FILTER) — finding the Rel before
// merging: a stored column list is compared with the would-be merge in place,
// and the list is built only on a miss — in the environment's arena, like the
// Rel. The width extends a's, so a miss resolves only b's new columns.
func (e *Env) InternMerged(tables expr.TableSet, a *plan.Rel, b []expr.ColID, preds expr.PredSet) *plan.Rel {
	return e.intern(tables, a.Cols, b, preds, a.Width)
}

// intern is InternRel of plan.MergeCols(a, b), where aw is a's width when it
// is known and negative when it is not.
func (e *Env) intern(tables expr.TableSet, a, b []expr.ColID, preds expr.PredSet, aw float64) *plan.Rel {
	k := relKey{tables: tables.Mask(), ph: preds.Hash64()}
	for env := e; env != nil; env = env.base {
		for r := env.rels[k]; r != nil; r = r.Next() {
			if r.Preds.Equal(preds) && mergesTo(r.Cols, a, b) {
				return r
			}
		}
	}
	cols := a
	if len(b) > 0 {
		cols = e.Arena.MergeCols(a, b)
	}
	// A non-empty list's width is its unclamped sum, so the sum over cols
	// can start from a's.
	var w float64
	if aw < 0 || len(a) == 0 {
		w = e.RowWidth(cols)
	} else {
		w = e.addWidth(aw, cols[len(a):])
	}
	r := e.Arena.NewRel(plan.Rel{Tables: tables, Cols: cols, Preds: preds, Width: w}, e.rels[k])
	e.rels[k] = r
	return r
}

// mergesTo reports whether cols is what plan.MergeCols(a, b) would build: a,
// then the columns of b not seen before, in order.
func mergesTo(cols, a, b []expr.ColID) bool {
	n := len(a)
	if len(cols) < n || !slices.Equal(cols[:n], a) {
		return false
	}
	for _, c := range b {
		if plan.HasCol(cols[:n], c) {
			continue
		}
		if n == len(cols) || cols[n] != c {
			return false
		}
		n++
	}
	return n == len(cols)
}

// Register installs (or replaces) the property function for an Op. This is
// the Section 5 extension point for new LOLEPOPs.
func (e *Env) Register(op plan.Op, f PropertyFunc) { e.funcs[op] = f }

// Registered reports whether op has a property function.
func (e *Env) Registered(op plan.Op) bool { _, ok := e.funcs[op]; return ok }

// Bind points the environment at the query it prices plans of and resolves
// the query's names once: the universe its sets are subsets of, the catalog
// table of each quantifier ordinal (FROM position), and the selectivity of
// each conjunct ordinal. Binding again re-reads the catalog, so statistics
// changed between two queries are seen by the second.
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

// RowWidth estimates the byte width of a row of the given columns. A priced
// stream's width is its Rel's, computed once when the Rel is interned;
// pricing calls this only for ad hoc column lists (index keys).
func (e *Env) RowWidth(cols []expr.ColID) float64 { return e.addWidth(0, cols) }

// addWidth is RowWidth of a row of width w followed by cols, summed in order
// so that extending a Rel's width gives the bits RowWidth of the whole list
// does.
func (e *Env) addWidth(w float64, cols []expr.ColID) float64 {
	var q string // a stream's columns come in runs per quantifier: resolve q once a run
	var t *catalog.Table
	for _, c := range cols {
		if c.Col == plan.TIDCol {
			w += 8
			continue
		}
		if c.Table != q || t == nil {
			q, t = c.Table, e.BaseTable(c.Table)
		}
		if t != nil {
			if col := t.Column(c.Col); col != nil {
				w += float64(col.AvgWidth())
				continue
			}
		}
		w += 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PagesFor estimates the page count of card rows of the given columns.
func (e *Env) PagesFor(card float64, cols []expr.ColID) float64 {
	return pagesOf(card, e.RowWidth(cols))
}

// pagesOf estimates the page count of card rows of the given byte width.
func pagesOf(card, width float64) float64 {
	pages := math.Ceil(card * width / catalog.PageSize)
	if pages < 1 {
		pages = 1
	}
	return pages
}
