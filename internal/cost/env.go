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
	// Quant maps quantifier (range-variable) names to base-table names;
	// selectivity estimation resolves column statistics through it.
	Quant map[string]string
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

	funcs map[plan.Op]PropertyFunc
	rels  map[relKey]*plan.Rel // interned relational property vectors: bucket heads, chained by Rel.Next
	base  *Env                 // frozen parent of a forked environment
	u     *expr.Universe       // of the bound query: ACCESS resolves its quantifier's table set
}

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
		Quant: map[string]string{},
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
// enumeration: the catalog, weights, quantifier bindings, and property
// functions are shared (they are read-only once optimization starts), while
// the Rel-intern table becomes an overlay — local writes over read-through
// access to the frozen parent — that lives as long as the worker and is never
// merged back: interned Rels are compared by content, never by pointer, so a
// Rel two workers each interned is merely stored twice.
func (e *Env) Fork() *Env {
	// Obs and Arena are deliberately not inherited: the caller wires the
	// worker's own.
	return &Env{
		Cat: e.Cat, W: e.W, Quant: e.Quant, u: e.u, funcs: e.funcs,
		rels: map[relKey]*plan.Rel{},
		base: e,
	}
}

// InternRel returns the canonical *Rel for the given relational property
// triple, deduplicated per optimization: plans that compute the same WHAT
// share one Rel no matter how their HOW differs. Lookups allocate nothing on
// a hit. Forked environments intern locally over the frozen parent chain.
func (e *Env) InternRel(tables expr.TableSet, cols []expr.ColID, preds expr.PredSet) *plan.Rel {
	return e.InternMerged(tables, cols, nil, preds)
}

// InternMerged is InternRel of plan.MergeCols(a, b) — the COLS of a JOIN or a
// GET — finding the Rel before merging: a stored column list is compared with
// the would-be merge in place, and the list is built only on a miss — in the
// environment's arena, like the Rel.
func (e *Env) InternMerged(tables expr.TableSet, a, b []expr.ColID, preds expr.PredSet) *plan.Rel {
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
	r := e.Arena.NewRel(plan.Rel{Tables: tables, Cols: cols, Preds: preds}, e.rels[k])
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

// Bind points the environment at the query it prices plans of: the universe
// its sets are subsets of, and the base table each quantifier ranges over.
func (e *Env) Bind(g *query.Graph) {
	e.u = g.Universe()
	for _, q := range g.Quants {
		e.Quant[q.Name] = q.Table
	}
}

// BaseTable resolves a quantifier to its catalog table; nil for temps or
// unknown quantifiers.
func (e *Env) BaseTable(q string) *catalog.Table {
	name, ok := e.Quant[q]
	if !ok {
		name = q
	}
	return e.Cat.Table(name)
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

// RowWidth estimates the byte width of a stream carrying the given columns.
func (e *Env) RowWidth(cols []expr.ColID) float64 {
	w := 0.0
	for _, c := range cols {
		if c.Col == plan.TIDCol {
			w += 8
			continue
		}
		if t := e.BaseTable(c.Table); t != nil {
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
	pages := math.Ceil(card * e.RowWidth(cols) / catalog.PageSize)
	if pages < 1 {
		pages = 1
	}
	return pages
}
