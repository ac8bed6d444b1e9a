package cost

import (
	"fmt"
	"math"
	"slices"

	"stars/internal/catalog"
	"stars/internal/expr"
	"stars/internal/plan"
)

// btreeFanout mirrors the storage engine's node capacity so estimated index
// heights track actual ones.
const btreeFanout = 64

// cached reports whether a structure of the given page count fits the
// buffer pool, making rescans of it memory-resident (the R*-style buffered
// rescan assumption the storage engine simulates with the same capacity).
func cached(pages float64) bool { return pages <= catalog.BufferPages }

// indexHeight estimates the number of node visits to reach a leaf.
func indexHeight(leafPages float64) float64 {
	if leafPages <= 1 {
		return 1
	}
	return 1 + math.Ceil(math.Log(leafPages)/math.Log(btreeFanout))
}

// Property functions share slices with the (immutable) node and input
// property vectors they price — Cols, Order, SortCols, Paths are never
// copied defensively, only replaced wholesale — and intern the relational
// triple through the environment so plans for the same (TABLES, PREDS, COLS)
// share one Rel.

// accessProps prices ACCESS: converting a stored object (base table, access
// method, or temp) into a stream, optionally projecting columns and applying
// predicates, which changes CARD (Section 3.1).
func accessProps(e *Env, n *plan.Node) (*plan.Props, error) {
	if len(n.Inputs) == 1 {
		return tempAccessProps(e, n)
	}
	t := e.Cat.Table(n.Table)
	if t == nil {
		return nil, fmt.Errorf("cost: ACCESS of unknown table %q", n.Table)
	}
	q := n.Quantifier
	if q == "" {
		q = n.Table
	}
	qi := e.u.Ordinal(q)
	if qi < 0 {
		return nil, fmt.Errorf("cost: ACCESS of %q by unknown quantifier %q", n.Table, q)
	}
	if t != e.Bound.tables[qi] {
		return nil, fmt.Errorf("cost: ACCESS of %q by quantifier %q over another table", n.Table, q)
	}
	qc := e.quants[qi]
	sel := e.SetSelectivity(n.Preds)
	card := float64(t.Card) * sel
	p := e.newProps(plan.Props{
		Rel:   e.InternRel(e.u.Subset(1<<uint(qi)), n.Cols.Set(), n.Preds),
		Site:  e.Cat.SiteOf(n.Table),
		Card:  card,
		Paths: qc.paths,
	})
	switch n.Flavor {
	case plan.FlavorHeap, plan.FlavorBTreeStore:
		p.Order = qc.order
		pages := float64(t.PageCount())
		p.Cost = plan.Cost{IO: pages, CPU: float64(t.Card) + card}
		p.Rescan = p.Cost
		if cached(pages) {
			p.Rescan.IO = 0
		}
	case plan.FlavorIndex:
		k := slices.IndexFunc(t.Paths, func(ap *catalog.AccessPath) bool { return ap.Name == n.Path })
		if k < 0 {
			return nil, fmt.Errorf("cost: ACCESS path %q not on table %q", n.Path, n.Table)
		}
		keyCols := qc.paths[k].Cols
		p.Order = keyCols
		leafPages := e.indexLeafPages(t, t.Paths[k], keyCols)
		matchSel, matched := e.indexMatch(keyCols, n.Preds)
		var io float64
		if matched > 0 {
			io = indexHeight(leafPages) + math.Ceil(matchSel*leafPages)
		} else {
			io = indexHeight(leafPages) + leafPages
			matchSel = 1
		}
		p.Cost = plan.Cost{IO: io, CPU: matchSel*float64(t.Card) + card}
		p.Rescan = p.Cost
		if cached(leafPages) {
			p.Rescan.IO = 0
		}
	default:
		return nil, fmt.Errorf("cost: unknown ACCESS flavor %q", n.Flavor)
	}
	return p, nil
}

// tempAccessProps prices ACCESS over a materialized temp whose producing
// subplan is the node's input.
func tempAccessProps(e *Env, n *plan.Node) (*plan.Props, error) {
	in := n.Inputs[0].Props
	if !in.Temp {
		return nil, fmt.Errorf("cost: ACCESS-with-input requires a materialized (temp) input")
	}
	sel := e.SetSelectivity(n.Preds)
	card := in.Card * sel
	// An ACCESS that lists no columns carries its input's COLS.
	cols := in.Cols()
	if n.Cols.Len() > 0 {
		cols = n.Cols.Set()
	}
	p := e.newProps(plan.Props{
		Rel:   e.InternRel(in.Tables(), cols, in.Preds().Union(n.Preds)),
		Site:  in.Site,
		Temp:  true,
		Card:  card,
		Paths: in.Paths,
	})
	pages := pagesOf(in.Card, rowWidth(in))
	switch n.Flavor {
	case plan.FlavorHeap, plan.FlavorBTreeStore:
		p.Order = in.Order
		delta := plan.Cost{IO: pages, CPU: in.Card + card}
		p.Cost = in.Cost.Add(delta)
		// The temp persists: rescans pay only the re-read, not the build —
		// and nothing at all when the temp stays buffer-resident.
		p.Rescan = delta
		if cached(pages) {
			p.Rescan.IO = 0
		}
	case plan.FlavorIndex:
		// The probed dynamic index is the one whose key is the node's.
		var path *plan.PathInfo
		for i := range in.Paths {
			if pi := &in.Paths[i]; pi.Dynamic && pi.Cols.Equal(n.SortCols) {
				path = pi
				break
			}
		}
		if path == nil {
			return nil, fmt.Errorf("cost: temp ACCESS path %q not in input PATHS", n.PathName())
		}
		p.Order = path.Cols
		leafPages := pagesOf(in.Card, path.KeyWidth)
		matchSel, matched := e.indexMatch(path.Cols, n.Preds)
		if matched == 0 {
			matchSel = 1
		}
		probeIO := indexHeight(leafPages) + math.Ceil(matchSel*leafPages)
		// Probing yields key columns + TIDs; fetching the temp's rows is
		// charged per matching tuple (random pages within the temp).
		fetchIO := math.Min(matchSel*in.Card, pages)
		delta := plan.Cost{IO: probeIO + fetchIO, CPU: matchSel*in.Card + card}
		p.Cost = in.Cost.Add(delta)
		p.Rescan = delta
		if cached(pages + leafPages) {
			p.Rescan.IO = 0
		}
	default:
		return nil, fmt.Errorf("cost: unknown ACCESS flavor %q", n.Flavor)
	}
	return p, nil
}

// rowWidth is a priced stream's row width: its Rel's, which InternRel
// computed once, or the floor of 1 for a hand-built stream with no Rel.
func rowWidth(p *plan.Props) float64 {
	if p.Rel == nil {
		return 1
	}
	return p.Rel.Width
}

// rescanIO is the page cost of re-reading a retained structure: zero when
// it fits the buffer pool.
func rescanIO(pages float64) float64 {
	if cached(pages) {
		return 0
	}
	return pages
}

// indexLeafPages estimates the leaf page count of a catalog index with the
// given key.
func (e *Env) indexLeafPages(t *catalog.Table, path *catalog.AccessPath, key expr.ColList) float64 {
	if path.Pages > 0 {
		return float64(path.Pages)
	}
	keyWidth := float64(8 + e.Width(key)) // TID and key
	lp := math.Ceil(float64(t.Card) * keyWidth / catalog.PageSize)
	if lp < 1 {
		lp = 1
	}
	return lp
}

// getProps prices GET: fetching additional columns by TID for each input
// tuple, optionally applying predicates (Figure 1).
func getProps(e *Env, n *plan.Node) (*plan.Props, error) {
	in := n.Inputs[0].Props
	t := e.Cat.Table(n.Table)
	if t == nil {
		return nil, fmt.Errorf("cost: GET from unknown table %q", n.Table)
	}
	sel := e.SetSelectivity(n.Preds)
	card := in.Card * sel
	// Fetches are sequential — touching at most the table's pages — when
	// the TIDs arrive in physical order: either the probe came through a
	// clustering index, or the TIDs were explicitly SORTed (the Section 4
	// TID-sort STAR). Otherwise each fetch is one random page read.
	tid := e.TID(n.Quantifier)
	sequential := tid.Len() > 0 && plan.OrderSatisfies(in.Order, tid)
	if src := n.Inputs[0]; src.Op == plan.OpAccess && src.Flavor == plan.FlavorIndex {
		if ap, _ := e.Cat.Path(src.Path); ap != nil && ap.Clustered {
			sequential = true
		}
	}
	fetchIO := in.Card
	if sequential {
		fetchIO = math.Min(in.Card, float64(t.PageCount()))
	}
	delta := plan.Cost{IO: fetchIO, CPU: in.Card + card}
	rescanDelta := delta
	if cached(float64(t.PageCount())) {
		rescanDelta.IO = 0
	}
	p := e.newProps(plan.Props{
		Rel:    e.InternRel(in.Tables(), in.Cols().Union(n.Cols.Set()), in.Preds().Union(n.Preds)),
		Order:  in.Order,
		Site:   in.Site,
		Temp:   in.Temp,
		Paths:  in.Paths,
		Card:   card,
		Cost:   in.Cost.Add(delta),
		Rescan: in.Rescan.Add(rescanDelta),
	})
	return p, nil
}

// sortProps prices SORT: it changes the ORDER property (Section 3.1) and
// adds CPU for the sort plus I/O when the input spills past the in-memory
// run budget.
func sortProps(e *Env, n *plan.Node) (*plan.Props, error) {
	in := n.Inputs[0].Props
	pages := pagesOf(in.Card, rowWidth(in))
	cpu := in.Card * math.Max(1, math.Log2(math.Max(in.Card, 2)))
	io := 0.0
	if pages > sortMemPages {
		// One partition-and-merge pass: write runs, read them back.
		io = 2 * pages
	}
	delta := plan.Cost{IO: io, CPU: cpu}
	p := e.cloneProps(in)
	p.Order = n.SortCols
	p.Cost = in.Cost.Add(delta)
	// The sorted result is retained, so rescans pay a re-read (free when it
	// stays buffer-resident).
	p.Rescan = plan.Cost{IO: rescanIO(pages), CPU: in.Card}
	return p, nil
}

// shipProps prices SHIP: it changes the SITE property and adds message and
// byte costs that depend on the stream's size (Section 3.1).
func shipProps(e *Env, n *plan.Node) (*plan.Props, error) {
	in := n.Inputs[0].Props
	bytes := in.Card * rowWidth(in)
	msgs := math.Ceil(bytes/catalog.PageSize) + 1
	delta := plan.Cost{CPU: in.Card, Msg: msgs, Bytes: bytes}
	p := e.cloneProps(in)
	p.Site = n.Site
	p.Temp = false
	// Access paths do not travel with the tuples.
	p.Paths = nil
	p.Cost = in.Cost.Add(delta)
	p.Rescan = in.Rescan.Add(delta)
	return p, nil
}

// storeProps prices STORE: materializing the stream as a temporary table,
// which sets TEMP and makes rescans cheap.
func storeProps(e *Env, n *plan.Node) (*plan.Props, error) {
	in := n.Inputs[0].Props
	pages := pagesOf(in.Card, rowWidth(in))
	delta := plan.Cost{IO: pages, CPU: in.Card}
	p := e.cloneProps(in)
	p.Temp = true
	p.Paths = nil
	p.Cost = in.Cost.Add(delta)
	p.Rescan = plan.Cost{IO: rescanIO(pages), CPU: in.Card}
	return p, nil
}

// filterProps prices FILTER: Glue's last-resort veneer for residual
// predicates.
func filterProps(e *Env, n *plan.Node) (*plan.Props, error) {
	in := n.Inputs[0].Props
	sel := e.SetSelectivity(n.Preds)
	delta := plan.Cost{CPU: in.Card}
	p := e.cloneProps(in)
	p.Rel = e.InternRel(in.Tables(), in.Cols(), in.Preds().Union(n.Preds))
	p.Card = in.Card * sel
	p.Cost = in.Cost.Add(delta)
	p.Rescan = in.Rescan.Add(delta)
	return p, nil
}

// buildIndexProps prices BUILDINDEX: creating an index on a materialized
// temp (the dynamic-index alternative, Section 4.5.3). The output stream is
// the same temp with an extra PATHS entry.
func buildIndexProps(e *Env, n *plan.Node) (*plan.Props, error) {
	in := n.Inputs[0].Props
	if !in.Temp {
		return nil, fmt.Errorf("cost: BUILDINDEX requires a materialized (temp) input")
	}
	tempPages := pagesOf(in.Card, rowWidth(in))
	keyWidth := float64(max(e.Width(n.SortCols), 1))
	ixPages := pagesOf(in.Card, keyWidth)
	delta := plan.Cost{
		IO:  tempPages + ixPages,
		CPU: in.Card * math.Max(1, math.Log2(math.Max(in.Card, 2))),
	}
	p := e.cloneProps(in)
	// Copy-on-append: the input's PATHS slice is shared.
	p.Paths = e.Arena.JoinPaths(in.Paths, []plan.PathInfo{{Cols: n.SortCols, Dynamic: true, KeyWidth: keyWidth}})
	p.Cost = in.Cost.Add(delta)
	p.Rescan = in.Rescan
	return p, nil
}

// joinProps prices JOIN in its three built-in flavors. Dyadic LOLEPOPs
// require both input streams at the same SITE (Section 3.2); mismatches are
// rejected so ill-formed candidate plans die here rather than executing.
func joinProps(e *Env, n *plan.Node) (*plan.Props, error) {
	outer, inner := n.Outer().Props, n.Inner().Props
	if outer.Site != inner.Site {
		return nil, fmt.Errorf("cost: JOIN inputs at different sites (%q vs %q)", outer.Site, inner.Site)
	}
	p := e.newProps(plan.Props{
		Rel: e.InternRel(
			outer.Tables().Union(inner.Tables()),
			outer.Cols().Union(inner.Cols()),
			outer.Preds().Union(inner.Preds()).Union(n.Preds).Union(n.Residual),
		),
		Site:  outer.Site,
		Paths: e.mergePaths(outer.Paths, inner.Paths),
	})
	resSel := e.SetSelectivity(n.Residual)
	switch n.Flavor {
	case plan.MethodNL:
		// The join predicates were pushed into the inner stream, whose
		// per-probe cardinality already reflects them: do not multiply
		// their selectivity again.
		p.Card = outer.Card * inner.Card * resSel
		probes := math.Max(outer.Card, 1)
		delta := plan.Cost{CPU: outer.Card*(1+inner.Card) + p.Card}
		p.Cost = outer.Cost.Add(inner.Cost).
			Add(inner.Rescan.Scale(probes - 1)).
			Add(delta)
		p.Rescan = outer.Rescan.Add(inner.Rescan.Scale(probes)).Add(delta)
		p.Order = outer.Order
	case plan.MethodMG:
		p.Card = outer.Card * inner.Card * e.SetSelectivity(appliedAndResidual(n))
		delta := plan.Cost{CPU: outer.Card + inner.Card + p.Card}
		p.Cost = outer.Cost.Add(inner.Cost).Add(delta)
		p.Rescan = outer.Rescan.Add(inner.Rescan).Add(delta)
		p.Order = outer.Order
	case plan.MethodHA:
		// The hashable predicates are re-checked as residuals (hash
		// collisions, Section 4.5.1); the PredSet union avoids counting
		// their selectivity twice.
		p.Card = outer.Card * inner.Card * e.SetSelectivity(appliedAndResidual(n))
		innerPages := pagesOf(inner.Card, rowWidth(inner))
		outerPages := pagesOf(outer.Card, rowWidth(outer))
		io := 0.0
		if innerPages > hashMemPages {
			// Grace-style partitioning pass over both inputs.
			io = 2 * (innerPages + outerPages)
		}
		delta := plan.Cost{IO: io, CPU: inner.Card + outer.Card + p.Card}
		p.Cost = outer.Cost.Add(inner.Cost).Add(delta)
		p.Rescan = outer.Rescan.Add(inner.Rescan).Add(delta)
		// Bucketizing destroys any input order.
		p.Order = expr.ColList{}
	default:
		return nil, fmt.Errorf("cost: unknown JOIN flavor %q", n.Flavor)
	}
	return p, nil
}

// mergePaths concatenates two PATHS lists without touching either backing
// array; either side may be returned as-is when the other is empty.
func (e *Env) mergePaths(a, b []plan.PathInfo) []plan.PathInfo {
	switch {
	case len(b) == 0:
		return a
	case len(a) == 0:
		return b
	}
	return e.Arena.JoinPaths(a, b)
}

// appliedAndResidual unions a join's method-applied and residual predicates,
// deduplicating structurally equal predicates so selectivity is counted once.
func appliedAndResidual(n *plan.Node) expr.PredSet {
	return n.Preds.Union(n.Residual)
}

// unionProps prices UNION ALL of two streams with compatible columns.
func unionProps(e *Env, n *plan.Node) (*plan.Props, error) {
	a, b := n.Outer().Props, n.Inner().Props
	if a.Site != b.Site {
		return nil, fmt.Errorf("cost: UNION inputs at different sites")
	}
	delta := plan.Cost{CPU: a.Card + b.Card}
	p := e.newProps(plan.Props{
		Rel:    e.InternRel(a.Tables().Union(b.Tables()), a.Cols(), a.Preds().Intersect(b.Preds())),
		Site:   a.Site,
		Card:   a.Card + b.Card,
		Cost:   a.Cost.Add(b.Cost).Add(delta),
		Rescan: a.Rescan.Add(b.Rescan).Add(delta),
	})
	return p, nil
}

// indexAndProps prices IXAND: intersecting two index probes of the same
// quantifier on their TIDs. Output cardinality assumes the two probed
// predicates are independent, the System-R convention: |T|·sel1·sel2, i.e.
// in1.Card · in2.Card / |T|.
func indexAndProps(e *Env, n *plan.Node) (*plan.Props, error) {
	a, b := n.Inputs[0].Props, n.Inputs[1].Props
	if !a.Tables().Equal(b.Tables()) {
		return nil, fmt.Errorf("cost: IXAND inputs cover different tables")
	}
	if a.Site != b.Site {
		return nil, fmt.Errorf("cost: IXAND inputs at different sites")
	}
	names := a.Tables().Slice()
	if len(names) != 1 {
		return nil, fmt.Errorf("cost: IXAND wants single-table inputs")
	}
	t := e.BaseTable(names[0])
	if t == nil || t.Card == 0 {
		return nil, fmt.Errorf("cost: IXAND over unknown table")
	}
	card := a.Card * b.Card / float64(t.Card)
	delta := plan.Cost{CPU: a.Card + b.Card + card}
	p := e.newProps(plan.Props{
		// Positionally, the intersection streams the second input's rows;
		// the first input contributes only its TID filter.
		Rel: e.InternRel(a.Tables(), b.Cols(), a.Preds().Union(b.Preds())),
		// The intersection preserves the second input's delivery order.
		Order:  b.Order,
		Site:   a.Site,
		Card:   card,
		Paths:  a.Paths,
		Cost:   a.Cost.Add(b.Cost).Add(delta),
		Rescan: a.Rescan.Add(b.Rescan).Add(delta),
	})
	return p, nil
}
