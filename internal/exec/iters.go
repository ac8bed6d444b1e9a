package exec

import (
	"fmt"
	"math"
	"sort"

	"stars/internal/catalog"
	"stars/internal/datum"
	"stars/internal/expr"
	"stars/internal/plan"
	"stars/internal/storage"
)

// nodeSchema computes a node's positional output schema structurally,
// without building its Iterator; every Iterator's Schema() agrees with it.
func nodeSchema(n *plan.Node) []expr.ColID {
	switch n.Op {
	case plan.OpAccess:
		if n.Cols.Len() == 0 && len(n.Inputs) == 1 {
			return nodeSchema(n.Inputs[0]) // a temp's whole COLS
		}
		return n.Cols.IDs()
	case plan.OpGet:
		return append(append([]expr.ColID(nil), nodeSchema(n.Inputs[0])...), n.Cols.IDs()...)
	case plan.OpJoin:
		return append(append([]expr.ColID(nil), nodeSchema(n.Inputs[0])...), nodeSchema(n.Inputs[1])...)
	case plan.OpUnion:
		return nodeSchema(n.Inputs[0])
	case plan.OpIndexAnd:
		return nodeSchema(n.Inputs[1])
	default:
		return nodeSchema(n.Inputs[0])
	}
}

// ensureTemp materializes (once per execution) the temp a STORE or
// BUILDINDEX node denotes and returns its handle. Nested-loop rescans hit
// the memo and re-read the temp instead of rebuilding it — matching the cost
// model's Rescan accounting.
func (ec *Ctx) ensureTemp(n *plan.Node) (*tempHandle, error) {
	if h, ok := ec.temps[n]; ok {
		return h, nil
	}
	switch n.Op {
	case plan.OpStore:
		in, err := ec.build(n.Inputs[0])
		if err != nil {
			return nil, err
		}
		schema := in.Schema()
		names := make([]string, len(schema))
		for i, c := range schema {
			names[i] = c.String()
		}
		site := n.Props.Site
		st := ec.rt.Cluster.Store(site)
		width := 8 * len(schema)
		td := st.CreateTable(n.TableName(), names, width)
		if err := in.Open(nil); err != nil {
			return nil, err
		}
		for {
			row, ok, err := in.Next()
			if err != nil {
				in.Close()
				return nil, err
			}
			if !ok {
				break
			}
			td.Heap.Insert(row.Clone(), &st.Counters)
		}
		if err := in.Close(); err != nil {
			return nil, err
		}
		h := &tempHandle{td: td, schema: schema, site: site}
		ec.temps[n] = h
		return h, nil
	case plan.OpBuildIndex:
		h, err := ec.ensureTemp(n.Inputs[0])
		if err != nil {
			return nil, err
		}
		st := ec.rt.Cluster.Store(h.site)
		keys := make([]string, n.SortCols.Len())
		for i, c := range n.SortCols.IDs() {
			keys[i] = c.String()
		}
		if _, err := st.BuildIndex(h.td.Name, n.PathName(), keys); err != nil {
			return nil, err
		}
		ec.temps[n] = h
		return h, nil
	default:
		return nil, fmt.Errorf("exec: %s does not materialize a temp", n.Op)
	}
}

// baseScanIter sequentially scans a base table, projecting the node's
// columns and applying its predicates (including per-probe bound join
// predicates through the outer binding).
type baseScanIter struct {
	ec     *Ctx
	n      *plan.Node
	td     *storage.TableData
	st     *storage.Store
	schema []expr.ColID
	full   []expr.ColID // quantifier-qualified full table schema
	proj   []int        // positions of schema cols in the stored row
	cur    *storage.HeapCursor
	outer  expr.Binding
	bind   *RowBinding
}

func buildAccess(ec *Ctx, n *plan.Node) (Iterator, error) {
	if len(n.Inputs) == 1 {
		return buildTempAccess(ec, n)
	}
	st := ec.storeFor(n.Table)
	td := st.Table(n.Table)
	if td == nil {
		return nil, fmt.Errorf("exec: table %q has no stored data", n.Table)
	}
	if n.Flavor == plan.FlavorIndex {
		return newIndexScan(ec, n, st, td)
	}
	it := &baseScanIter{ec: ec, n: n, td: td, st: st, schema: n.Cols.IDs()}
	for _, c := range td.Heap.Schema() {
		it.full = append(it.full, expr.ColID{Table: n.Quantifier, Col: c})
	}
	it.proj = make([]int, n.Cols.Len())
	for i, c := range n.Cols.IDs() {
		p := td.ColIndex(c.Col)
		if p < 0 {
			return nil, fmt.Errorf("exec: column %s not stored in %s", c, n.Table)
		}
		it.proj[i] = p
	}
	return it, nil
}

func (it *baseScanIter) Schema() []expr.ColID { return it.schema }

func (it *baseScanIter) Open(outer expr.Binding) error {
	it.outer = outer
	it.cur = it.td.Heap.Cursor(&it.st.Counters)
	it.bind = &RowBinding{idx: schemaIndex(it.full), outer: outer}
	return nil
}

func (it *baseScanIter) Next() (datum.Row, bool, error) {
	for {
		_, row, ok := it.cur.Next()
		if !ok {
			return nil, false, nil
		}
		it.bind.row = row
		if !evalPreds(it.n.Preds.Slice(), it.bind) {
			continue
		}
		out := make(datum.Row, len(it.proj))
		for i, p := range it.proj {
			out[i] = row[p]
		}
		it.ec.cpuOps++
		return out, true, nil
	}
}

func (it *baseScanIter) Close() error { it.cur = nil; return nil }

// indexScanIter probes or scans a B-tree access method, yielding the TID
// pseudo-column plus key columns. The probe prefix is computed at Open from
// the node's predicates under the current outer binding — this is where
// sideways information passing becomes an index lookup.
type indexScanIter struct {
	ec      *Ctx
	n       *plan.Node
	st      *storage.Store
	bt      *storage.BTree
	keyCols []expr.ColID
	schema  []expr.ColID
	outPos  []int // for each schema col: -1 = TID, else key position
	entries []storage.Entry
	pos     int
	outer   expr.Binding
}

func newIndexScan(ec *Ctx, n *plan.Node, st *storage.Store, td *storage.TableData) (Iterator, error) {
	bt := td.Indexes[n.Path]
	if bt == nil {
		// Base indexes are built lazily from the catalog definition on
		// first use. The build is setup, not query work: counters are
		// restored so it does not distort estimated-vs-actual validation.
		ap, _ := ec.rt.Cat.Path(n.Path)
		if ap == nil {
			return nil, fmt.Errorf("exec: unknown access path %q", n.Path)
		}
		saved := st.Counters
		var err error
		bt, err = st.BuildIndex(n.Table, n.Path, ap.Cols)
		st.Counters = saved
		// The build's reads must not leave a warm buffer behind either.
		st.Counters.ClearBuffer()
		if err != nil {
			return nil, err
		}
	}
	ap, _ := ec.rt.Cat.Path(n.Path)
	var keyCols []expr.ColID
	if ap != nil {
		for _, c := range ap.Cols {
			keyCols = append(keyCols, expr.ColID{Table: n.Quantifier, Col: c})
		}
	}
	it := &indexScanIter{ec: ec, n: n, st: st, bt: bt, keyCols: keyCols, schema: n.Cols.IDs()}
	for _, c := range n.Cols.IDs() {
		if c.Col == plan.TIDCol {
			it.outPos = append(it.outPos, -1)
			continue
		}
		found := -1
		for i, kc := range keyCols {
			if kc == c {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("exec: index %s does not yield column %s", n.Path, c)
		}
		it.outPos = append(it.outPos, found)
	}
	return it, nil
}

func (it *indexScanIter) Schema() []expr.ColID { return it.schema }

// probeBounds derives the key prefix and range bounds from the node's
// predicates under binding b: a chain of equality predicates on the key
// prefix, optionally one range predicate on the next column.
func probeBounds(preds []expr.Expr, keyCols []expr.ColID, b expr.Binding) (prefix datum.Row, lo, hi datum.Row, residual []expr.Expr) {
	residual = append([]expr.Expr(nil), preds...)
	for _, kc := range keyCols {
		matched := -1
		var val datum.Datum
		var rangeOp expr.CmpOp
		isRange := false
		for i, p := range residual {
			c, ok := p.(*expr.Cmp)
			if !ok {
				continue
			}
			var other expr.Expr
			if lc, ok := c.L.(*expr.Col); ok && lc.ID == kc {
				other = c.R
				rangeOp = c.Op
			} else if rc, ok := c.R.(*expr.Col); ok && rc.ID == kc {
				other = c.L
				rangeOp = c.Op.Flip()
			} else {
				continue
			}
			if referencesCol(other, kc.Table) {
				continue
			}
			v := other.Eval(b)
			if v.IsNull() {
				continue
			}
			matched = i
			val = v
			isRange = c.Op != expr.EQ
			break
		}
		if matched < 0 {
			return prefix, nil, nil, residual
		}
		residual = append(residual[:matched], residual[matched+1:]...)
		if !isRange {
			prefix = append(prefix, val)
			continue
		}
		switch rangeOp {
		case expr.GT, expr.GE:
			lo = append(append(datum.Row{}, prefix...), val)
		case expr.LT, expr.LE:
			hi = append(append(datum.Row{}, prefix...), val)
		}
		return prefix, lo, hi, residual
	}
	return prefix, nil, nil, residual
}

func referencesCol(e expr.Expr, quant string) bool {
	for _, c := range expr.Columns(e) {
		if c.Table == quant {
			return true
		}
	}
	return false
}

func (it *indexScanIter) Open(outer expr.Binding) error {
	it.outer = outer
	it.entries = it.entries[:0]
	it.pos = 0
	prefix, lo, hi, residual := probeBounds(it.n.Preds.Slice(), it.keyCols, outer)
	collect := func(e storage.Entry) bool {
		it.entries = append(it.entries, e)
		return true
	}
	switch {
	case lo != nil || hi != nil:
		it.bt.ScanRange(lo, hi, &it.st.Counters, collect)
	default:
		it.bt.ScanPrefix(prefix, &it.st.Counters, collect)
	}
	// Residual predicates on key columns filter the collected entries.
	if len(residual) > 0 {
		idx := map[expr.ColID]int{}
		for i, kc := range it.keyCols {
			idx[kc] = i
		}
		bind := &RowBinding{idx: idx, outer: outer}
		kept := it.entries[:0]
		for _, e := range it.entries {
			bind.row = e.Key
			if evalPreds(residual, bind) {
				kept = append(kept, e)
			}
		}
		it.entries = kept
	}
	return nil
}

func (it *indexScanIter) Next() (datum.Row, bool, error) {
	if it.pos >= len(it.entries) {
		return nil, false, nil
	}
	e := it.entries[it.pos]
	it.pos++
	out := make(datum.Row, len(it.outPos))
	for i, p := range it.outPos {
		if p < 0 {
			out[i] = packTID(e.TID)
		} else {
			out[i] = e.Key[p]
		}
	}
	it.ec.cpuOps++
	return out, true, nil
}

func (it *indexScanIter) Close() error { it.entries = nil; return nil }

// tempAccessIter scans or probes a materialized temp whose producing subplan
// is the node's input.
type tempAccessIter struct {
	ec     *Ctx
	n      *plan.Node
	h      *tempHandle
	schema []expr.ColID
	proj   []int
	cur    *storage.HeapCursor
	// index-probe state
	probe   bool
	path    string // the probed index's name, rendered once
	entries []storage.TID
	pos     int
	bind    *RowBinding
	outer   expr.Binding
}

func buildTempAccess(ec *Ctx, n *plan.Node) (Iterator, error) {
	it := &tempAccessIter{ec: ec, n: n, schema: nodeSchema(n), probe: n.Flavor == plan.FlavorIndex, path: n.PathName()}
	return it, nil
}

func (it *tempAccessIter) Schema() []expr.ColID { return it.schema }

func (it *tempAccessIter) Open(outer expr.Binding) error {
	h, err := it.ec.ensureTemp(it.n.Inputs[0])
	if err != nil {
		return err
	}
	it.h = h
	it.outer = outer
	if it.proj == nil {
		it.proj = make([]int, len(it.schema))
		for i, c := range it.schema {
			p := h.td.ColIndex(c.String())
			if p < 0 {
				return fmt.Errorf("exec: temp %s lacks column %s", h.td.Name, c)
			}
			it.proj[i] = p
		}
	}
	it.bind = &RowBinding{idx: schemaIndex(h.schema), outer: outer}
	st := it.ec.rt.Cluster.Store(h.site)
	if !it.probe {
		it.cur = h.td.Heap.Cursor(&st.Counters)
		return nil
	}
	bt := h.td.Indexes[it.path]
	if bt == nil {
		return fmt.Errorf("exec: temp %s lacks index %s", h.td.Name, it.path)
	}
	// The node carries the key columns of the dynamic index it probes.
	prefix, lo, hi, _ := probeBounds(it.n.Preds.Slice(), it.n.SortCols.IDs(), outer)
	it.entries = it.entries[:0]
	it.pos = 0
	collect := func(e storage.Entry) bool {
		it.entries = append(it.entries, e.TID)
		return true
	}
	switch {
	case lo != nil || hi != nil:
		bt.ScanRange(lo, hi, &st.Counters, collect)
	default:
		bt.ScanPrefix(prefix, &st.Counters, collect)
	}
	return nil
}

func (it *tempAccessIter) Next() (datum.Row, bool, error) {
	st := it.ec.rt.Cluster.Store(it.h.site)
	for {
		var row datum.Row
		if it.probe {
			if it.pos >= len(it.entries) {
				return nil, false, nil
			}
			var ok bool
			row, ok = it.h.td.Heap.Fetch(it.entries[it.pos], &st.Counters)
			it.pos++
			if !ok {
				return nil, false, fmt.Errorf("exec: dangling TID in temp %s", it.h.td.Name)
			}
		} else {
			var ok bool
			_, row, ok = it.cur.Next()
			if !ok {
				return nil, false, nil
			}
		}
		it.bind.row = row
		if !evalPreds(it.n.Preds.Slice(), it.bind) {
			continue
		}
		out := make(datum.Row, len(it.proj))
		for i, p := range it.proj {
			out[i] = row[p]
		}
		it.ec.cpuOps++
		return out, true, nil
	}
}

func (it *tempAccessIter) Close() error { it.cur = nil; it.entries = nil; return nil }

// getIter fetches additional columns by TID for each input tuple (Figure 1's
// GET).
type getIter struct {
	ec     *Ctx
	n      *plan.Node
	in     Iterator
	td     *storage.TableData
	st     *storage.Store
	schema []expr.ColID
	tidPos int
	fetch  []int
	bind   *RowBinding
}

func buildGet(ec *Ctx, n *plan.Node) (Iterator, error) {
	in, err := ec.build(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	st := ec.storeFor(n.Table)
	td := st.Table(n.Table)
	if td == nil {
		return nil, fmt.Errorf("exec: table %q has no stored data", n.Table)
	}
	it := &getIter{ec: ec, n: n, in: in, td: td, st: st}
	it.tidPos = -1
	for i, c := range in.Schema() {
		if c.Table == n.Quantifier && c.Col == plan.TIDCol {
			it.tidPos = i
			break
		}
	}
	if it.tidPos < 0 {
		return nil, fmt.Errorf("exec: GET input lacks %s.%s", n.Quantifier, plan.TIDCol)
	}
	it.schema = append(append([]expr.ColID(nil), in.Schema()...), n.Cols.IDs()...)
	it.fetch = make([]int, n.Cols.Len())
	for i, c := range n.Cols.IDs() {
		p := td.ColIndex(c.Col)
		if p < 0 {
			return nil, fmt.Errorf("exec: column %s not stored in %s", c, n.Table)
		}
		it.fetch[i] = p
	}
	return it, nil
}

func (it *getIter) Schema() []expr.ColID { return it.schema }

func (it *getIter) Open(outer expr.Binding) error {
	it.bind = &RowBinding{idx: schemaIndex(it.schema), outer: outer}
	return it.in.Open(outer)
}

func (it *getIter) Next() (datum.Row, bool, error) {
	for {
		row, ok, err := it.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		tid, err := unpackTID(row[it.tidPos])
		if err != nil {
			return nil, false, err
		}
		stored, ok := it.td.Heap.Fetch(tid, &it.st.Counters)
		if !ok {
			return nil, false, fmt.Errorf("exec: dangling TID %v in %s", tid, it.n.Table)
		}
		out := make(datum.Row, 0, len(it.schema))
		out = append(out, row...)
		for _, p := range it.fetch {
			out = append(out, stored[p])
		}
		it.bind.row = out
		if !evalPreds(it.n.Preds.Slice(), it.bind) {
			continue
		}
		it.ec.cpuOps++
		return out, true, nil
	}
}

func (it *getIter) Close() error { return it.in.Close() }

// sortIter drains and orders its input.
type sortIter struct {
	ec   *Ctx
	n    *plan.Node
	in   Iterator
	keys []int
	rows []datum.Row
	pos  int
}

func buildSort(ec *Ctx, n *plan.Node) (Iterator, error) {
	in, err := ec.build(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	idx := schemaIndex(in.Schema())
	keys := make([]int, n.SortCols.Len())
	for i, c := range n.SortCols.IDs() {
		p, ok := idx[c]
		if !ok {
			return nil, fmt.Errorf("exec: SORT key %s not in input", c)
		}
		keys[i] = p
	}
	return &sortIter{ec: ec, n: n, in: in, keys: keys}, nil
}

func (it *sortIter) Schema() []expr.ColID { return it.in.Schema() }

func (it *sortIter) Open(outer expr.Binding) error {
	if err := it.in.Open(outer); err != nil {
		return err
	}
	it.rows = it.rows[:0]
	it.pos = 0
	for {
		row, ok, err := it.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		it.rows = append(it.rows, row.Clone())
	}
	if err := it.in.Close(); err != nil {
		return err
	}
	sort.SliceStable(it.rows, func(i, j int) bool {
		return datum.CompareRows(it.rows[i], it.rows[j], it.keys) < 0
	})
	return nil
}

func (it *sortIter) Next() (datum.Row, bool, error) {
	if it.pos >= len(it.rows) {
		return nil, false, nil
	}
	row := it.rows[it.pos]
	it.pos++
	it.ec.cpuOps++
	return row, true, nil
}

func (it *sortIter) Close() error { it.rows = nil; return nil }

// shipIter moves a stream between sites, accounting messages and bytes on
// the simulated network.
type shipIter struct {
	ec    *Ctx
	in    Iterator
	bytes int64
	done  bool
}

func buildShip(ec *Ctx, n *plan.Node) (Iterator, error) {
	in, err := ec.build(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	return &shipIter{ec: ec, in: in}, nil
}

func (it *shipIter) Schema() []expr.ColID { return it.in.Schema() }

func (it *shipIter) Open(outer expr.Binding) error {
	it.bytes = 0
	it.done = false
	return it.in.Open(outer)
}

func (it *shipIter) Next() (datum.Row, bool, error) {
	row, ok, err := it.in.Next()
	if err != nil {
		return nil, false, err
	}
	if !ok {
		if !it.done {
			it.done = true
			msgs := int64(math.Ceil(float64(it.bytes)/catalog.PageSize)) + 1
			for i := int64(0); i < msgs; i++ {
				it.ec.rt.Cluster.Ship(0, 0)
			}
			it.ec.rt.Cluster.BytesShipped += it.bytes
		}
		return nil, false, nil
	}
	it.bytes += int64(row.Width())
	it.ec.cpuOps++
	return row, true, nil
}

func (it *shipIter) Close() error { return it.in.Close() }

// storeIter materializes its input as a temp (once) and streams the temp.
type storeIter struct {
	ec  *Ctx
	n   *plan.Node
	h   *tempHandle
	cur *storage.HeapCursor
}

func buildStore(ec *Ctx, n *plan.Node) (Iterator, error) {
	return &storeIter{ec: ec, n: n}, nil
}

func (it *storeIter) Schema() []expr.ColID { return nodeSchema(it.n) }

func (it *storeIter) Open(outer expr.Binding) error {
	h, err := it.ec.ensureTemp(it.n)
	if err != nil {
		return err
	}
	it.h = h
	st := it.ec.rt.Cluster.Store(h.site)
	it.cur = h.td.Heap.Cursor(&st.Counters)
	return nil
}

func (it *storeIter) Next() (datum.Row, bool, error) {
	_, row, ok := it.cur.Next()
	if !ok {
		return nil, false, nil
	}
	it.ec.cpuOps++
	return row, true, nil
}

func (it *storeIter) Close() error { it.cur = nil; return nil }

// filterIter applies predicates; under a nested-loop probe its bound join
// predicates see the outer tuple through the binding chain.
type filterIter struct {
	ec   *Ctx
	n    *plan.Node
	in   Iterator
	bind *RowBinding
}

func buildFilter(ec *Ctx, n *plan.Node) (Iterator, error) {
	in, err := ec.build(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	return &filterIter{ec: ec, n: n, in: in}, nil
}

func (it *filterIter) Schema() []expr.ColID { return it.in.Schema() }

func (it *filterIter) Open(outer expr.Binding) error {
	it.bind = &RowBinding{idx: schemaIndex(it.in.Schema()), outer: outer}
	return it.in.Open(outer)
}

func (it *filterIter) Next() (datum.Row, bool, error) {
	for {
		row, ok, err := it.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		it.bind.row = row
		if evalPreds(it.n.Preds.Slice(), it.bind) {
			it.ec.cpuOps++
			return row, true, nil
		}
	}
}

func (it *filterIter) Close() error { return it.in.Close() }

// buildIndexIter materializes its input temp, builds the index, and streams
// the temp (it is usually consumed through a temp-access probe instead).
type buildIndexIter struct {
	ec  *Ctx
	n   *plan.Node
	h   *tempHandle
	cur *storage.HeapCursor
}

func buildBuildIndex(ec *Ctx, n *plan.Node) (Iterator, error) {
	return &buildIndexIter{ec: ec, n: n}, nil
}

func (it *buildIndexIter) Schema() []expr.ColID { return nodeSchema(it.n) }

func (it *buildIndexIter) Open(outer expr.Binding) error {
	h, err := it.ec.ensureTemp(it.n)
	if err != nil {
		return err
	}
	it.h = h
	st := it.ec.rt.Cluster.Store(h.site)
	it.cur = h.td.Heap.Cursor(&st.Counters)
	return nil
}

func (it *buildIndexIter) Next() (datum.Row, bool, error) {
	_, row, ok := it.cur.Next()
	if !ok {
		return nil, false, nil
	}
	it.ec.cpuOps++
	return row, true, nil
}

func (it *buildIndexIter) Close() error { it.cur = nil; return nil }

// ixAndIter intersects two index-probe streams of the same quantifier on
// their TID pseudo-column (the index-ANDing access path). The first input is
// drained into a TID set; the second streams through it.
type ixAndIter struct {
	ec    *Ctx
	left  Iterator
	right Iterator
	ltid  int
	rtid  int
	set   map[datum.Datum]bool
}

func buildIndexAnd(ec *Ctx, n *plan.Node) (Iterator, error) {
	left, err := ec.build(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	right, err := ec.build(n.Inputs[1])
	if err != nil {
		return nil, err
	}
	it := &ixAndIter{ec: ec, left: left, right: right}
	it.ltid, it.rtid = -1, -1
	for i, c := range left.Schema() {
		if c.Col == plan.TIDCol {
			it.ltid = i
		}
	}
	for i, c := range right.Schema() {
		if c.Col == plan.TIDCol {
			it.rtid = i
		}
	}
	if it.ltid < 0 || it.rtid < 0 {
		return nil, fmt.Errorf("exec: IXAND inputs must carry the TID column")
	}
	return it, nil
}

func (it *ixAndIter) Schema() []expr.ColID { return it.right.Schema() }

func (it *ixAndIter) Open(outer expr.Binding) error {
	it.set = map[datum.Datum]bool{}
	if err := it.left.Open(outer); err != nil {
		return err
	}
	for {
		row, ok, err := it.left.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		it.set[row[it.ltid]] = true
		it.ec.cpuOps++
	}
	if err := it.left.Close(); err != nil {
		return err
	}
	return it.right.Open(outer)
}

func (it *ixAndIter) Next() (datum.Row, bool, error) {
	for {
		row, ok, err := it.right.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		it.ec.cpuOps++
		if it.set[row[it.rtid]] {
			return row, true, nil
		}
	}
}

func (it *ixAndIter) Close() error {
	it.set = nil
	return it.right.Close()
}
