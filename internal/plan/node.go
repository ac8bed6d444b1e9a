// Package plan defines query execution plans (QEPs): directed graphs of
// LOw-LEvel Plan OPerators (LOLEPOPs) in the sense of the paper's Section 2,
// together with the property vector of Section 3 that summarizes the work a
// plan has done. Plans are what STARs construct, what Glue patches, what the
// cost model prices, and what the evaluator interprets.
package plan

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"stars/internal/expr"
)

// Op identifies a LOLEPOP. The set is open: Section 5's extensibility story
// is that a Database Customizer can add an Op by registering a property
// function (package cost) and an execution routine (package exec) — no
// optimizer code changes.
type Op string

// The built-in LOLEPOPs.
const (
	// OpAccess converts a stored object into a stream of tuples,
	// optionally projecting columns and applying predicates. Flavors:
	// FlavorHeap and FlavorBTreeStore scan base tables per their storage
	// manager; FlavorIndex scans an access method (yielding key columns
	// plus the TID pseudo-column).
	OpAccess Op = "ACCESS"
	// OpGet fetches additional columns of a table by TID, for each tuple
	// of its input stream, optionally applying predicates (Figure 1).
	OpGet Op = "GET"
	// OpSort orders its input stream by a column list.
	OpSort Op = "SORT"
	// OpShip moves its input stream to another site.
	OpShip Op = "SHIP"
	// OpStore materializes its input stream as a temporary table.
	OpStore Op = "STORE"
	// OpJoin joins two streams. Flavors: MethodNL (nested-loop), MethodMG
	// (sort-merge), MethodHA (hash).
	OpJoin Op = "JOIN"
	// OpFilter applies predicates to a stream; Glue's last-resort veneer.
	OpFilter Op = "FILTER"
	// OpBuildIndex creates an index on a stored (temp) table — the
	// dynamic-index alternative of Section 4.5.3.
	OpBuildIndex Op = "BUILDINDEX"
	// OpUnion concatenates two streams with identical columns.
	OpUnion Op = "UNION"
	// OpIndexAnd intersects two index-ACCESS streams of the same table on
	// their TIDs — the "ANDing of multiple indexes for a single table"
	// among Section 4's omitted STARs.
	OpIndexAnd Op = "IXAND"
)

// Access flavors.
const (
	// FlavorHeap is a physically-sequential scan of a heap table.
	FlavorHeap = "heap"
	// FlavorBTreeStore is a scan of a B-tree-organized base table.
	FlavorBTreeStore = "btree"
	// FlavorIndex is a scan or probe of an access method (index).
	FlavorIndex = "index"
)

// Join method flavors.
const (
	// MethodNL is nested-loop join.
	MethodNL = "NL"
	// MethodMG is sort-merge join.
	MethodMG = "MG"
	// MethodHA is hash join.
	MethodHA = "HA"
)

// TIDCol is the name of the tuple-identifier pseudo-column an index ACCESS
// yields and GET consumes.
const TIDCol = "_tid"

// Node is one LOLEPOP in a QEP. Nodes form a DAG (common subplans are
// shared); arrows point toward the source of the stream as in Figure 1, i.e.
// Inputs are the streams this operator consumes.
//
// Which fields are meaningful depends on Op; Validate enforces the shape.
// Nodes are immutable once built and priced — Glue and the STAR engine build
// new veneer nodes rather than mutating.
type Node struct {
	// Op is the LOLEPOP.
	Op Op
	// Flavor refines the Op: join method, or access flavor.
	Flavor string
	// Table is the stored object accessed (ACCESS: base table; GET: table
	// fetched from). A temp has no stored name: TableName renders one from
	// the plan it holds.
	Table string
	// Quantifier is the range-variable name this access serves; produced
	// columns are Quantifier-qualified. For multi-table temps it is empty.
	Quantifier string
	// Path is the catalog access-path name (ACCESS index flavor). A dynamic
	// index has none: PathName renders one.
	Path string
	// Cols are the columns this operator retrieves or adds (ACCESS, GET).
	Cols expr.ColList
	// Preds are the predicates this operator applies: ACCESS/GET
	// pushdowns, FILTER predicates, or — for JOIN — the join predicates
	// the method itself applies (parameter 4 of the JOIN reference in
	// Section 4.4). Stored as a canonical PredSet so the cost model and
	// the plan key reuse the set's cached keys and column analysis instead
	// of rebuilding them per pricing call.
	Preds expr.PredSet
	// Residual are predicates applied after the join (parameter 5 of the
	// JOIN reference).
	Residual expr.PredSet
	// SortCols is the SORT key or BUILDINDEX key column list, or the key of
	// the dynamic index an index ACCESS over a temp probes.
	SortCols expr.ColList
	// Site is the SHIP destination site.
	Site string
	// Inputs are the consumed streams: 1 for unary ops, 2 for JOIN/UNION
	// (outer first), 0 for ACCESS of a stored object.
	Inputs []*Node
	// Props is the computed output property vector; set by the cost
	// package's property functions when the node is priced.
	Props *Props
	// Origin records which STAR alternative produced this node, for
	// explain/tracing ("the origin of any execution plan", Section 1).
	Origin string

	// id is the identity ID publishes: 0 until first computed, read and
	// written with sync/atomic only.
	id uint64
}

// TableName renders the stored object the node reads or writes: its catalog
// table or, for a STORE and an ACCESS over a temp, the temp, named
// "_t<ID of the plan it stores>". It is what EXPLAIN, events, errors and the
// executor's temp store call the temp.
func (n *Node) TableName() string {
	if n.Table == "" && (n.Op == OpStore || n.Op == OpAccess && len(n.Inputs) == 1) {
		if s := n.stored(); s != nil {
			return "_t" + s.Fingerprint()
		}
	}
	return n.Table
}

// PathName renders the access path the node probes or builds: its catalog
// index or, for a BUILDINDEX and an index ACCESS over a temp, the dynamic
// index, named "_ix<hash of the stored plan's ID and the index key>".
func (n *Node) PathName() string {
	if n.Path == "" && (n.Op == OpBuildIndex || n.Op == OpAccess && n.Flavor == FlavorIndex && len(n.Inputs) == 1) {
		if s := n.stored(); s != nil {
			w := keyWriter{h: offset64}
			w.word(s.ID())
			writeCols(&w, n.SortCols)
			return "_ix" + FormatID(w.h)
		}
	}
	return n.Path
}

// stored returns the plan held by the temp n reads or writes: the input of
// the nearest STORE down n's first inputs, or nil.
func (n *Node) stored() *Node {
	for m := n; m != nil; m = m.Outer() {
		if m.Op == OpStore {
			return m.Outer()
		}
	}
	return nil
}

// Outer returns the first input (the outer stream of a join).
func (n *Node) Outer() *Node {
	if len(n.Inputs) > 0 {
		return n.Inputs[0]
	}
	return nil
}

// Inner returns the second input (the inner stream of a join).
func (n *Node) Inner() *Node {
	if len(n.Inputs) > 1 {
		return n.Inputs[1]
	}
	return nil
}

// Validate checks the operator-specific shape of the node (input arity,
// required fields). It does not recurse.
func (n *Node) Validate() error {
	want, known := 0, false
	switch n.Op {
	case OpGet, OpSort, OpShip, OpStore, OpFilter, OpBuildIndex:
		want, known = 1, true
	case OpJoin, OpUnion, OpIndexAnd:
		want, known = 2, true
	}
	if known && len(n.Inputs) != want {
		return fmt.Errorf("plan: %s expects %d inputs, has %d", n.Op, want, len(n.Inputs))
	}
	switch n.Op {
	case OpAccess:
		// ACCESS of a base object has no inputs and names its table or
		// path; ACCESS of a temp keeps the temp-producing subplan as its
		// single input, which identifies the temp, so the QEP remains a
		// self-contained DAG.
		switch {
		case len(n.Inputs) > 1:
			return fmt.Errorf("plan: ACCESS expects at most 1 input, has %d", len(n.Inputs))
		case len(n.Inputs) == 1:
			if n.Flavor == FlavorIndex && n.SortCols.Len() == 0 {
				return fmt.Errorf("plan: index ACCESS over a temp needs the probed key")
			}
		case n.Table == "" && n.Path == "":
			return fmt.Errorf("plan: ACCESS needs a table or path")
		case n.Flavor == FlavorIndex && n.Path == "":
			return fmt.Errorf("plan: index ACCESS needs a path")
		}
	case OpGet:
		if n.Table == "" {
			return fmt.Errorf("plan: GET needs a table")
		}
	case OpSort:
		if n.SortCols.Len() == 0 {
			return fmt.Errorf("plan: SORT needs sort columns")
		}
	case OpShip:
		// The empty site is the query site, which is legal.
	case OpJoin:
		if n.Flavor == "" {
			return fmt.Errorf("plan: JOIN needs a method flavor")
		}
	case OpBuildIndex:
		if n.SortCols.Len() == 0 {
			return fmt.Errorf("plan: BUILDINDEX needs key columns")
		}
	}
	return nil
}

// Walk visits the plan tree pre-order. Shared subplans are visited once per
// reference; callers needing each node once should dedupe on pointer.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, in := range n.Inputs {
		in.Walk(fn)
	}
}

// Count returns the number of distinct nodes in the DAG.
func (n *Node) Count() int {
	seen := map[*Node]bool{}
	var rec func(*Node)
	rec = func(m *Node) {
		if seen[m] {
			return
		}
		seen[m] = true
		for _, in := range m.Inputs {
			rec(in)
		}
	}
	rec(n)
	return len(seen)
}

// ID returns the plan's identity: a 64-bit FNV-1a hash of the node's own
// operator and parameters followed by each input's ID, so two plans with the
// same operators, parameters and inputs share it across runs and processes,
// and computing it is O(1) per node once the inputs have theirs. It is the one
// identity a node has — the rule engine dedupes on it, events and provenance
// carry it as a word, Fingerprint renders it and a temp's name is made from
// it. Computed on first use (no string is built) and published atomically, so
// any number of goroutines may ask a shared node; 0 means "not yet computed"
// and is never rendered.
func (n *Node) ID() uint64 {
	if id := atomic.LoadUint64(&n.id); id != 0 {
		return id
	}
	w := keyWriter{h: offset64}
	n.writeOwn(&w, false)
	w.char(')')
	for _, in := range n.Inputs {
		w.word(in.ID())
	}
	atomic.StoreUint64(&n.id, w.h)
	return w.h
}

// FormatID renders an identity the way every display boundary shows it: 16
// lower-case hex digits.
func FormatID(id uint64) string {
	s := strconv.FormatUint(id, 16)
	return "0000000000000000"[len(s):] + s
}

// Fingerprint renders ID for display: what lets provenance diff two
// optimizations and lets the CLI's -whynot address a plan the optimizer
// discarded.
func (n *Node) Fingerprint() string { return FormatID(n.ID()) }

// ShapeFingerprint is Fingerprint with every predicate literal hashed as
// "?": the plans one query template gets for different constants share it
// unless their operators, methods, access paths or join order differ. Meant
// for one call per chosen plan.
func (n *Node) ShapeFingerprint() string {
	w := keyWriter{h: offset64}
	n.writeKey(&w, true)
	return FormatID(w.h)
}

// Key renders the plan's canonical string — operators, parameters, and
// inputs, recursively, but not properties. The transformational baseline
// memoizes on it, and tests use it for plan equality.
func (n *Node) Key() string {
	var b strings.Builder
	n.writeKey(&keyWriter{b: &b}, false)
	return b.String()
}

const (
	offset64 uint64 = 14695981039346656037
	prime64  uint64 = 1099511628211
)

// keyWriter is what writeKey renders into: the key string when b is set,
// otherwise an FNV-1a 64 hash of the same bytes. A concrete type, so hashing
// a plan allocates nothing.
type keyWriter struct {
	h uint64
	b *strings.Builder
}

func (w *keyWriter) str(s string) {
	if w.b != nil {
		w.b.WriteString(s)
		return
	}
	h := w.h
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime64
	}
	w.h = h
}

// word hashes x's eight bytes, low first.
func (w *keyWriter) word(x uint64) {
	for i := 0; i < 8; i++ {
		w.char(byte(x >> (8 * i)))
	}
}

func (w *keyWriter) char(c byte) {
	if w.b != nil {
		w.b.WriteByte(c)
		return
	}
	w.h = (w.h ^ uint64(c)) * prime64
}

// writeKey renders the canonical key; with shape set, predicate literals
// render as "?" (see ShapeFingerprint).
func (n *Node) writeKey(b *keyWriter, shape bool) {
	sep := n.writeOwn(b, shape)
	for _, in := range n.Inputs {
		if sep {
			b.char(';')
		}
		sep = true
		in.writeKey(b, shape)
	}
	b.char(')')
}

// writeOwn renders the node's operator and parameters up to its inputs and
// reports whether it wrote any parameter.
func (n *Node) writeOwn(b *keyWriter, shape bool) bool {
	b.str(string(n.Op))
	if n.Flavor != "" {
		b.char('/')
		b.str(n.Flavor)
	}
	b.char('(')
	sep := false
	tag := func(t string) {
		if sep {
			b.char(';')
		}
		sep = true
		b.str(t)
	}
	if n.Table != "" {
		tag("t=")
		b.str(n.Table)
	}
	if n.Quantifier != "" {
		tag("q=")
		b.str(n.Quantifier)
	}
	if n.Path != "" {
		tag("p=")
		b.str(n.Path)
	}
	if n.Cols.Len() > 0 {
		tag("c=")
		writeCols(b, n.Cols)
	}
	if !n.Preds.Empty() {
		tag("w=")
		writePredKeys(b, n.Preds, shape)
	}
	if !n.Residual.Empty() {
		tag("r=")
		writePredKeys(b, n.Residual, shape)
	}
	if n.SortCols.Len() > 0 {
		tag("s=")
		writeCols(b, n.SortCols)
	}
	if n.Op == OpShip || n.Site != "" {
		tag("@=")
		b.str(n.Site)
	}
	return sep
}

// writeCols renders cols exactly as ColList.String but without allocating.
func writeCols(b *keyWriter, cols expr.ColList) {
	for k := 0; k < cols.Len(); k++ {
		if k > 0 {
			b.char(',')
		}
		c := cols.ID(k)
		b.str(c.Table)
		b.char('.')
		b.str(c.Col)
	}
}

// writePredKeys renders the set's canonical key exactly as PredSet.Key but
// without allocating, using the per-predicate cached keys. With shape set it
// renders the literal-free keys instead, in their own order: the set's order
// follows the literals.
func writePredKeys(b *keyWriter, ps expr.PredSet, shape bool) {
	sep := false
	write := func(_ expr.Expr, key string) {
		if sep {
			b.char('&')
		}
		sep = true
		b.str(key)
	}
	if shape {
		ps.ForEachShape(write)
	} else {
		ps.ForEach(write)
	}
}
