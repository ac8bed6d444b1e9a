package plan

import (
	"fmt"
	"reflect"
	"testing"

	"stars/internal/expr"
)

// fillArena allocates n priced two-node plans and returns every slot handed
// out, nodes first.
func fillArena(a *Arena, n int) (nodes []*Node, props []*Props) {
	for i := 0; i < n; i++ {
		in := a.NewNode(*scan("T"))
		in.Props = a.NewProps(Props{Site: "NY", Card: float64(i)})
		top := a.NewNode(Node{Op: OpSort, Inputs: []*Node{in}, Origin: "test"})
		top.Props = a.NewProps(Props{Site: "NY", Extra: map[string]string{"k": "v"}})
		nodes = append(nodes, in, top)
		props = append(props, in.Props, top.Props)
	}
	return nodes, props
}

// TestArenaResetKeepsChunks pins the recycling the optimizer's arena pool
// relies on: after the first fill, fill → Reset → refill allocates nothing,
// and the refill lands in the very slots the first fill used.
func TestArenaResetKeepsChunks(t *testing.T) {
	const plans = arenaChunk + 100 // 2.4 chunks of nodes: full chunks and a tail
	a := NewArena()
	fill := func() *Node {
		var first *Node
		for i := 0; i < plans; i++ {
			n := a.NewNode(Node{Op: OpAccess, Table: "T"})
			n.Props = a.NewProps(Props{Card: 1})
			top := a.NewNode(Node{Op: OpSort})
			top.Props = a.NewProps(Props{Card: 2})
			if first == nil {
				first = n
			}
		}
		return first
	}
	first := fill()
	a.Reset()
	if n := testing.AllocsPerRun(10, func() {
		if fill() != first {
			t.Fatal("refill did not start at the first slot of the first chunk")
		}
		a.Reset()
	}); n != 0 {
		t.Errorf("fill → Reset → refill allocates %.1f/op after the first fill, want 0", n)
	}
}

// TestArenaResetClearsUsedSlots: with poison off, a recycled slot holds
// nothing of the plan that lived there — a pooled arena must not pin dead
// plans' inputs, property vectors or strings.
func TestArenaResetClearsUsedSlots(t *testing.T) {
	a := NewArena()
	nodes, props := fillArena(a, arenaChunk) // two full node chunks
	a.Reset()
	for i, n := range nodes {
		if !reflect.DeepEqual(*n, Node{}) {
			t.Fatalf("node slot %d not cleared by Reset: %+v", i, *n)
		}
		if n.Poisoned() {
			t.Fatalf("node slot %d poisoned with poison off", i)
		}
	}
	for i, p := range props {
		if !reflect.DeepEqual(*p, Props{}) {
			t.Fatalf("props slot %d not cleared by Reset: %+v", i, *p)
		}
	}
}

// TestArenaResetPoisonsUsedSlots: with poison on, every slot handed out since
// the last Reset reads as a dead node, slots never handed out do not, and the
// poisoned slots are reused by the next fill like any other.
func TestArenaResetPoisonsUsedSlots(t *testing.T) {
	a := NewArena()
	a.SetPoison(true)
	nodes, props := fillArena(a, arenaChunk/2+10) // one full node chunk and a tail
	a.Reset()
	for i, n := range nodes {
		if !n.Poisoned() {
			t.Fatalf("node slot %d not poisoned by Reset: %+v", i, *n)
		}
	}
	for i, p := range props {
		if !reflect.DeepEqual(*p, Props{}) {
			t.Fatalf("props slot %d not cleared by Reset: %+v", i, *p)
		}
	}
	refill, _ := fillArena(a, len(nodes)/2+1)
	for i, n := range refill[:len(nodes)] {
		if n != nodes[i] {
			t.Fatalf("refill slot %d is not the recycled slot", i)
		}
		if n.Poisoned() {
			t.Fatalf("refilled slot %d still reads poisoned", i)
		}
	}
	if fresh := refill[len(nodes)]; fresh.Poisoned() {
		t.Fatal("a slot never handed out before reads poisoned")
	}
}

// TestArenaInputsFollowTheNode: inputs passed to NewNode are copied into the
// arena and share the node's lifetime — stable while the slab grows by chunks,
// cleared by Reset (a poisoned node reads none), never aliasing the caller's
// list or a neighbour's — and a nil arena puts them on the heap.
func TestArenaInputsFollowTheNode(t *testing.T) {
	a := NewArena()
	leaf := a.NewNode(*scan("T"))
	other := a.NewNode(*scan("U"))
	var nodes []*Node
	for i := 0; i < 2*arenaChunk; i++ { // 1- and 2-input runs straddling chunk ends
		pair := []*Node{leaf, other}
		n := a.NewNode(Node{Op: OpJoin}, pair[:1+i%2]...)
		pair[0] = nil // the arena holds a copy
		nodes = append(nodes, n)
	}
	for i, n := range nodes {
		if len(n.Inputs) != 1+i%2 || n.Inputs[0] != leaf || (i%2 == 1 && n.Inputs[1] != other) {
			t.Fatalf("node %d: inputs %v moved or were overwritten as the slab grew", i, n.Inputs)
		}
		if cap(n.Inputs) != len(n.Inputs) {
			t.Fatalf("node %d: inputs have spare capacity %d: an append would write into a neighbour", i, cap(n.Inputs))
		}
	}
	if many := a.NewNode(Node{Op: OpJoin}, make([]*Node, arenaChunk+1)...); len(many.Inputs) != arenaChunk+1 {
		t.Fatalf("an input list wider than a chunk got %d inputs", len(many.Inputs))
	}

	kept := nodes[0].Inputs
	a.Reset()
	if kept[0] != nil {
		t.Fatal("Reset left an input slot pointing at a dead plan")
	}
	a.SetPoison(true)
	n := a.NewNode(Node{Op: OpSort}, leaf)
	a.Reset()
	if !n.Poisoned() || len(n.Inputs) != 0 {
		t.Fatalf("poisoned node reads stale inputs: %+v", *n)
	}

	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			a.NewNode(Node{Op: OpJoin}, leaf, other)
		}
		a.Reset()
	}); n != 0 {
		t.Errorf("NewNode with inputs allocates %.1f per 100 nodes on a warm arena, want 0", n)
	}

	var none *Arena
	in := []*Node{leaf}
	h := none.NewNode(Node{Op: OpSort}, in...)
	if len(h.Inputs) != 1 || h.Inputs[0] != leaf || &h.Inputs[0] == &in[0] {
		t.Fatalf("nil arena: inputs %v must be a heap copy", h.Inputs)
	}
}

// TestArenaPathsFollowTheProps: a PATHS list JoinPaths builds is arena storage
// with its owner's lifetime — the two lists copied in order, stable and capped
// while the slab grows, no heap object on a warm arena, zeroed by Reset — so
// Detach copies it out with the property vector; a nil arena joins on the heap.
func TestArenaPathsFollowTheProps(t *testing.T) {
	a := NewArena()
	x := []PathInfo{{Name: "T_A", Cols: colList(col("T", "A"))}}
	y := []PathInfo{{Cols: colList(col("T", "B")), Dynamic: true, KeyWidth: 4}}
	var lists [][]PathInfo
	for i := 0; i < arenaChunk; i++ {
		lists = append(lists, a.JoinPaths(x, y))
	}
	for i, l := range lists {
		if len(l) != 2 || cap(l) != 2 || l[0].Name != "T_A" || l[1].KeyWidth != 4 || &l[0] == &x[0] {
			t.Fatalf("list %d: %v (cap %d) is not a capped copy of x then y", i, l, cap(l))
		}
	}
	n := a.NewNode(*scan("T"))
	n.Props = a.NewProps(Props{Paths: lists[0]})
	d := Detach(n)
	a.Reset()
	if lists[0][0].Name != "" || lists[0][1].Dynamic {
		t.Fatal("Reset left a PATHS slot describing a dead plan's index")
	}
	if got := d.Props.Paths; len(got) != 2 || got[0].String() != "T_A(T.A)" || got[1].String() != "_ix*(T.B)" {
		t.Fatalf("detached PATHS read %v after Reset: Detach must copy them out of the arena", got)
	}
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			a.JoinPaths(x, y)
		}
		a.Reset()
	}); n != 0 {
		t.Errorf("JoinPaths allocates %.1f per 100 lists on a warm arena, want 0", n)
	}
	var none *Arena
	if h := none.JoinPaths(x, y); len(h) != 2 || h[1].KeyWidth != 4 || &h[0] == &x[0] {
		t.Fatalf("nil arena: %v must be a heap copy", h)
	}
}

// TestArenaRelsFollowThePlans: interned Rels are arena storage — chained by
// NewRel, no heap object on a warm arena, zeroed by Reset or, under poison,
// rendering a dead COLS — so Detach copies each Rel (once, however many nodes
// share it). COLS is a set over the optimization's vocabulary, which is
// never recycled, so the copy shares it. A nil arena uses the heap.
func TestArenaRelsFollowThePlans(t *testing.T) {
	a := NewArena()
	x := colList(col("T", "A"), col("U", "B")).Set()
	var head *Rel
	for i := 0; i < arenaChunk; i++ {
		if head = a.NewRel(Rel{Tables: tableSet("T"), Cols: x}, head); head.Next() == nil && i > 0 {
			t.Fatalf("Rel %d lost its bucket chain", i)
		}
	}
	leaf := a.NewNode(Node{Op: OpAccess, Table: "T", Cols: head.Cols.List(nil)})
	leaf.Props = a.NewProps(Props{Rel: head})
	top := a.NewNode(Node{Op: OpSort}, leaf)
	top.Props = a.NewProps(Props{Rel: head})
	d := Detach(top)
	a.SetPoison(true)
	a.Reset()
	if head.Next() != nil || head.Cols.String() != string(poisonOp)+"."+string(poisonOp) {
		t.Fatalf("Reset under poison left a live Rel (%v)", *head)
	}
	if r := d.Props.Rel; r != d.Inputs[0].Props.Rel || r.Next() != nil || !r.Cols.Equal(x) ||
		d.Inputs[0].Cols.String() != "T.A,U.B" || d.Props.Describe() != (&Props{Rel: &Rel{Tables: tableSet("T"), Cols: x}}).Describe() {
		t.Fatalf("detached Rel %+v (input's %p, node COLS %v) is not a shared copy of the arena's", *r, d.Inputs[0].Props.Rel, d.Inputs[0].Cols)
	}
	a.SetPoison(false)
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			head = a.NewRel(Rel{Cols: x.Union(x)}, head)
		}
		head = nil
		a.Reset()
	}); n != 0 {
		t.Errorf("NewRel and a COLS union allocate %.1f per 100 Rels on a warm arena, want 0", n)
	}
	var none *Arena
	if r := none.NewRel(Rel{Cols: x}, head); r.Cols.Len() != 2 {
		t.Fatalf("nil arena: %v must be a heap Rel", r.Cols)
	}
}

// TestArenaColListsFollowThePlans: a column list built on the arena takes its
// ordinals from the int slab — capped, so an append cannot reach a neighbour,
// stable while the slab grows, no heap object on a warm arena — and a run
// longer than a chunk comes from the heap. Detach copies a node's Cols and
// SortCols, its ORDER and its PATHS keys out of the slab; a list kept past
// Reset under poison fails loudly when read.
func TestArenaColListsFollowThePlans(t *testing.T) {
	a := NewArena()
	var runs [][]int
	for i := 0; i < arenaChunk; i++ { // 1- to 3-int runs straddling chunk ends
		r := a.Ints(1 + i%3)
		for k := range r {
			r[k] = i
		}
		runs = append(runs, r)
	}
	for i, r := range runs {
		if len(r) != 1+i%3 || cap(r) != len(r) || r[0] != i || r[len(r)-1] != i {
			t.Fatalf("run %d: %v (cap %d) moved, was overwritten or can be appended into a neighbour", i, r, cap(r))
		}
	}
	x, y := colList(col("T", "A"), col("T", "B")), colList(col("U", "C"))
	var lists []expr.ColList
	for i := 0; i < arenaChunk; i++ {
		lists = append(lists, x.Concat(y, a))
	}
	for i, l := range lists {
		if l.String() != "T.A,T.B,U.C" {
			t.Fatalf("list %d reads %s as the slab grew", i, l)
		}
	}
	c, off := a.ints.c, a.ints.off
	if big := a.Ints(arenaChunk + 1); len(big) != arenaChunk+1 || a.ints.c != c || a.ints.off != off {
		t.Fatalf("a run of %d ints took slab slots (chunk %d, offset %d → %d, %d)", len(big), c, off, a.ints.c, a.ints.off)
	}

	leaf := a.NewNode(Node{Op: OpAccess, Table: "T", Cols: lists[0]})
	leaf.Props = a.NewProps(Props{Order: lists[1], Paths: a.JoinPaths(nil, []PathInfo{{Cols: lists[2], Dynamic: true}})})
	top := a.NewNode(Node{Op: OpSort, SortCols: lists[3]}, leaf)
	top.Props = a.NewProps(Props{Order: lists[3]})
	d := Detach(top)
	a.SetPoison(true)
	a.Reset()
	in := d.Inputs[0]
	if got := fmt.Sprint(d.SortCols, d.Props.Order, in.Cols, in.Props.Order, in.Props.Paths); got != "T.A,T.B,U.C T.A,T.B,U.C T.A,T.B,U.C T.A,T.B,U.C [_ix*(T.A,T.B,U.C)]" {
		t.Fatalf("detached column lists read %s after Reset: Detach must copy them out of the arena", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a list kept past Reset under poison rendered without failing")
			}
		}()
		t.Errorf("a list kept past Reset under poison renders %q", lists[0].String())
	}()
	a.SetPoison(false)

	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			x.Concat(y, a)
		}
		a.Reset()
	}); n != 0 {
		t.Errorf("Concat allocates %.1f per 100 lists on a warm arena, want 0", n)
	}
	var none *Arena
	if h := x.Concat(y, none); h.String() != "T.A,T.B,U.C" || len(none.Ints(2)) != 2 {
		t.Fatalf("nil arena: %s must be a heap list", h)
	}
}

// TestDetachCopiesTheDAGInAFewBlocks: Detach keeps the DAG's sharing — a
// subplan two parents read is copied once — and every published ID, takes
// no node, props, Rel, PATHS entry or column ordinal from the arena, and
// copies the whole plan in a fixed handful of allocations, however many
// nodes it has.
func TestDetachCopiesTheDAGInAFewBlocks(t *testing.T) {
	a := NewArena()
	rel := a.NewRel(Rel{Tables: tableSet("T"), Cols: colList(col("T", "A"), col("T", "B")).Set()}, nil)
	props := func(n *Node) *Node {
		n.Props = a.NewProps(Props{Rel: rel, Order: colList(col("T", "B"), col("T", "A")).Concat(expr.ColList{}, a),
			Paths: a.JoinPaths([]PathInfo{{Name: "TA", Cols: colList(col("T", "A"))}}, nil)})
		return n
	}
	shared := props(a.NewNode(Node{Op: OpAccess, Flavor: FlavorHeap, Table: "T", Cols: colList(col("T", "A"), col("T", "B")).Concat(expr.ColList{}, a)}))
	top := shared
	for i := 0; i < 20; i++ {
		filter := props(a.NewNode(Node{Op: OpFilter, Preds: predSet(pred("T", "A", int64(i)))}, shared))
		top = props(a.NewNode(Node{Op: OpJoin, Flavor: MethodNL}, top, filter))
	}
	want, ids := Explain(top), top.ID()
	// The detacher and its node and Rel lists (the node list grows once past
	// 32), then one slice each of nodes, props, inputs, PATHS, Rels and
	// ordinals.
	if n := testing.AllocsPerRun(10, func() { Detach(top) }); n > 10 {
		t.Errorf("Detach of a 41-node plan allocates %.0f times, want at most 10", n)
	}
	d := Detach(top)
	a.SetPoison(true)
	a.Reset()
	if got := Explain(d); got != want || d.ID() != ids || d.Count() != 41 {
		t.Fatalf("detached plan (ID %x, %d nodes) renders\n%s\nwant (ID %x, 41 nodes)\n%s", d.ID(), d.Count(), got, ids, want)
	}
	for m := d; len(m.Inputs) == 2; m = m.Inputs[0] {
		if leaf := m.Inputs[1].Inputs[0]; leaf.Inputs != nil || leaf.Props.Rel != d.Props.Rel || leaf.Op != OpAccess {
			t.Fatalf("a filter's input %+v is not the one shared copy of the scan", leaf)
		}
	}
}
