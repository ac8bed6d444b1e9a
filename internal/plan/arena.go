package plan

import (
	"math"
	"slices"

	"stars/internal/expr"
)

// Arena is a chunked slab allocator for plans and what they are made of. One
// optimization builds millions of transient candidate nodes; allocating them
// individually makes the global heap the enumeration bottleneck. An arena
// hands out slots from chunks instead — one heap allocation per chunk — and
// Reset rewinds it so the next optimization fills the same chunks again.
//
// Concurrency: an Arena is single-goroutine. The rank-parallel enumeration
// keeps one arena per worker goroutine for the whole optimization; a node
// never moves, so plans built by one worker stay valid for every later rank.
//
// Lifetime: nodes stay valid as long as the arena is reachable; an arena that
// is simply dropped is reclaimed by the GC like any other storage, so callers
// that never Reset need no discipline at all. After a Reset every node the
// arena ever produced is invalid — its slot will be handed out again — and
// anything that must outlive it (a served best plan, a provenance DAG, a
// flight-recorder capture) must be copied out with Detach first. Poisoning
// (SetPoison) overwrites recycled slots so an escaped pointer fails loudly in
// tests instead of silently reading stale plans.
type Arena struct {
	nodes Slab[Node]
	props Slab[Props]
	// inputs backs the Inputs of nodes built with NewNode(n, inputs...).
	inputs Slab[*Node]
	// paths and rels back JoinPaths and NewRel.
	paths Slab[PathInfo]
	rels  Slab[Rel]
	// ints backs the column lists a reference builds (Ints).
	ints   Slab[int]
	poison bool
}

// A slab's first chunk holds firstChunk slots and each next one twice the
// last, up to arenaChunk (512 nodes ≈ 160 KB): a slab that serves a two-table
// query, or one overlay's few cells, stays small.
const (
	arenaChunk = 512
	firstChunk = 16
)

// Slab hands out slots of T from chunks it allocates once and keeps across
// Rewind. Slots never move, so their addresses are stable until Rewind. A
// Slab is single-goroutine; the zero value is ready to use.
type Slab[T any] struct {
	chunks [][]T
	c, off int // the next free slot is chunks[c][off]
}

// Next returns the address of the next free slot.
func (s *Slab[T]) Next() *T { return &s.Run(1)[0] }

// Run returns n adjacent free slots, capped so an append cannot reach the
// neighbours; more than a chunk's worth come from the heap. A chunk tail too
// short for them is skipped (Rewind clears it with the rest).
func (s *Slab[T]) Run(n int) []T {
	if n > arenaChunk {
		return make([]T, n)
	}
	for ; ; s.c, s.off = s.c+1, 0 {
		if s.c == len(s.chunks) {
			s.chunks = append(s.chunks, make([]T, min(firstChunk<<min(s.c, 5), arenaChunk)))
		}
		if chunk := s.chunks[s.c]; s.off+n <= len(chunk) {
			s.off += n
			return chunk[s.off-n : s.off : s.off]
		}
	}
}

// Rewind frees every slot handed out, zeroing it or, when fill is non-nil,
// overwriting it with *fill.
func (s *Slab[T]) Rewind(fill *T) {
	s.used(func(chunk []T) {
		if fill == nil {
			clear(chunk)
			return
		}
		for i := range chunk {
			chunk[i] = *fill
		}
	})
	s.c, s.off = 0, 0
}

// used calls f with each chunk's run of slots handed out since Rewind
// (including any tail Run skipped).
func (s *Slab[T]) used(f func(chunk []T)) {
	for c := 0; c <= s.c && c < len(s.chunks); c++ {
		chunk := s.chunks[c]
		if c == s.c {
			chunk = chunk[:s.off]
		}
		f(chunk)
	}
}

// poisonOp marks recycled node slots when poisoning is on; any consumer that
// kept a pointer across Reset sees an operator no rule ever built.
const poisonOp Op = "__POISONED__"

// NewArena builds an empty arena.
func NewArena() *Arena { return &Arena{} }

// SetPoison toggles poison-on-reset (used by lifetime tests; off by default).
func (a *Arena) SetPoison(on bool) { a.poison = on }

// NewNode copies n into the next slot and returns its stable address; inputs,
// when given, are copied into the arena beside it and become the node's Inputs,
// so the caller's argument list never reaches the heap. A nil arena falls back
// to the heap, so plan construction code works unchanged outside an
// optimization (tests, tools, hand-built plans).
func (a *Arena) NewNode(n Node, inputs ...*Node) *Node {
	if a == nil {
		m := n
		if len(inputs) > 0 {
			m.Inputs = slices.Clone(inputs)
		}
		return &m
	}
	p := a.nodes.Next()
	*p = n
	if len(inputs) > 0 {
		p.Inputs = append(a.inputs.Run(len(inputs))[:0], inputs...)
	}
	return p
}

// NewProps copies p into the next props slot and returns its stable address;
// nil-arena falls back to the heap like NewNode.
func (a *Arena) NewProps(p Props) *Props {
	if a == nil {
		q := p
		return &q
	}
	q := a.props.Next()
	*q = p
	return q
}

// JoinPaths returns x followed by y as one PATHS list in the arena (on the
// heap for a nil arena); neither argument is retained or written.
func (a *Arena) JoinPaths(x, y []PathInfo) []PathInfo {
	if a == nil {
		return slices.Concat(x, y)
	}
	return append(append(a.paths.Run(len(x) + len(y))[:0], x...), y...)
}

// Ints makes the arena an expr.Alloc: n int slots, capped so an append cannot
// reach the neighbours; a nil arena, or more than a chunk's worth, use the heap.
func (a *Arena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return a.ints.Run(n)
}

// NewRel copies r into the next Rel slot, chained ahead of next — the head
// of the intern bucket it joins (cost.Env) — and returns its stable address;
// nil-arena falls back to the heap like NewNode.
func (a *Arena) NewRel(r Rel, next *Rel) *Rel {
	r.next = next
	if a == nil {
		q := r
		return &q
	}
	q := a.rels.Next()
	*q = r
	return q
}

// EachRel calls f with every Rel NewRel placed in the arena since its last
// Reset.
func (a *Arena) EachRel(f func(*Rel)) {
	a.rels.used(func(chunk []Rel) {
		for i := range chunk {
			f(&chunk[i])
		}
	})
}

// Reset recycles the arena for the next optimization: every slot the arena
// handed out becomes invalid and free, and the chunks are kept. Used slots
// are zeroed, so a pooled arena pins nothing the dead plans pointed at; with
// poisoning on, node, Rel and int slots are instead overwritten with a marker
// so escaped pointers read recognizably dead plans and Rels, and a column
// list read after Reset names no column (rendering it panics).
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	var node *Node
	var rel *Rel
	var ord *int
	if a.poison {
		node = &Node{Op: poisonOp, Origin: "poisoned: plan used after arena Reset"}
		rel = &poisonRel
		ord = &poisonOrd
	}
	a.nodes.Rewind(node)
	a.props.Rewind(nil)
	a.inputs.Rewind(nil)
	a.paths.Rewind(nil)
	a.rels.Rewind(rel)
	a.ints.Rewind(ord)
}

// poisonOrd is what Reset writes into recycled int slots when poisoning is
// on: an ordinal no vocabulary has.
var poisonOrd = math.MinInt

// poisonRel is what Reset writes into recycled Rel slots when poisoning is
// on: its one column renders as the poison marker.
var poisonRel = func() Rel {
	q := string(poisonOp)
	u, _ := expr.NewUniverse([]string{q}, nil)
	v := expr.NewVocab(u, []expr.ColID{{Table: q, Col: q}})
	return Rel{Cols: v.Set(v.ID(0))}
}()

// Poisoned reports whether n is a recycled arena slot (only meaningful when
// the arena had poisoning on).
func (n *Node) Poisoned() bool { return n.Op == poisonOp }

// Detach deep-copies the plan DAG rooted at n out of any arena onto the
// heap, preserving structure sharing — of nodes and of Rels — and published
// identities. Consumers that hold a plan beyond Result.Release — serve
// responses, incident captures, provenance DAGs — detach it first. Inputs,
// PATHS lists, interned Rels and column lists (Cols, SortCols, ORDER, PATHS
// keys) may be arena storage (NewNode, JoinPaths, NewRel, Ints) and are copied
// with the node; column sets and the vocabulary are never recycled, and shared.
func Detach(n *Node) *Node {
	if n == nil {
		return nil
	}
	d := &detacher{src: make([]*Node, 0, 32), rels: make([]*Rel, 0, 32)}
	d.visit(n)
	nodes, props, inputs := make([]Node, len(d.src)), make([]Props, len(d.src)), make([]*Node, d.nInputs)
	paths, rels := make([]PathInfo, d.nPaths), make([]Rel, len(d.rels))
	d.ints = make([]int, d.nInts)
	for i, r := range d.rels {
		rels[i] = Rel{Tables: r.Tables, Cols: r.Cols, Preds: r.Preds, Width: r.Width}
	}
	for i, n := range d.src {
		m := &nodes[i]
		*m = *n
		m.Cols, m.SortCols = n.Cols.Concat(expr.ColList{}, d), n.SortCols.Concat(expr.ColList{}, d)
		if len(n.Inputs) > 0 {
			m.Inputs = take(&inputs, len(n.Inputs))
			for k, in := range n.Inputs {
				m.Inputs[k] = &nodes[slices.Index(d.src, in)]
			}
		}
		if n.Props == nil {
			continue
		}
		q := &props[i]
		*q = *n.Props
		q.Order = q.Order.Concat(expr.ColList{}, d)
		if len(q.Paths) > 0 {
			q.Paths = append(take(&paths, len(q.Paths))[:0], q.Paths...)
			for k := range q.Paths {
				q.Paths[k].Cols = q.Paths[k].Cols.Concat(expr.ColList{}, d)
			}
		}
		if q.Rel != nil {
			q.Rel = &rels[slices.Index(d.rels, q.Rel)]
		}
		m.Props = q
	}
	return &nodes[0]
}

// detacher gathers what Detach copies: the DAG's distinct nodes and Rels in
// first-visit order, and how many inputs, PATHS entries and column ordinals
// they hold. A plan has tens of nodes, so a linear search finds
// them faster than a map.
type detacher struct {
	src                    []*Node
	rels                   []*Rel
	nInputs, nPaths, nInts int
	ints                   []int
}

func (d *detacher) visit(n *Node) {
	if slices.Contains(d.src, n) {
		return
	}
	d.src = append(d.src, n)
	d.nInputs += len(n.Inputs)
	d.nInts += n.Cols.Len() + n.SortCols.Len()
	if p := n.Props; p != nil {
		d.nPaths += len(p.Paths)
		d.nInts += p.Order.Len()
		for _, pa := range p.Paths {
			d.nInts += pa.Cols.Len()
		}
		if p.Rel != nil && !slices.Contains(d.rels, p.Rel) {
			d.rels = append(d.rels, p.Rel)
		}
	}
	for _, in := range n.Inputs {
		d.visit(in)
	}
}

// Ints makes the detacher the expr.Alloc the copied column lists take their
// ordinals from.
func (d *detacher) Ints(n int) []int { return take(&d.ints, n) }

// take cuts the first n slots off *s, capped so an append cannot reach the
// rest.
func take[T any](s *[]T, n int) []T {
	t := (*s)[:n:n]
	*s = (*s)[n:]
	return t
}
