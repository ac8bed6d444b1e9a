package plan

import "slices"

// Arena is a chunked slab allocator for plan Nodes and Props. One
// optimization builds millions of transient candidate nodes; allocating them
// individually makes the global heap the enumeration bottleneck. An arena
// hands out slots from fixed-size chunks instead — one heap allocation per
// chunk — and Reset rewinds it so the next optimization fills the same
// chunks again.
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
	nodes slab[Node]
	props slab[Props]
	// inputs backs the Inputs of nodes built with NewNode(n, inputs...).
	inputs slab[*Node]
	// paths backs the PATHS lists JoinPaths builds.
	paths  slab[PathInfo]
	poison bool
}

// arenaChunk is the slab size. 512 nodes ≈ 160 KB per chunk: big enough to
// amortize the heap allocation a thousandfold, small enough that a
// two-table query's arena stays small.
const arenaChunk = 512

// slab hands out slots of T from arenaChunk-sized chunks. Chunks are never
// resliced or freed, so used counts slots from the start of chunks[0].
type slab[T any] struct {
	chunks [][]T
	used   int
}

// next returns the address of the next free slot, growing by one chunk when
// every chunk is full.
func (s *slab[T]) next() *T { return &s.run(1)[0] }

// run returns n adjacent free slots, capped so an append cannot reach the
// neighbours; more than a chunk's worth come from the heap. A chunk tail too
// short for them is skipped (rewind clears it with the rest).
func (s *slab[T]) run(n int) []T {
	if n > arenaChunk {
		return make([]T, n)
	}
	if free := arenaChunk - s.used%arenaChunk; free < n {
		s.used += free
	}
	c, off := s.used/arenaChunk, s.used%arenaChunk
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, arenaChunk))
	}
	s.used += n
	return s.chunks[c][off : off+n : off+n]
}

// rewind frees every used slot, zeroing it or, when fill is non-nil,
// overwriting it with *fill.
func (s *slab[T]) rewind(fill *T) {
	for c := 0; c*arenaChunk < s.used; c++ {
		chunk := s.chunks[c][:min(arenaChunk, s.used-c*arenaChunk)]
		if fill == nil {
			clear(chunk)
			continue
		}
		for i := range chunk {
			chunk[i] = *fill
		}
	}
	s.used = 0
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
	p := a.nodes.next()
	*p = n
	if len(inputs) > 0 {
		p.Inputs = append(a.inputs.run(len(inputs))[:0], inputs...)
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
	q := a.props.next()
	*q = p
	return q
}

// JoinPaths returns x followed by y as one PATHS list in the arena (on the
// heap for a nil arena); neither argument is retained or written.
func (a *Arena) JoinPaths(x, y []PathInfo) []PathInfo {
	if a == nil {
		return slices.Concat(x, y)
	}
	return append(append(a.paths.run(len(x) + len(y))[:0], x...), y...)
}

// Reset recycles the arena for the next optimization: every slot the arena
// handed out becomes invalid and free, and the chunks are kept. Used slots
// are zeroed, so a pooled arena pins nothing the dead plans pointed at; with
// poisoning on, node slots are instead overwritten with a marker so escaped
// pointers read recognizably dead nodes.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	var dead *Node
	if a.poison {
		dead = &Node{Op: poisonOp, Origin: "poisoned: plan used after arena Reset"}
	}
	a.nodes.rewind(dead)
	a.props.rewind(nil)
	a.inputs.rewind(nil)
	a.paths.rewind(nil)
}

// Poisoned reports whether n is a recycled arena slot (only meaningful when
// the arena had poisoning on).
func (n *Node) Poisoned() bool { return n.Op == poisonOp }

// Detach deep-copies the plan DAG rooted at n out of any arena onto the
// heap, preserving structure sharing and published identities. Consumers that
// hold a plan beyond Result.Release — serve responses, incident captures,
// provenance DAGs — detach it first. Inputs and PATHS lists are arena storage
// (NewNode, JoinPaths) and are copied with the node; Rel values are
// heap-interned and the Cols, Order and SortCols backings are heap storage
// already, so those are shared.
func Detach(n *Node) *Node {
	if n == nil {
		return nil
	}
	return detach(n, make(map[*Node]*Node))
}

func detach(n *Node, seen map[*Node]*Node) *Node {
	if d, ok := seen[n]; ok {
		return d
	}
	m := *n
	if n.Props != nil {
		q := *n.Props
		q.Paths = slices.Clone(q.Paths)
		m.Props = &q
	}
	if len(n.Inputs) > 0 {
		m.Inputs = make([]*Node, len(n.Inputs))
	}
	seen[n] = &m
	for i, in := range n.Inputs {
		m.Inputs[i] = detach(in, seen)
	}
	return &m
}
