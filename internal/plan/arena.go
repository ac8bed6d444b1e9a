package plan

// Arena is a chunked slab allocator for plan Nodes and Props. One
// optimization builds millions of transient candidate nodes; allocating them
// individually makes the global heap the enumeration bottleneck. An arena
// hands out slots from fixed-size chunks instead — one heap allocation per
// chunk — and releases everything wholesale when the optimization's result
// has been consumed.
//
// Concurrency: an Arena is single-goroutine. The rank-parallel enumeration
// gives every worker its own sub-arena and the barrier absorbs them into the
// parent (Absorb), mirroring how overlay plan tables merge.
//
// Lifetime: nodes stay valid as long as the arena is reachable; an arena that
// is simply dropped is reclaimed by the GC like any other storage, so callers
// that never Reset need no discipline at all. Reset recycles the chunks for
// the next optimization — after a Reset every node the arena ever produced is
// invalid, and anything that must outlive it (a served best plan, a
// provenance DAG, a flight-recorder capture) must be copied out with Detach
// first. Poisoning (SetPoison) overwrites recycled slots so an escaped
// pointer fails loudly in tests instead of silently reading stale plans.
type Arena struct {
	nodeChunks  [][]Node
	propsChunks [][]Props
	nodeN       int // slots used in the last node chunk
	propsN      int // slots used in the last props chunk
	poison      bool
}

// arenaChunk is the slab size. 512 nodes ≈ 100KiB per chunk: big enough to
// amortize the heap allocation a thousandfold, small enough that the tail of
// a worker's sub-arena wastes little.
const arenaChunk = 512

// poisonOp marks recycled node slots when poisoning is on; any consumer that
// kept a pointer across Reset sees an operator no rule ever built.
const poisonOp Op = "__POISONED__"

// NewArena builds an empty arena.
func NewArena() *Arena { return &Arena{} }

// SetPoison toggles poison-on-reset (used by lifetime tests; off by default).
func (a *Arena) SetPoison(on bool) { a.poison = on }

// NewNode copies n into the next slot and returns its stable address. A nil
// arena falls back to the heap, so plan construction code works unchanged
// outside an optimization (tests, tools, hand-built plans).
func (a *Arena) NewNode(n Node) *Node {
	if a == nil {
		m := n
		return &m
	}
	if len(a.nodeChunks) == 0 || a.nodeN == len(a.nodeChunks[len(a.nodeChunks)-1]) {
		a.nodeChunks = append(a.nodeChunks, make([]Node, arenaChunk))
		a.nodeN = 0
	}
	chunk := a.nodeChunks[len(a.nodeChunks)-1]
	chunk[a.nodeN] = n
	p := &chunk[a.nodeN]
	a.nodeN++
	return p
}

// NewProps copies p into the next props slot and returns its stable address;
// nil-arena falls back to the heap like NewNode.
func (a *Arena) NewProps(p Props) *Props {
	if a == nil {
		q := p
		return &q
	}
	if len(a.propsChunks) == 0 || a.propsN == len(a.propsChunks[len(a.propsChunks)-1]) {
		a.propsChunks = append(a.propsChunks, make([]Props, arenaChunk))
		a.propsN = 0
	}
	chunk := a.propsChunks[len(a.propsChunks)-1]
	chunk[a.propsN] = p
	q := &chunk[a.propsN]
	a.propsN++
	return q
}

// Absorb moves every chunk of o into a, leaving o empty. Node addresses are
// unchanged — the slabs themselves change owner — so plans built in a
// worker's sub-arena stay valid after the rank barrier folds the sub-arena
// into the parent.
func (a *Arena) Absorb(o *Arena) {
	if a == nil || o == nil || a == o {
		return
	}
	// Full chunks transfer wholesale; the partially filled tails stay as
	// they are (slots in a tail that was absorbed are never reused, which
	// wastes at most one chunk's tail per worker per rank — cheap compared
	// to copying nodes and breaking their addresses).
	a.sealTail()
	a.nodeChunks = append(a.nodeChunks, o.nodeChunks...)
	a.propsChunks = append(a.propsChunks, o.propsChunks...)
	a.nodeN = o.nodeN
	a.propsN = o.propsN
	if len(o.nodeChunks) == 0 {
		a.nodeN = arenaChunkLen(a.nodeChunks)
	}
	if len(o.propsChunks) == 0 {
		a.propsN = arenaChunkLen(a.propsChunks)
	}
	o.nodeChunks, o.propsChunks, o.nodeN, o.propsN = nil, nil, 0, 0
}

// sealTail marks the current tail chunks as fully used so Absorb can append
// the absorbed arena's chunks after them without overwriting live slots.
func (a *Arena) sealTail() {
	if len(a.nodeChunks) > 0 {
		a.nodeChunks[len(a.nodeChunks)-1] = a.nodeChunks[len(a.nodeChunks)-1][:a.nodeN]
		a.nodeN = 0
	}
	if len(a.propsChunks) > 0 {
		a.propsChunks[len(a.propsChunks)-1] = a.propsChunks[len(a.propsChunks)-1][:a.propsN]
		a.propsN = 0
	}
}

// arenaChunkLen returns the used length of the final chunk.
func arenaChunkLen[T any](chunks [][]T) int {
	if len(chunks) == 0 {
		return 0
	}
	return len(chunks[len(chunks)-1])
}

// Reset recycles the arena for the next optimization: every slot the arena
// ever handed out becomes invalid. With poisoning on, slots are overwritten
// so escaped pointers read recognizably dead nodes. The chunk storage is
// dropped rather than reused (chunk slices may have been resliced by
// Absorb); pooling happens at the arena level via opt's sync.Pool.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	if a.poison {
		for _, c := range a.nodeChunks {
			for i := range c {
				c[i] = Node{Op: poisonOp, Origin: "poisoned: plan used after arena Reset"}
			}
		}
		for _, c := range a.propsChunks {
			for i := range c {
				c[i] = Props{}
			}
		}
	}
	a.nodeChunks, a.propsChunks, a.nodeN, a.propsN = nil, nil, 0, 0
}

// Poisoned reports whether n is a recycled arena slot (only meaningful when
// the arena had poisoning on).
func (n *Node) Poisoned() bool { return n.Op == poisonOp }

// Detach deep-copies the plan DAG rooted at n out of any arena onto the
// heap, preserving structure sharing and memoized identities. Consumers that
// hold a plan beyond Result.Release — serve responses, incident captures,
// provenance DAGs — detach it first. Rel values are heap-interned, not
// arena-backed, so they are shared, and slice backings (Cols, Order, Paths)
// are heap storage already.
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
