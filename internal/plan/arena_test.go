package plan

import (
	"reflect"
	"testing"
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
