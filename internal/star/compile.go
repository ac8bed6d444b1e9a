package star

import (
	"fmt"
	"slices"

	"stars/internal/expr"
)

// Compilation. RuleSet.Add, once it has resolved a rule's names, compiles each
// where-binding, condition and body into its own range of one flat op array,
// which a reference runs as a loop (Engine.run); the loops over
// where-bindings and alternatives stay Go (Engine.reference). Every op writes
// its result into a slot of the rule's frame: the named slots, then the
// compiler's temporaries, which extend Rule.Frame. A call's arguments go to
// contiguous temporaries, where a STAR callee's frame starts. A program
// depends on its rule alone; each engine binds the calls it names, by
// Call.Idx.

// opcode selects what an op does to its slots dst and src with its operand x;
// a jump goes to op jmp.
type opcode uint8

const (
	opLoad   opcode = iota // dst = src
	opConst                // dst = constant x
	opFail                 // fail with the text of constant x
	opCall                 // dst = call x, its arguments in the slots from src up
	opTest                 // dst = src's truth; jump if that is x == 1 (or), else if false (and; forall guard, counted)
	opNot                  // dst = not src's truth
	opReq                  // step x of a [...] annotation (annotate)
	opForall               // begin a forall over the list in src (Engine.loops)
	opNext                 // slot x = the innermost forall's next element; at the end dst = its plans, and jump
	opMerge                // merge the plans in src into the innermost forall's; jump back to its opNext
)

// op is one instruction; a slot it does not use is -1.
type op struct {
	code             opcode
	dst, src, x, jmp int32
}

// span is the range ops[from:to] of a program, which leaves its value in
// slot out; a jump in it stays in it.
type span struct{ from, to, out int32 }

// program is a compiled rule: its ops and the constants they load, and the
// span of each where-binding and of each alternative's condition (empty
// where there is none, or OTHERWISE) and body.
type program struct {
	ops                  []op
	consts               []Value
	where, conds, bodies []span
}

// The kinds of opTest: what its operand x says.
const (
	testAnd   = iota // jump if false
	testOr           // jump if true
	testGuard        // a forall's guard: jump if false, counting the element as considered and, if true, fired
)

// The steps of a [...] annotation, opReq's x: reqStream checks that src holds
// a stream; a property step checks its value in src and sets the property of
// the stream in dst, as plan.Reqd.Merge would.
const (
	reqOrder = iota // the keys of reqKeys
	reqSite
	reqTemp
	reqPaths
	reqStream
)

var reqKeys = []string{"order", "site", "temp", "paths"}

// compiler emits one rule's program. Slots from named up are temporaries;
// top is the first free one, max the frame's size so far. The open span
// starts at op from.
type compiler struct {
	program
	named, top, max, from int
}

// compile writes r.prog and extends r.Frame by the temporaries it uses.
func (r *Rule) compile() {
	c := &compiler{named: r.Frame, top: r.Frame, max: r.Frame}
	for _, l := range r.Where {
		if _, ok := l.Expr.(*Call); ok {
			c.expr(l.Expr, l.Slot) // a call writes once, having read its arguments
		} else {
			// Written twice, the slot could change under the expression a
			// name the binding shadows.
			c.emit(opLoad, l.Slot, c.temp(l.Expr), 0)
		}
		c.where = append(c.where, c.span(l.Slot))
	}
	for _, a := range r.Alts {
		cond := -1
		if a.Cond != nil && !a.Otherwise {
			cond = c.temp(a.Cond)
		}
		c.conds = append(c.conds, c.span(cond))
		c.bodies = append(c.bodies, c.span(c.temp(a.Body)))
	}
	r.prog, r.Frame = c.program, c.max
}

// span closes the open span, whose value is in slot out, and frees every
// temporary.
func (c *compiler) span(out int) span {
	s := span{int32(c.from), int32(len(c.ops)), int32(out)}
	c.from, c.top = len(c.ops), c.named
	return s
}

// emit appends an op and returns its index.
func (c *compiler) emit(code opcode, dst, src, x int) int {
	c.ops = append(c.ops, op{code, int32(dst), int32(src), int32(x), 0})
	return len(c.ops) - 1
}

// konst emits an op whose operand is the constant v.
func (c *compiler) konst(code opcode, dst int, v Value) {
	c.emit(code, dst, -1, len(c.consts))
	c.consts = append(c.consts, v)
}

// alloc reserves n temporaries and returns the first.
func (c *compiler) alloc(n int) int {
	c.top += n
	c.max = max(c.max, c.top)
	return c.top - n
}

// block reserves n contiguous temporaries for the ops computing dst and
// returns the first: dst itself when it is the topmost temporary, which
// nothing reads before the last of those ops writes it.
func (c *compiler) block(dst, n int) int {
	if dst >= c.named && dst == c.top-1 {
		c.alloc(max(n, 1) - 1)
		return dst
	}
	return c.alloc(n)
}

// temp compiles e into a new temporary and returns it.
func (c *compiler) temp(e RExpr) int {
	t := c.alloc(1)
	c.expr(e, t)
	return t
}

// expr emits the ops that leave e's value in slot dst, and frees the
// temporaries they use.
func (c *compiler) expr(e RExpr, dst int) {
	defer func(top int) { c.top = top }(c.top)
	switch n := e.(type) {
	case *Ident:
		if n.Slot < 0 {
			c.konst(opFail, -1, StrValue(fmt.Sprintf("unbound name %q", n.Name)))
		} else {
			c.emit(opLoad, dst, n.Slot, 0)
		}
	case *StrLit:
		c.konst(opConst, dst, StrValue(n.Val))
	case *NumLit:
		c.konst(opConst, dst, NumValue(n.Val))
	case *EmptySet:
		c.konst(opConst, dst, PredsValue(expr.PredSet{}))
	case *AllCols:
		c.konst(opConst, dst, AllColsValue)
	case *Call:
		args := c.block(dst, len(n.Args))
		for i, a := range n.Args {
			c.top = args + i + 1 // the later arguments' slots are free until written
			c.expr(a, args+i)
		}
		c.top = args + len(n.Args)
		c.emit(opCall, dst, args, n.Idx)
	case *Logic:
		// The first kid whose truth decides the outcome (false for and,
		// true for or) jumps past the rest.
		kind := testOr
		if n.OpAnd {
			kind = testAnd
		}
		if len(n.Kids) == 0 {
			c.konst(opConst, dst, BoolValue(n.OpAnd))
		}
		var tests []int
		for _, k := range n.Kids {
			c.expr(k, dst)
			tests = append(tests, c.emit(opTest, dst, dst, kind))
		}
		for _, t := range tests {
			c.ops[t].jmp = int32(len(c.ops))
		}
	case *NotExpr:
		c.expr(n.Kid, dst)
		c.emit(opNot, dst, dst, 0)
	case *Annot:
		c.expr(n.Kid, dst)
		c.emit(opReq, dst, dst, reqStream)
		v := c.alloc(1)
		for i, item := range n.Reqs {
			key := slices.Index(reqKeys, item.Key)
			if item.Val != nil {
				c.expr(item.Val, v)
			} else if key != reqTemp {
				c.konst(opConst, v, Null)
			}
			switch {
			case key < 0:
				c.konst(opFail, -1, StrValue(fmt.Sprintf("unknown required property %q", item.Key)))
			case key == reqTemp && item.Val != nil:
				c.konst(opFail, -1, StrValue("[temp] takes no value"))
			case slices.ContainsFunc(n.Reqs[i+1:], func(later ReqItem) bool { return later.Key == item.Key }):
				// A later item of the key overrides this one, which is only
				// checked: it sets the property on its value's own slot.
				c.emit(opReq, v, v, key)
			default:
				c.emit(opReq, dst, v, key)
			}
		}
	case *Forall:
		// The list, each element's guard and body and the plans all go to
		// dst; the loop's state is the engine's.
		c.expr(n.Set, dst)
		c.emit(opForall, -1, dst, 0)
		next := c.emit(opNext, dst, -1, n.Slot)
		if n.Cond != nil {
			c.expr(n.Cond, dst)
			c.ops[c.emit(opTest, dst, dst, testGuard)].jmp = int32(next)
		}
		c.expr(n.Body, dst)
		c.ops[c.emit(opMerge, -1, dst, 0)].jmp = int32(next)
		c.ops[next].jmp = int32(len(c.ops))
	default:
		c.konst(opFail, -1, StrValue(fmt.Sprintf("unknown expression node %T", e)))
	}
}
