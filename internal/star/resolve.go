package star

import "slices"

// Name resolution. A rule's names are fixed by its text, so RuleSet.Add turns
// each into a slot of the rule's frame once and a reference indexes the frame
// instead of hashing a string. Scoping is lexical: parameters take slots
// 0..len(Params)-1; a where-binding sees the parameters and the bindings
// before it and takes the next slot, or the slot of the name it redefines; a
// forall variable takes a slot of its own, visible in the clause's body and
// condition only. A name nothing binds gets slot -1 and stays the run-time
// "unbound name" error. The linter's hygiene pass reads these slots.

// scope is the resolver's state: the name bound in each slot so far, blank
// once a forall clause has ended.
type scope []string

// lookup returns the slot of the innermost visible binding of name, or -1.
func (sc scope) lookup(name string) int {
	for i := len(sc) - 1; i >= 0; i-- {
		if sc[i] == name {
			return i
		}
	}
	return -1
}

// resolve writes the Slot of every Ident, Let and Forall of r, r.Frame, and
// the Idx of every Call, then compiles r, the first time r is added: both are
// functions of the rule alone, and a rule shared through Merge may be under
// evaluation by the time it is added again.
func (r *Rule) resolve() {
	if r.resolved {
		return
	}
	r.resolved = true
	sc := scope(slices.Clone(r.Params))
	for i := range r.Where {
		l := &r.Where[i]
		sc.expr(l.Expr)
		if l.Slot = sc.lookup(l.Name); l.Slot < 0 {
			l.Slot, sc = len(sc), append(sc, l.Name)
		}
	}
	for _, a := range r.Alts {
		sc.expr(a.Body)
		sc.expr(a.Cond)
	}
	r.Frame = len(sc)
	r.WalkCalls(func(c *Call) { c.Idx, r.calls = len(r.calls), append(r.calls, c) })
	r.compile()
}

// expr resolves the names in e (nil: an absent condition).
func (sc *scope) expr(e RExpr) {
	switch n := e.(type) {
	case *Ident:
		n.Slot = sc.lookup(n.Name)
	case *Forall:
		sc.expr(n.Set)
		n.Slot, *sc = len(*sc), append(*sc, n.Var)
		sc.expr(n.Body)
		sc.expr(n.Cond)
		(*sc)[n.Slot] = "" // out of scope; the slot stays the clause's
	default:
		kids(e, sc.expr)
	}
}

// kids calls f on each direct subexpression of e, in source order, a nil one
// (an absent condition or requirement value) included.
func kids(e RExpr, f func(RExpr)) {
	switch n := e.(type) {
	case *Call:
		for _, a := range n.Args {
			f(a)
		}
	case *Annot:
		f(n.Kid)
		for _, ri := range n.Reqs {
			f(ri.Val)
		}
	case *Forall:
		f(n.Set)
		f(n.Body)
		f(n.Cond)
	case *Logic:
		for _, k := range n.Kids {
			f(k)
		}
	case *NotExpr:
		f(n.Kid)
	}
}

// Walk calls f on e and every expression below it, parents first, in source
// order. A nil e is skipped.
func Walk(e RExpr, f func(RExpr)) {
	if e == nil {
		return
	}
	f(e)
	kids(e, func(k RExpr) { Walk(k, f) })
}
