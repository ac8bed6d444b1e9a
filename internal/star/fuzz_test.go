package star

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzParseFile drives the STAR lexer and parser with arbitrary bytes. The
// invariants are crash-freedom (no panic, no hang on any input) and
// determinism (the same text parses to the same outcome twice — rule names
// and error text included — which is what lets lint goldens and the shapes
// grammar be byte-reproducible). Whatever parses has also been through the
// name resolver (RuleSet.Add): every slot it wrote lies inside the rule's
// frame, so no rule text can make the evaluator index past it. And a fresh
// engine binds it: the reference pass may report findings, but it never
// panics, and every call is bound to the STAR or callee its name resolves to.
// Its compiled program stays inside the rule (checkProgram).
func FuzzParseFile(f *testing.F) {
	f.Add(DefaultRuleText)
	f.Add("star R(T, P) = Glue(T, P)")
	f.Add("star R(T, C, P) = { | ACCESS('heap', T, C, P) if stmgr(T, 'heap') | ACCESS('btree', T, C, P) otherwise }")
	f.Add("star J(Q) = [ | forall q in Q: Access(q) if nonempty(q) ]")
	f.Add("star L(T, P) = { | Glue(T, P) if nonempty(P) or stmgr(T, 'heap') and not nonempty(P) | Glue(T, {}) otherwise }")
	f.Add("star S(T, P) = SORT(Glue(T[temp], P), sortCols(P, T)) where SP = joinPreds(P, T)")
	f.Add("# lint: root\nstar Root(T) = T[site = 'hq', order = tidcol(T)]")
	f.Add("star R(T) = Nope(T, S(T), Glue(T))\nstar S() = SORT(T)")
	f.Add("star Broken(")
	f.Add("star X() = [ | ] {} 'unterminated")
	f.Add("\x00\xff星")
	f.Fuzz(func(t *testing.T, src string) {
		rs1, err1 := ParseFile(src, "fuzz.star")
		rs2, err2 := ParseFile(src, "fuzz.star")
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic outcome: %v vs %v", err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("nondeterministic error: %q vs %q", err1, err2)
			}
			return
		}
		n1, n2 := rs1.Names(), rs2.Names()
		if len(n1) != len(n2) {
			t.Fatalf("nondeterministic rule count: %d vs %d", len(n1), len(n2))
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatalf("nondeterministic rule order: %v vs %v", n1, n2)
			}
		}
		for _, name := range n1 {
			r := rs1.Get(name)
			if r == nil {
				t.Fatalf("Names lists %q but Get returns nil", name)
			}
			if r.Frame < len(r.Params) {
				t.Fatalf("%s: frame of %d slots cannot hold %d parameters", name, r.Frame, len(r.Params))
			}
			inFrame := func(what string, slot int) {
				if slot < -1 || slot >= r.Frame {
					t.Fatalf("%s: %s resolved to slot %d outside the frame of %d", name, what, slot, r.Frame)
				}
			}
			slots := func(e RExpr) {
				switch n := e.(type) {
				case *Ident:
					inFrame(n.Name, n.Slot)
				case *Forall:
					inFrame("forall "+n.Var, n.Slot)
				}
			}
			for _, l := range r.Where {
				inFrame("binding "+l.Name, l.Slot)
				Walk(l.Expr, slots)
			}
			for _, a := range r.Alts {
				Walk(a.Body, slots)
				if a.Cond != nil {
					Walk(a.Cond, slots)
				}
			}
			if err := checkProgram(r); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		en := NewEngine(rs1, nil)
		_ = en.Validate() // findings are allowed; a panic is not
		for i, r := range rs1.rules {
			for k, c := range r.calls {
				b := en.bound[i].calls[k]
				switch {
				case c.Idx != k:
					t.Fatalf("%s: call %d of %s numbered %d", r.Name, k, c.Name, c.Idx)
				case b.star != nil && b.star.Rule != rs1.Get(c.Name):
					t.Fatalf("%s: call of %s bound to STAR %s", r.Name, c.Name, b.star.Name)
				case b.callee != nil && b.callee != builtins[c.Name]:
					t.Fatalf("%s: call of %s bound to callee %s", r.Name, c.Name, b.callee.Name)
				}
			}
		}
	})
}

// opSlots says which slot operands each opcode uses: a used one must lie in
// the frame, an unused one is -1.
var opSlots = map[opcode]struct{ dst, src, jumps bool }{
	opLoad: {true, true, false}, opConst: {true, false, false}, opFail: {false, false, false},
	opCall: {true, true, false}, opTest: {true, true, true}, opNot: {true, true, false},
	opReq: {true, true, false}, opForall: {false, true, false}, opNext: {true, false, true},
	opMerge: {false, true, true},
}

// checkProgram reports the first way r's program reaches outside the rule:
// spans that do not cut the program in order (each where-binding, then each
// alternative's condition and body) or whose value slot lies outside r.Frame
// (an empty condition's is -1), a slot operand or destination outside r.Frame
// (a call's whole argument list and a forall's variable included), a jump out
// of its op's span, a call index r does not have, or an unknown opcode.
func checkProgram(r *Rule) error {
	p := &r.prog
	if len(p.where) != len(r.Where) || len(p.conds) != len(r.Alts) || len(p.bodies) != len(r.Alts) {
		return fmt.Errorf("%d where, %d condition and %d body spans for %d bindings and %d alternatives",
			len(p.where), len(p.conds), len(p.bodies), len(r.Where), len(r.Alts))
	}
	spans := slices.Clone(p.where)
	for i := range r.Alts {
		spans = append(spans, p.conds[i], p.bodies[i])
	}
	pc := int32(0)
	for k, s := range spans {
		empty := s.from == s.to && s.out == -1 && k >= len(p.where) && (k-len(p.where))%2 == 0
		switch {
		case s.from != pc || s.to < s.from:
			return fmt.Errorf("span %d is ops %d..%d, want it to start at %d", k, s.from, s.to, pc)
		case !empty && (s.out < 0 || int(s.out) >= r.Frame):
			return fmt.Errorf("span %d leaves its value in slot %d, outside the frame of %d", k, s.out, r.Frame)
		}
		for ; pc < s.to; pc++ {
			if err := checkOp(r, pc, s); err != nil {
				return err
			}
		}
	}
	if int(pc) != len(p.ops) {
		return fmt.Errorf("spans end at op %d of %d", pc, len(p.ops))
	}
	return nil
}

// checkOp checks op pc of r's program, which lies in span s.
func checkOp(r *Rule, pc int32, s span) error {
	o := r.prog.ops[pc]
	use, ok := opSlots[o.code]
	if !ok {
		return fmt.Errorf("op %d: unknown opcode %d", pc, o.code)
	}
	srcN := 1
	switch o.code {
	case opCall:
		if o.x < 0 || int(o.x) >= len(r.calls) {
			return fmt.Errorf("op %d: call %d of %d", pc, o.x, len(r.calls))
		}
		srcN = max(len(r.calls[o.x].Args), 1)
	case opNext:
		if o.x < 0 || int(o.x) >= r.Frame {
			return fmt.Errorf("op %d: forall variable in slot %d outside the frame of %d", pc, o.x, r.Frame)
		}
	case opConst, opFail:
		if o.x < 0 || int(o.x) >= len(r.prog.consts) {
			return fmt.Errorf("op %d: constant %d of %d", pc, o.x, len(r.prog.consts))
		}
	}
	for _, sl := range []struct {
		what string
		slot int32
		used bool
		span int
	}{{"destination", o.dst, use.dst, 1}, {"operand", o.src, use.src, srcN}} {
		switch {
		case !sl.used && sl.slot != -1:
			return fmt.Errorf("op %d (opcode %d): unused %s is slot %d, want -1", pc, o.code, sl.what, sl.slot)
		case sl.used && (sl.slot < 0 || int(sl.slot)+sl.span > r.Frame):
			return fmt.Errorf("op %d (opcode %d): %s slots %d..%d outside the frame of %d", pc, o.code, sl.what, sl.slot, int(sl.slot)+sl.span-1, r.Frame)
		}
	}
	if use.jumps && (o.jmp < s.from || o.jmp > s.to) || !use.jumps && o.jmp != 0 {
		return fmt.Errorf("op %d (opcode %d): jump to %d outside its span %d..%d", pc, o.code, o.jmp, s.from, s.to)
	}
	return nil
}
