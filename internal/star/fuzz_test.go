package star

import (
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
func FuzzParseFile(f *testing.F) {
	f.Add(DefaultRuleText)
	f.Add("star R(T, P) = Glue(T, P)")
	f.Add("star R(T, C, P) = { | ACCESS('heap', T, C, P) if stmgr(T, 'heap') | ACCESS('btree', T, C, P) otherwise }")
	f.Add("star J(Q) = [ | forall q in Q: Access(q) if nonempty(q) ]")
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
