package star

import (
	"strings"
	"testing"

	"stars/internal/expr"
	"stars/internal/plan"
)

// seeEngine is stubEngine plus see(...), which records the rendering of the
// arguments it is called with and returns no plans, note(...), which records
// them and holds as a guard, and cat(a, b), which concatenates two strings —
// enough to watch which value a name resolves to.
func seeEngine(t *testing.T, ruleText string) (*Engine, *[]string) {
	t.Helper()
	en := stubEngine(t, ruleText)
	var seen []string
	en.Register(Signature{Name: "see", ArityUnknown: true}, func(_ *Engine, args []Value) (Value, error) {
		seen = append(seen, renderArgs(args))
		return SAPValue(nil), nil
	})
	en.Register(Signature{Name: "note", ArityUnknown: true}, func(_ *Engine, args []Value) (Value, error) {
		seen = append(seen, renderArgs(args))
		return BoolValue(true), nil
	})
	en.Register(Signature{Name: "cat", ArityUnknown: true}, func(_ *Engine, args []Value) (Value, error) {
		return StrValue(args[0].Str + args[1].Str), nil
	})
	return en, &seen
}

// TestSlotResolutionKeepsMapSemantics pins the scoping the frame-slot resolver
// must reproduce from the map-frame evaluator it replaced.
func TestSlotResolutionKeepsMapSemantics(t *testing.T) {
	eval := func(t *testing.T, text, rule string, args ...Value) ([]string, error) {
		t.Helper()
		en, seen := seeEngine(t, text)
		_, err := en.EvalRule(rule, args)
		if len(en.stack) != 0 || en.depth != 0 {
			t.Errorf("after the reference: %d stack slots in use at depth %d, want none", len(en.stack), en.depth)
		}
		return *seen, err
	}
	expect := func(t *testing.T, got []string, err error, want ...string) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, " | ") != strings.Join(want, " | ") {
			t.Errorf("saw %q, want %q", got, want)
		}
	}

	t.Run("a binding that shadows a parameter overwrites it", func(t *testing.T) {
		// The binding's own expression still reads the argument; everything
		// after it — later bindings, guards, bodies — reads the new value.
		got, err := eval(t, `
star R(p, q) = [
  | see(p, q, r) if note(p)
] where
  p = cat(p, '+')
  r = cat(p, q)
  p = cat(p, '!')`, "R", StrValue("a"), StrValue("b"))
		expect(t, got, err, "'a+!'", "'a+!', 'b', 'a+b'")
		r := seeRule(t, "star R(p) = see(p) where p = cat(p, 'x')")
		// The frame holds the compiler's temporaries too, so the body's read
		// of p, not the frame's size, shows that no second p slot exists.
		if read := r.Alts[0].Body.(*Call).Args[0].(*Ident).Slot; r.Where[0].Slot != 0 || read != 0 {
			t.Errorf("shadowing binding got slot %d, read from slot %d, want the parameter's slot 0", r.Where[0].Slot, read)
		}
	})

	t.Run("a binding sees only earlier bindings", func(t *testing.T) {
		_, err := eval(t, `
star R(p) = see(a, b) where
  a = cat(b, p)
  b = cat(p, p)`, "R", StrValue("x"))
		if err == nil || err.Error() != `star: R where a: unbound name "b"` {
			t.Errorf("use before definition: err = %v", err)
		}
	})

	t.Run("a forall variable is visible in its body and condition only", func(t *testing.T) {
		got, err := eval(t, `
star R(i) = [
  | forall i in items(): see(i) if note('cond', i)
  | see(i)
]`, "R", StrValue("param"))
		expect(t, got, err, "'cond', 'a'", "'a'", "'cond', 'b'", "'b'", "'param'")

		_, err = eval(t, `
star R() = [
  | forall i in items(): see(i)
  | see(i)
]`, "R")
		if err == nil || err.Error() != `star: R alternative 2: unbound name "i"` {
			t.Errorf("forall variable after its clause: err = %v", err)
		}
		_, err = eval(t, `star R() = forall i in wrap(i): see(i)`, "R")
		if err == nil || !strings.Contains(err.Error(), `unbound name "i"`) {
			t.Errorf("forall variable in its own set: err = %v", err)
		}
	})

	t.Run("nested foralls bind distinct slots", func(t *testing.T) {
		got, err := eval(t, `
star R(p) = forall i in items(): forall j in items(): see(p, i, j)`, "R", StrValue("p"))
		expect(t, got, err, "'p', 'a', 'a'", "'p', 'a', 'b'", "'p', 'b', 'a'", "'p', 'b', 'b'")
		// The inner clause may reuse the outer variable's name: innermost wins.
		got, err = eval(t, `
star R() = forall i in items(): forall i in items(): see(i)`, "R")
		expect(t, got, err, "'a'", "'b'", "'a'", "'b'")
	})

	t.Run("an unbound name is the same run-time error", func(t *testing.T) {
		// Load succeeds; only evaluating the alternative that reads it fails.
		got, err := eval(t, `
star R() = {
  | see('first') if yes()
  | see(Mystery)
}`, "R")
		expect(t, got, err, "'first'")
		_, err = eval(t, `star R() = see(Mystery)`, "R")
		if err == nil || err.Error() != `star: R alternative 1: unbound name "Mystery"` {
			t.Errorf("err = %v", err)
		}
	})

	t.Run("a rule shared through Merge resolves once for both sets", func(t *testing.T) {
		shared, err := ParseRules(`
star R(p) = forall i in items(): see(p, i, w) where w = cat(p, '.')`)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range []string{`star Other(a, b, c) = see(a)`, `star R(z) = see(z)`} {
			en, seen := seeEngine(t, base)
			en.Rules.Merge(shared)
			if en.Rules.Get("R") != shared.Get("R") {
				t.Fatal("Merge must share the rule, not copy it")
			}
			if _, err := en.EvalRule("R", []Value{StrValue("x")}); err != nil {
				t.Fatal(err)
			}
			expect(t, *seen, nil, "'x', 'a', 'x.'", "'x', 'b', 'x.'")
		}
	})
}

// TestMergeDoesNotRewriteASharedRule: a rule is resolved by the first Add only,
// so merging it into another rule set while an engine of the first evaluates it
// writes nothing to the shared AST (the race detector is the judge).
func TestMergeDoesNotRewriteASharedRule(t *testing.T) {
	en, _ := seeEngine(t, `
star R(p) = forall i in items(): see(p, i, w) where w = cat(p, '.')`)
	done := make(chan error)
	go func() {
		var err error
		for i := 0; i < 200 && err == nil; i++ {
			_, err = en.EvalRule("R", []Value{StrValue("x")})
		}
		done <- err
	}()
	for i := 0; i < 200; i++ {
		NewRuleSet().Merge(en.Rules)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// As parsed, before any Add, a name reads no slot at all.
	toks, err := newLexer("p", "").lexAll()
	if err != nil {
		t.Fatal(err)
	}
	if id, err := (&parser{toks: toks}).parsePrimary(); err != nil || id.(*Ident).Slot != -1 {
		t.Errorf("a freshly parsed identifier: %+v, %v; want slot -1", id, err)
	}
}

// TestSAPOutsideAReferenceIsTheCallers: with no reference in progress nothing
// would ever release a scratch slot, so Engine.SAP (Glue called from Go, as the
// driver does for the root requirement) hands out a heap slice.
func TestSAPOutsideAReferenceIsTheCallers(t *testing.T) {
	en := builderEngine(t)
	p := &plan.Node{Op: plan.OpAccess}
	got := en.SAP(p)
	if len(en.saps) != 0 {
		t.Fatalf("SAP at depth 0 left %d slots on the scratch that nothing releases", len(en.saps))
	}
	if len(got) != 1 || got[0] != p {
		t.Fatalf("SAP returned %v", got)
	}
}

func seeRule(t *testing.T, text string) *Rule {
	t.Helper()
	rs, err := ParseRules(text)
	if err != nil {
		t.Fatal(err)
	}
	return rs.Get(rs.Names()[0])
}

// TestReferenceAllocatesOnlyPlans: on a warm engine — stack, SAP scratch and
// arena chunks grown by an earlier reference — a JoinRoot reference over two
// base tables whose SAP is read in place (Eval) allocates nothing: its plans,
// their inputs and their column lists are arena slots, and the evaluation
// itself — frame, argument slice, Glue request, SAP accumulator — runs on the
// scratch.
func TestReferenceAllocatesOnlyPlans(t *testing.T) {
	en := builderEngine(t)
	en.Rules = DefaultRules()
	// The plan table: one heap-resident access plan per table, built before
	// the engine gets the arena each reference's joins go to (and that each
	// run resets). The Rels every reference interns are heap-resident too:
	// the first reference runs before the arena is wired.
	access := map[uint64][]*plan.Node{}
	for _, s := range []Value{deptStream(), empStream()} {
		v, err := biAccess(en, []Value{StrValue("heap"), s, AllColsValue, noPreds()})
		if err != nil {
			t.Fatal(err)
		}
		access[s.Stream.Tables.Mask()] = v.SAP
	}
	held := len(en.saps) // the access plans: built outside any reference, so never released
	en.Glue = func(req *GlueRequest) ([]*plan.Node, error) {
		return en.SAP(access[req.Tables.Mask()]...), nil
	}
	en.PlanSites = func(expr.TableSet) []string { return []string{""} }
	args := []Value{deptStream(), empStream(), PredsValue(deptEmpU.PredSet(deptEmpJoin))}
	var plans int
	ref := func() {
		if err := en.Eval("JoinRoot", args, func(sap []*plan.Node) { plans = len(sap) }); err != nil {
			t.Fatal(err)
		}
		en.Cost.Arena.Reset()
	}
	ref()
	if plans == 0 {
		t.Fatal("JoinRoot over DEPT, EMP built no plans")
	}
	en.Cost.Arena = plan.NewArena()
	ref()
	// Nothing is left to allocate: the SAP is never copied, the column lists
	// sortCols, indexCols, indexProbeCols and GET's fetch build are arena
	// ints, and the Rel of each join priced is found already interned by the
	// warm environment. Nor are the base-table names localQuery asks the
	// catalog about allocated: the engine maps them once.
	if n := testing.AllocsPerRun(20, ref); n != 0 {
		t.Errorf("a warm JoinRoot reference building %d plans allocates %.0f objects, want none", plans, n)
	}
	if len(en.stack) != 0 || len(en.saps) != held {
		t.Errorf("after the reference: %d stack slots and %d scratch slots in use, want none", len(en.stack), len(en.saps)-held)
	}
}

// BenchmarkReference times the reference TestReferenceAllocatesOnlyPlans
// measures: a warm JoinRoot over DEPT and EMP whose Glue hands out one access
// plan per table, its SAP read in place, the arena reset after each
// reference. Run it with -benchmem: allocs/op is the test's figure, 0.
func BenchmarkReference(b *testing.B) {
	en := builderEngine(b)
	en.Rules = DefaultRules()
	access := map[uint64][]*plan.Node{}
	for _, s := range []Value{deptStream(), empStream()} {
		v, err := biAccess(en, []Value{StrValue("heap"), s, AllColsValue, noPreds()})
		if err != nil {
			b.Fatal(err)
		}
		access[s.Stream.Tables.Mask()] = v.SAP
	}
	en.Glue = func(req *GlueRequest) ([]*plan.Node, error) {
		return en.SAP(access[req.Tables.Mask()]...), nil
	}
	en.PlanSites = func(expr.TableSet) []string { return []string{""} }
	args := []Value{deptStream(), empStream(), PredsValue(deptEmpU.PredSet(deptEmpJoin))}
	ref := func() {
		if err := en.Eval("JoinRoot", args, func([]*plan.Node) {}); err != nil {
			b.Fatal(err)
		}
		en.Cost.Arena.Reset()
	}
	ref()
	en.Cost.Arena = plan.NewArena()
	ref()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		ref()
	}
}
