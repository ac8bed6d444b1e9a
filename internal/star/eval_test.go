package star

import (
	"strings"
	"testing"

	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/datum"
	"stars/internal/expr"
	"stars/internal/obs"
	"stars/internal/plan"
	"stars/internal/query"
)

// leafPred is the predicate LEAF(name) tags its scan with, so that leaves of
// different names are different plans; leafU is the one-table query whose
// WHERE clause holds one per name the tests use.
func leafPred(name string) expr.Expr {
	return &expr.Cmp{Op: expr.EQ, L: expr.C("T", "A"), R: &expr.Const{Val: datum.NewString(name)}}
}

var leafG = func() *query.Graph {
	var conjuncts []expr.Expr
	for _, name := range []string{"leaf", "x", "one", "two", "three", "a", "b", "same", "fallback", "none", "haspreds"} {
		conjuncts = append(conjuncts, leafPred(name))
	}
	return selfNamed([]string{"T"}, conjuncts...)
}()

var leafU = leafG.Universe()

// stubEngine wires an engine over a tiny catalog with a stub LEAF builder
// that manufactures one priced plan per call, so rule-evaluation semantics
// can be tested in isolation from the real builders.
func stubEngine(t *testing.T, ruleText string) *Engine {
	t.Helper()
	cat := catalog.New()
	cat.AddTable(&catalog.Table{
		Name: "T",
		Cols: []*catalog.Column{{Name: "A", Type: datum.KindInt, NDV: 10}},
		Card: 100,
	})
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	rs, err := ParseRules(ruleText)
	if err != nil {
		t.Fatal(err)
	}
	env := cost.NewEnv(cat, cost.DefaultWeights)
	env.Bind(leafG)
	en := NewEngine(rs, env)
	en.QueryTables = []string{"T"}
	// LEAF(name) manufactures a priced scan whose Origin records the name.
	en.Register(Signature{Name: "LEAF", Result: KindSAP, ArityUnknown: true}, func(en *Engine, args []Value) (Value, error) {
		name := "leaf"
		if len(args) > 0 && args[0].Kind == VStr {
			name = args[0].Str
		}
		n := &plan.Node{
			Op: plan.OpAccess, Flavor: plan.FlavorHeap, Table: "T", Quantifier: "T",
			Cols:   en.Cost.Vocab().List(col("T", "A")),
			Origin: "LEAF:" + name,
			Preds:  leafU.PredSet(leafPred(name)),
		}
		if err := en.Cost.Price(n); err != nil {
			return Null, err
		}
		en.Stats.PlansBuilt++
		return SAPValue([]*plan.Node{n}), nil
	})
	en.Register(Signature{Name: "yes", ArityUnknown: true}, func(*Engine, []Value) (Value, error) { return BoolValue(true), nil })
	en.Register(Signature{Name: "no", ArityUnknown: true}, func(*Engine, []Value) (Value, error) { return BoolValue(false), nil })
	en.Register(Signature{Name: "items", ArityUnknown: true}, func(*Engine, []Value) (Value, error) {
		return ListValue([]Value{StrValue("a"), StrValue("b")}), nil
	})
	return en
}

func TestInclusiveAlternativesUnion(t *testing.T) {
	en := stubEngine(t, `
star R() = [
  | LEAF('one')
  | LEAF('two') if yes()
  | LEAF('three') if no()
]`)
	sap, err := en.EvalRule("R", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sap) != 2 {
		t.Fatalf("plans = %d, want 2 (third guarded out)", len(sap))
	}
	if en.Stats.AltsConsidered != 3 || en.Stats.AltsFired != 2 {
		t.Errorf("stats = %+v", en.Stats)
	}
}

func TestExclusiveTakesFirstMatch(t *testing.T) {
	en := stubEngine(t, `
star R() = {
  | LEAF('one') if no()
  | LEAF('two') if yes()
  | LEAF('three')
}`)
	sap, err := en.EvalRule("R", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sap) != 1 || sap[0].Origin != "LEAF:two" {
		t.Fatalf("plans = %v", sap)
	}
}

func TestOtherwiseFiresOnlyWhenNothingElse(t *testing.T) {
	en := stubEngine(t, `
star Hit() = {
  | LEAF('one') if yes()
  | LEAF('fallback') otherwise
}
star Miss() = {
  | LEAF('one') if no()
  | LEAF('fallback') otherwise
}`)
	hit, err := en.EvalRule("Hit", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hit) != 1 || hit[0].Origin != "LEAF:one" {
		t.Fatalf("hit = %v", hit)
	}
	miss, err := en.EvalRule("Miss", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(miss) != 1 || miss[0].Origin != "LEAF:fallback" {
		t.Fatalf("miss = %v", miss)
	}
}

func TestForallUnionsOverList(t *testing.T) {
	en := stubEngine(t, `star R() = forall x in items(): LEAF(x)`)
	sap, err := en.EvalRule("R", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sap) != 2 {
		t.Fatalf("plans = %d", len(sap))
	}
	origins := sap[0].Origin + "," + sap[1].Origin
	if !strings.Contains(origins, "LEAF:a") || !strings.Contains(origins, "LEAF:b") {
		t.Errorf("origins = %s", origins)
	}
}

func TestWhereBindingsVisibleToConditionsAndBodies(t *testing.T) {
	en := stubEngine(t, `
star R(P) = {
  | LEAF('haspreds') if nonempty(Q)
  | LEAF('none') otherwise
} where
  Q = P
`)
	withPreds := leafU.PredSet(leafPred("x"))
	sap, err := en.EvalRule("R", []Value{PredsValue(withPreds)})
	if err != nil {
		t.Fatal(err)
	}
	if sap[0].Origin != "LEAF:haspreds" {
		t.Errorf("got %s", sap[0].Origin)
	}
	sap, err = en.EvalRule("R", []Value{PredsValue(expr.PredSet{})})
	if err != nil {
		t.Fatal(err)
	}
	if sap[0].Origin != "LEAF:none" {
		t.Errorf("got %s", sap[0].Origin)
	}
}

func TestAnnotationAccumulatesRequirements(t *testing.T) {
	en := stubEngine(t, `
star Outer(T, s) = Inner(T[site = s])
star Inner(T) = Probe(T[temp])
star Probe(T) = LEAF('x')
`)
	var seen StreamVal
	// Capture the accumulated requirements via a helper that records the
	// stream it receives.
	rs, err := ParseRules(`
star Outer(T, s) = Inner(T[site = s])
star Inner(T) = grab(T[temp])
`)
	if err != nil {
		t.Fatal(err)
	}
	en.Rules = rs
	en.Register(Signature{Name: "grab", ArityUnknown: true}, func(en *Engine, args []Value) (Value, error) {
		seen = args[0].Stream
		return SAPValue(nil), nil
	})
	_, err = en.EvalRule("Outer", []Value{
		StreamValue(leafU.All()), StrValue("LA"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen.Req.Site == nil || *seen.Req.Site != "LA" || !seen.Req.Temp {
		t.Fatalf("accumulated req = %+v", seen)
	}
}

func TestRecursionGuard(t *testing.T) {
	en := stubEngine(t, `star R() = R()`)
	_, err := en.EvalRule("R", nil)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v", err)
	}
}

func TestErrorsSurfaceWithRuleContext(t *testing.T) {
	en := stubEngine(t, `star R(T) = Nope(T)`)
	_, err := en.EvalRule("R", []Value{StreamValue(leafU.All())})
	if err == nil || !strings.Contains(err.Error(), "Nope") {
		t.Fatalf("err = %v", err)
	}
	// Wrong arity.
	if _, err := en.EvalRule("R", nil); err == nil || !strings.Contains(err.Error(), "arguments") {
		t.Fatalf("arity err = %v", err)
	}
	// Unknown rule.
	if _, err := en.EvalRule("Missing", nil); err == nil {
		t.Fatal("unknown rule must error")
	}
	// Condition type errors.
	en2 := stubEngine(t, `star R(T) = LEAF('x') if T[site = 'x']`)
	_, err = en2.EvalRule("R", []Value{PredsValue(expr.PredSet{})})
	if err == nil {
		t.Fatal("annotating a non-stream must error")
	}
}

func TestDedupeAcrossAlternatives(t *testing.T) {
	// Two alternatives producing structurally identical plans collapse.
	en := stubEngine(t, `
star R() = [
  | LEAF('same')
  | LEAF('same')
]`)
	sap, err := en.EvalRule("R", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sap) != 1 {
		t.Fatalf("plans = %d, want deduped 1", len(sap))
	}
}

func TestOriginTagging(t *testing.T) {
	en := stubEngine(t, `star R() = Wrapped()
star Wrapped() = LEAF('x')`)
	// Strip the builder's own origin so the rule stamps it.
	en.Register(Signature{Name: "LEAF", Result: KindSAP, ArityUnknown: true}, func(en *Engine, args []Value) (Value, error) {
		n := &plan.Node{
			Op: plan.OpAccess, Flavor: plan.FlavorHeap, Table: "T", Quantifier: "T",
			Cols: en.Cost.Vocab().List(col("T", "A")),
		}
		if err := en.Cost.Price(n); err != nil {
			return Null, err
		}
		return SAPValue([]*plan.Node{n}), nil
	})
	sap, err := en.EvalRule("R", nil)
	if err != nil {
		t.Fatal(err)
	}
	if sap[0].Origin != "Wrapped#1" {
		t.Errorf("origin = %q (innermost rule wins)", sap[0].Origin)
	}
}

func TestTraceCapturesFirings(t *testing.T) {
	en := stubEngine(t, `star R() = Wrapped()
star Wrapped() = LEAF('x')`)
	en.Obs = obs.NewSink()
	if _, err := en.EvalRule("R", nil); err != nil {
		t.Fatal(err)
	}
	text := FormatTrace(TraceFromEvents(en.Obs.Events()))
	if !strings.Contains(text, "R()") || !strings.Contains(text, "Wrapped()") {
		t.Errorf("trace = %s", text)
	}
	// The span tracer also measured per-rule latency.
	if h := en.Obs.Registry().Histogram(`star_rule_seconds{name="Wrapped"}`); h.Count() != 1 {
		t.Errorf("rule latency histogram count = %d, want 1", h.Count())
	}
}

func TestTraceRecordsRejectedAlternatives(t *testing.T) {
	en := stubEngine(t, `
star R() = [
  | LEAF('a') if no()
  | LEAF('b') if yes()
]`)
	en.Obs = obs.NewSink()
	if _, err := en.EvalRule("R", nil); err != nil {
		t.Fatal(err)
	}
	entries := TraceFromEvents(en.Obs.Events())
	var sawRejected, sawFired bool
	for _, e := range entries {
		if e.Rejected && e.Alt == 1 {
			sawRejected = true
		}
		if !e.Rejected && e.Alt == 2 {
			sawFired = true
		}
	}
	if !sawRejected || !sawFired {
		t.Fatalf("trace misses rejection fanout: %+v", entries)
	}
	text := FormatTrace(entries)
	if !strings.Contains(text, "alt#1 rejected") || !strings.Contains(text, "alt#2 fired") {
		t.Errorf("trace = %s", text)
	}
	if en.Stats.AltsRejected != 1 {
		t.Errorf("AltsRejected = %d, want 1", en.Stats.AltsRejected)
	}
}

// TestRejectedEventCarriesCondition checks the alt-rejected event names the
// failing condition of applicability in DSL syntax — the text WhyNot and
// the trace cite.
func TestRejectedEventCarriesCondition(t *testing.T) {
	en := stubEngine(t, `
star R() = [
  | LEAF('a') if no()
  | LEAF('b') if yes()
]`)
	en.Obs = obs.NewSink()
	if _, err := en.EvalRule("R", nil); err != nil {
		t.Fatal(err)
	}
	var cond string
	for _, e := range en.Obs.Events() {
		if e.Name == obs.EvAltRejected && e.Kind == obs.KindInstant {
			cond = e.A2
		}
	}
	if cond != "no()" {
		t.Errorf("rejected event condition = %q, want %q", cond, "no()")
	}
	text := FormatTrace(TraceFromEvents(en.Obs.Events()))
	if !strings.Contains(text, "rejected: no()") {
		t.Errorf("trace does not cite the failing condition:\n%s", text)
	}
}

func TestGlueBridging(t *testing.T) {
	en := stubEngine(t, `star R(T) = Glue(T[site = 'LA'], {})`)
	var got *GlueRequest
	en.Glue = func(req *GlueRequest) ([]*plan.Node, error) {
		got = req
		return nil, nil
	}
	if _, err := en.EvalRule("R", []Value{StreamValue(leafU.All())}); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Req.Site == nil || *got.Req.Site != "LA" || !got.Tables.Contains("T") {
		t.Fatalf("glue request = %+v", got)
	}
	if en.Stats.GlueCalls != 1 {
		t.Error("glue call counted")
	}
	// Without a glue mechanism the reference errors.
	en.Glue = nil
	if _, err := en.EvalRule("R", []Value{StreamValue(leafU.All())}); err == nil {
		t.Fatal("Glue without a mechanism must error")
	}
}

func TestValueTruthinessAndString(t *testing.T) {
	en := stubEngine(t, `star R() = LEAF()`)
	cases := []struct {
		v    Value
		want bool
	}{
		{Null, false},
		{BoolValue(true), true},
		{BoolValue(false), false},
		{NumValue(0), false},
		{NumValue(2), true},
		{PredsValue(expr.PredSet{}), false},
		{ColsValue(expr.ColList{}), false},
		{ColsValue(en.Cost.Vocab().List(col("T", "A"))), true},
		{ListValue(nil), false},
		{SAPValue(nil), false},
		{StrValue(""), true},
		{AllColsValue, true},
	}
	for i, c := range cases {
		if c.v.Truthy() != c.want {
			t.Errorf("case %d: Truthy(%s) = %v", i, c.v, c.v.Truthy())
		}
		_ = c.v.String() // must not panic
	}
	if StreamValue(leafU.All()).String() != "{T}" {
		t.Error("stream rendering")
	}
}

// TestAltTallies: an observed engine tallies each alternative's fate in its
// rule set's slot — on a non-tracing sink without materialising an event, on
// no sink not at all — and Stats.Add folds the tallies slot by slot.
func TestAltTallies(t *testing.T) {
	const rules = `
star First() = LEAF('x')
star R() = [
  | LEAF('a') if no()
  | LEAF('b') if yes()
  | First()
]`
	for _, sink := range []*obs.Sink{obs.NewMetricsSink(), obs.NewSink(), nil} {
		en := stubEngine(t, rules)
		en.Obs = sink
		for i := 0; i < 2; i++ {
			if _, err := en.EvalRule("R", nil); err != nil {
				t.Fatal(err)
			}
		}
		if sink == nil {
			if en.Stats.Alts != nil {
				t.Errorf("unobserved engine kept tallies: %+v", en.Stats.Alts)
			}
			continue
		}
		r, first := en.Rules.AltSlot("R"), en.Rules.AltSlot("First")
		want := map[int]AltTally{r: {Rejected: 2}, r + 1: {Fired: 2, Built: 2}, r + 2: {Fired: 2, Built: 2}, first: {Fired: 2, Built: 2}}
		for slot, tally := range en.Stats.Alts {
			if tally != want[slot] {
				t.Errorf("tracing=%v: slot %d tallied %+v, want %+v", sink.Tracing(), slot, tally, want[slot])
			}
		}
		if len(en.Stats.Alts) != 4 {
			t.Errorf("tallies cover %d slots, want the repertoire's 4", len(en.Stats.Alts))
		}
		if !sink.Tracing() && sink.Len() != 0 {
			t.Errorf("non-tracing sink materialised %d events", sink.Len())
		}

		var sum Stats
		sum.Add(en.Stats)
		sum.Add(en.Stats)
		if got := sum.Alts[r+1]; got != (AltTally{Fired: 4, Built: 4}) || sum.AltsFired != 2*en.Stats.AltsFired {
			t.Errorf("Stats.Add: slot tally %+v, AltsFired %d", got, sum.AltsFired)
		}
	}
}

// TestEngineSetupAllocs pins what an engine costs before its first reference:
// NewEngine shares the built-in callee table, and binding the built-in
// repertoire fills one slice of rules and one of calls. Measured: 3
// allocations (go1.24, linux/amd64) — the engine, its dedupe map and the
// bindings — where per-engine builder, helper and signature maps cost 25.
func TestEngineSetupAllocs(t *testing.T) {
	rs := DefaultRules()
	if n := testing.AllocsPerRun(100, func() {
		if err := NewEngine(rs, nil).Validate(); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Fatalf("NewEngine + Validate allocates %.0f objects, want at most 3", n)
	}
}
