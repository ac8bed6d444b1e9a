package star

import (
	"strings"
	"testing"

	"stars/internal/expr"
)

// TestRunTimeErrorTexts pins, byte for byte, the error every run-time failure
// of a reference reports: which failure wins when several are possible, and
// the rule context each level of nesting adds. The rule sets load; each
// error is raised only when evaluation reaches the failing expression.
func TestRunTimeErrorTexts(t *testing.T) {
	stream := StreamValue(leafU.All())
	preds := PredsValue(expr.PredSet{})
	for _, tc := range []struct {
		name, rules string
		args        []Value
		want        string // "" for a reference that must succeed
	}{
		{"unbound name in a where-binding", `star R(p) = see(a) where
  a = cat(b, p)`, []Value{StrValue("x")}, `star: R where a: unbound name "b"`},
		{"unbound name in an alternative", `star R() = {
  | see('first') if no()
  | see(Mystery)
}`, nil, `star: R alternative 2: unbound name "Mystery"`},
		{"unbound name in a condition", `star R() = [ | see('x') if note(Ghost) ]`, nil,
			`star: R alternative 1 condition: unbound name "Ghost"`},
		{"unbound argument before an undefined callee", `star R() = Nope(Ghost)`, nil,
			`star: R alternative 1: unbound name "Ghost"`},
		{"forall over a non-list", `star R(p) = forall i in p: see(i)`, []Value{StrValue("x")},
			`star: R alternative 1: forall wants a list, got string`},
		{"forall body yielding a non-plan", `star R() = forall i in items(): cat(i, i)`, nil,
			`star: R alternative 1: forall body produced string, want plans`},
		{"annotation of a non-stream", `star R(T) = LEAF('x') if T[site = 'x']`, []Value{preds},
			`star: R alternative 1 condition: required-property brackets apply to streams, not preds`},
		{"annotation of a non-stream before its values", `star R(T) = see(T[site = Nope()])`, []Value{preds},
			`star: R alternative 1: required-property brackets apply to streams, not preds`},
		{"unknown required property", `star R(T) = see(T[color = 'red'])`, []Value{stream},
			`star: R alternative 1: unknown required property "color"`},
		{"unknown required property before a later value", `star R(T) = see(T[color, order = Nope()])`, []Value{stream},
			`star: R alternative 1: unknown required property "color"`},
		{"order of a non-column value", `star R(T) = see(T[order = 'x'])`, []Value{stream},
			`star: R alternative 1: [order=...] wants columns, got string`},
		{"site of a non-string value", `star R(T) = see(T[temp, site = 1])`, []Value{stream},
			`star: R alternative 1: [site=...] wants a site name, got number`},
		{"temp with a value", `star R(T) = see(T[temp = 'x'])`, []Value{stream},
			`star: R alternative 1: [temp] takes no value`},
		{"paths of a non-column value", `star R(T) = see(T[paths = T])`, []Value{stream},
			`star: R alternative 1: [paths=...] wants index key columns, got stream`},
		{"reference to an undefined name", `star R(T) = Nope(T)`, []Value{stream},
			`star: R alternative 1: reference of undefined name "Nope"`},
		{"alternative yielding a non-plan", `star R() = [
  | LEAF('one')
  | yes()
]`, nil, `star: R alternative 2 produced bool, want plans`},
		{"nested reference failing", "star R() = S()\nstar S() = yes()", nil,
			`star: R alternative 1: star: S alternative 1 produced bool, want plans`},
		{"nested reference of the wrong arity", "star R() = S('a')\nstar S() = LEAF('x')", nil,
			`star: R alternative 1: star: S expects 0 arguments, got 1`},
		{"builder error", `star R(T) = SORT(LEAF('x'), T)`, []Value{stream},
			`star: R alternative 1: SORT wants (input, cols)`},
		{"short-circuit skips what it does not need", `star R() = [
  | LEAF('one') if (no() and Ghost)
  | LEAF('two') if (yes() or Ghost)
  | LEAF('three') if not (yes() and no())
]`, nil, ""},
		{"recursion", `star R() = R()`, nil,
			strings.Repeat("star: R alternative 1: ", maxDepth) + "star: rule recursion exceeds 200 at R (cycle in STARs?)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			en, _ := seeEngine(t, tc.rules)
			_, err := en.EvalRule("R", tc.args)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.want != "" && (err == nil || err.Error() != tc.want):
				t.Fatalf("error\n got %v\nwant %s", err, tc.want)
			}
			if len(en.stack) != 0 || en.depth != 0 {
				t.Errorf("after the reference: %d stack slots in use at depth %d, want none", len(en.stack), en.depth)
			}
		})
	}
	en, _ := seeEngine(t, `star R() = LEAF('x')`)
	if _, err := en.EvalRule("Missing", nil); err == nil || err.Error() != `star: reference of undefined STAR "Missing"` {
		t.Errorf("reference of an unknown STAR: %v", err)
	}
}

// alien is an expression node of no kind the rule language knows.
type alien struct{}

func (alien) String() string { return "alien" }

// TestUnknownExpressionNodeFailsWhenReached: an AST built by hand may hold a
// node the language has no meaning for; it loads, and a reference fails when
// it reaches the node, as the tree walker did.
func TestUnknownExpressionNodeFailsWhenReached(t *testing.T) {
	en, _ := seeEngine(t, `star Other() = LEAF('x')`)
	en.Rules.Add(&Rule{Name: "R", Alts: []*Alt{{Body: alien{}}}})
	_, err := en.EvalRule("R", nil)
	if want := "star: R alternative 1: unknown expression node star.alien"; err == nil || err.Error() != want {
		t.Fatalf("error %v, want %s", err, want)
	}
}
