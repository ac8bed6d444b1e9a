package star

import (
	"strings"
	"testing"
)

func TestParseSingleAlternative(t *testing.T) {
	rs, err := ParseRules(`star A(T, P) = B(T, P)`)
	if err != nil {
		t.Fatal(err)
	}
	r := rs.Get("A")
	if r == nil || len(r.Params) != 2 || len(r.Alts) != 1 {
		t.Fatalf("rule = %+v", r)
	}
	if r.Exclusive {
		t.Error("single alternative is not exclusive")
	}
	call, ok := r.Alts[0].Body.(*Call)
	if !ok || call.Name != "B" || len(call.Args) != 2 {
		t.Fatalf("body = %#v", r.Alts[0].Body)
	}
}

func TestParseInclusiveAndExclusiveBlocks(t *testing.T) {
	rs, err := ParseRules(`
star Inc(T) = [
  | A(T)
  | B(T) if cond(T)
]
star Exc(T) = {
  | A(T) if cond(T)
  | B(T) otherwise
}
star A(T) = X(T)
star B(T) = X(T)
`)
	if err != nil {
		t.Fatal(err)
	}
	inc := rs.Get("Inc")
	if inc.Exclusive || len(inc.Alts) != 2 || inc.Alts[1].Cond == nil {
		t.Fatalf("inc = %+v", inc)
	}
	exc := rs.Get("Exc")
	if !exc.Exclusive || !exc.Alts[1].Otherwise {
		t.Fatalf("exc = %+v", exc)
	}
}

func TestParseWhereBindings(t *testing.T) {
	rs, err := ParseRules(`
star R(T1, T2, P) = JOIN('NL', T1, T2, JP, minus(P, JP)) where
  JP = joinPreds(P, T1, T2)
  IP = innerPreds(P, T2)
`)
	if err != nil {
		t.Fatal(err)
	}
	r := rs.Get("R")
	if len(r.Where) != 2 || r.Where[0].Name != "JP" || r.Where[1].Name != "IP" {
		t.Fatalf("where = %+v", r.Where)
	}
}

func TestParseAnnotations(t *testing.T) {
	rs, err := ParseRules(`
star R(T, s) = Glue(T[site = s, order = sortCols(P, T), temp], {})
`)
	if err != nil {
		t.Fatal(err)
	}
	call := rs.Get("R").Alts[0].Body.(*Call)
	an, ok := call.Args[0].(*Annot)
	if !ok || len(an.Reqs) != 3 {
		t.Fatalf("annot = %#v", call.Args[0])
	}
	if an.Reqs[2].Key != "temp" || an.Reqs[2].Val != nil {
		t.Error("bare temp flag")
	}
}

func TestParseForall(t *testing.T) {
	rs, err := ParseRules(`
star R(T) = forall i in indexes(T): ACCESS('index', i, cols(T), {})
`)
	if err != nil {
		t.Fatal(err)
	}
	fa, ok := rs.Get("R").Alts[0].Body.(*Forall)
	if !ok || fa.Var != "i" {
		t.Fatalf("forall = %#v", rs.Get("R").Alts[0].Body)
	}
}

func TestParseConditions(t *testing.T) {
	rs, err := ParseRules(`
star R(T) = {
  | A(T) if nonempty(T) and not empty(T) or isComposite(T)
  | A(T) otherwise
}
star A(T) = X(T)
`)
	if err != nil {
		t.Fatal(err)
	}
	cond := rs.Get("R").Alts[0].Cond
	or, ok := cond.(*Logic)
	if !ok || or.OpAnd {
		t.Fatalf("top must be OR: %#v", cond)
	}
}

func TestParseLiterals(t *testing.T) {
	rs, err := ParseRules(`star R(T) = F(T, 'str', 42, 1.5, {}, *)`)
	if err != nil {
		t.Fatal(err)
	}
	args := rs.Get("R").Alts[0].Body.(*Call).Args
	if _, ok := args[1].(*StrLit); !ok {
		t.Error("string literal")
	}
	if n, ok := args[2].(*NumLit); !ok || n.Val != 42 {
		t.Error("int literal")
	}
	if n, ok := args[3].(*NumLit); !ok || n.Val != 1.5 {
		t.Error("float literal")
	}
	if _, ok := args[4].(*EmptySet); !ok {
		t.Error("empty set")
	}
	if _, ok := args[5].(*AllCols); !ok {
		t.Error("star (all columns)")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`star`, "rule name"},
		{`star R T) = A(T)`, "'('"},
		{`star R(T = A(T)`, "')'"},
		{`star R(T) A(T)`, "'='"},
		{`star R(T) = [ | A(T) `, "block close"},
		{`star R(T) = A(T) where`, "binding"},
		{`star R(T) = forall i indexes(T): A(i)`, "'in'"},
		{`star R(T) = A(T[bogus key])`, "']'"},
		{`star if(T) = A(T)`, "reserved"},
		{`star R(T) = 'unterminated`, "unterminated"},
		{`star R(T) = A(T) ~`, "unexpected character"},
		{`star R() = [ ]`, "no alternatives"},
		{`star R(T) = A(T[order = ])`, "unexpected"},
	}
	for _, c := range cases {
		if _, err := ParseRules(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want substring %q", c.src, err, c.want)
		}
	}
}

func TestParseComments(t *testing.T) {
	rs, err := ParseRules(`
# This rule does X.
# And also Y.
star R(T) = A(T)
star A(T) = X(T)
`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Get("R").Doc != "This rule does X.\nAnd also Y." {
		t.Errorf("doc = %q", rs.Get("R").Doc)
	}
}

func TestRedefinitionReplaces(t *testing.T) {
	rs, err := ParseRules(`
star R(T) = A(T)
star R(T) = B(T)
`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Get("R").Alts[0].Body.(*Call).Name != "B" {
		t.Error("later definition must replace")
	}
	if len(rs.Names()) != 1 {
		t.Error("no duplicate names")
	}
}

func TestMergeRuleSets(t *testing.T) {
	a, _ := ParseRules(`star R(T) = A(T)`)
	b, _ := ParseRules(`star R(T) = B(T)
star S(T) = C(T)`)
	a.Merge(b)
	if a.Get("R").Alts[0].Body.(*Call).Name != "B" || a.Get("S") == nil {
		t.Error("merge must overlay")
	}
}

// TestFormatParseFixpoint checks that Format(Parse(Format(x))) == Format(x)
// for the built-in repertoire and crafted rules — the printer round-trip.
func TestFormatParseFixpoint(t *testing.T) {
	sources := []string{
		DefaultRuleText,
		`star R(T, s) = {
  | Glue(T[site = s, temp], {}) if isComposite(T) and nonempty(P)
  | forall i in indexes(T): ACCESS('index', i, cols(T), {}) otherwise
} where
  P = joinPreds({}, T, T)`,
	}
	for _, src := range sources {
		rs1, err := ParseRules(src)
		if err != nil {
			t.Fatal(err)
		}
		text1 := Format(rs1)
		rs2, err := ParseRules(text1)
		if err != nil {
			t.Fatalf("formatted output does not re-parse: %v\n%s", err, text1)
		}
		text2 := Format(rs2)
		if text1 != text2 {
			t.Fatalf("format not a fixpoint:\n--- first\n%s\n--- second\n%s", text1, text2)
		}
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	rs, _ := ParseRules(`
star R(T) = Undefined(T)
star S(T) = R(T, T)
`)
	err := NewEngine(rs, nil).Validate()
	if err == nil {
		t.Fatal("undefined reference and arity error must be caught")
	}
	msg := err.Error()
	if !strings.Contains(msg, "undefined") || !strings.Contains(msg, "args") {
		t.Errorf("message = %s", msg)
	}
	// Glue is always known.
	rs2, _ := ParseRules(`star R(T) = Glue(T, {})`)
	if err := NewEngine(rs2, nil).Validate(); err != nil {
		t.Errorf("Glue must validate: %v", err)
	}
}

func TestDefaultRulesParseAndValidate(t *testing.T) {
	rs := DefaultRules()
	want := []string{"AccessRoot", "TableAccess", "IndexAccess", "OrderedStream",
		"JoinRoot", "PermutedJoin", "JoinSite", "RemoteJoin", "SitedJoin", "JMeth"}
	names := rs.Names()
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("rule %d = %s, want %s", i, names[i], n)
		}
	}
	if rs.Get("JMeth").Exclusive {
		t.Error("JMeth alternatives are inclusive")
	}
	if !rs.Get("TableAccess").Exclusive {
		t.Error("TableAccess alternatives are exclusive")
	}
	if len(rs.Get("JMeth").Where) != 5 {
		t.Errorf("JMeth where bindings = %d", len(rs.Get("JMeth").Where))
	}
}
