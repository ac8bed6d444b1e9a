package query

import (
	"fmt"
	"strings"
	"testing"

	"stars/internal/catalog"
	"stars/internal/datum"
	"stars/internal/expr"
)

func cat3() *catalog.Catalog {
	c := catalog.New()
	for _, n := range []string{"A", "B", "C"} {
		c.AddTable(&catalog.Table{
			Name: n,
			Cols: []*catalog.Column{
				{Name: "X", Type: datum.KindInt, NDV: 10},
				{Name: "Y", Type: datum.KindInt, NDV: 10},
			},
			Card: 100,
		})
	}
	return c
}

func chain3() *Graph {
	g := MustNew(
		[]Quantifier{{Name: "A", Table: "A"}, {Name: "B", Table: "B"}, {Name: "C", Table: "C"}},
		&expr.Cmp{Op: expr.EQ, L: expr.C("A", "Y"), R: expr.C("B", "X")},
		&expr.Cmp{Op: expr.EQ, L: expr.C("B", "Y"), R: expr.C("C", "X")},
		&expr.Cmp{Op: expr.EQ, L: expr.C("A", "X"), R: &expr.Const{Val: datum.NewInt(1)}},
	)
	g.Select = []expr.ColID{{Table: "A", Col: "X"}}
	return g
}

func TestValidateOK(t *testing.T) {
	if err := chain3().Validate(cat3()); err != nil {
		t.Fatal(err)
	}
}

// TestNewErrors covers what the constructor rejects: the universe cannot
// give these ordinals.
func TestNewErrors(t *testing.T) {
	abc := chain3().Quants
	wide := make([]Quantifier, 65)
	for i := range wide {
		wide[i] = Quantifier{Name: fmt.Sprintf("Q%d", i), Table: "A"}
	}
	cases := []struct {
		name   string
		quants []Quantifier
		where  []expr.Expr
		want   string
	}{
		{"dup quantifier", append(abc[:3:3], Quantifier{Name: "A", Table: "A"}), nil, `query: duplicate quantifier "A"`},
		{"bad pred quantifier", abc, []expr.Expr{&expr.Cmp{Op: expr.EQ, L: expr.C("Z", "X"), R: expr.C("B", "X")}},
			"query: column Z.X references unknown quantifier"},
		{"FROM wider than a table set", wide, nil, "65 quantifiers exceed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := New(tc.quants, tc.where...)
			if g != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, %v; want error %q", g, err, tc.want)
			}
		})
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name  string
		wreck func(*Graph)
		want  string
	}{
		{"no quantifiers", func(g *Graph) { g.Quants = nil }, "no quantifiers"},
		{"quantifier added after New", func(g *Graph) { g.Quants = append(g.Quants, Quantifier{Name: "A", Table: "A"}) }, "not in the graph's universe"},
		{"graph not built by New", func(g *Graph) { *g = Graph{Quants: g.Quants} }, "not in the graph's universe"},
		{"unknown table", func(g *Graph) { g.Quants[0].Table = "NOPE" }, "unknown table"},
		{"bad pred column", func(g *Graph) {
			*g = *MustNew(g.Quants, &expr.Cmp{Op: expr.EQ, L: expr.C("A", "Z"), R: expr.C("B", "X")})
		}, "not in table"},
		{"bad select", func(g *Graph) { g.Select = []expr.ColID{{Table: "A", Col: "Z"}} }, "not in table"},
		{"bad order by", func(g *Graph) { g.OrderBy = []expr.ColID{{Table: "Z", Col: "X"}} }, "unknown quantifier"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := chain3()
			tc.wreck(g)
			err := g.Validate(cat3())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestEligibleWithin(t *testing.T) {
	g := chain3()
	u := g.Universe()
	a := g.EligibleWithin(u.Tables("A"))
	if a.Len() != 1 {
		t.Fatalf("A-only preds = %s", a)
	}
	ab := g.EligibleWithin(u.Tables("A", "B"))
	if ab.Len() != 2 {
		t.Fatalf("AB preds = %s", ab)
	}
	abc := g.EligibleWithin(g.TableSet())
	if abc.Len() != 3 {
		t.Fatalf("all preds = %s", abc)
	}
}

func TestNewlyEligible(t *testing.T) {
	g := chain3()
	u := g.Universe()
	a, b, ab, c := u.Tables("A"), u.Tables("B"), u.Tables("A", "B"), u.Tables("C")
	p := g.NewlyEligible(a, b)
	if p.Len() != 1 {
		t.Fatalf("A⨝B newly eligible = %s", p)
	}
	p = g.NewlyEligible(ab, c)
	if p.Len() != 1 {
		t.Fatalf("AB⨝C newly eligible = %s", p)
	}
	// A and C are not directly connected.
	if g.NewlyEligible(a, c).Len() != 0 {
		t.Error("A⨝C has no spanning predicate")
	}
	if g.Connected(a, c) {
		t.Error("A–C disconnected")
	}
	if !g.Connected(a, b) || !g.Connected(ab, c) {
		t.Error("chain connectivity")
	}
}

func TestBasePreds(t *testing.T) {
	g := chain3()
	if g.BasePreds("A").Len() != 1 || g.BasePreds("B").Len() != 0 {
		t.Error("base preds per quantifier")
	}
}

func TestSelectColsExpansion(t *testing.T) {
	g := chain3()
	g.Select = nil
	all := g.SelectCols(cat3())
	if len(all) != 6 {
		t.Fatalf("empty select expands to all columns: %v", all)
	}
	g.Select = []expr.ColID{{Table: "B", Col: "Y"}}
	if len(g.SelectCols(cat3())) != 1 {
		t.Error("explicit select wins")
	}
}

func TestQuantLookup(t *testing.T) {
	g := chain3()
	if g.Quant("B") == nil || g.Quant("Z") != nil {
		t.Error("Quant")
	}
	names := g.QuantNames()
	if len(names) != 3 || names[0] != "A" {
		t.Errorf("names = %v", names)
	}
}
