// Package query models the optimizer's input: a query graph of quantifiers
// (range variables over stored tables), a conjunctive predicate set, a
// projection list, and root requirements (ORDER BY, delivery site). It also
// answers the eligibility questions the enumeration and Glue need: which
// predicates are eligible for a table set, which columns a quantifier must
// supply, and which table-set pairs are joinable.
package query

import (
	"fmt"

	"stars/internal/catalog"
	"stars/internal/expr"
)

// Quantifier is one range variable of the query.
type Quantifier struct {
	// Name is the range-variable name (the alias); predicates and columns
	// are qualified by it.
	Name string
	// Table is the stored table the quantifier ranges over.
	Table string
}

// Graph is one query's optimizer input, built by New.
type Graph struct {
	// Quants are the range variables in FROM order.
	Quants []Quantifier
	// Preds is the conjunctive WHERE clause: every conjunct of the universe.
	Preds expr.PredSet
	// Select is the projection as qualified columns; empty means every
	// column of every quantifier.
	Select []expr.ColID
	// OrderBy is the required output order, if any.
	OrderBy []expr.ColID

	u *expr.Universe
}

// New builds the graph of a FROM list and the conjuncts of its WHERE clause.
// This is where both lists are final, so it fixes the query's universe: every
// table set and predicate set of the optimization is a subset of it. Select
// and OrderBy are the caller's to fill in.
func New(quants []Quantifier, where ...expr.Expr) (*Graph, error) {
	g := &Graph{Quants: quants}
	u, err := expr.NewUniverse(g.QuantNames(), where)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	g.u, g.Preds = u, u.Preds()
	return g, nil
}

// MustNew is New for graphs whose shape is fixed in source (workloads,
// experiments, tests); it panics where New fails.
func MustNew(quants []Quantifier, where ...expr.Expr) *Graph {
	g, err := New(quants, where...)
	if err != nil {
		panic(err)
	}
	return g
}

// Universe returns the ordinals the query's sets are subsets of.
func (g *Graph) Universe() *expr.Universe { return g.u }

// Quant returns the named quantifier, or nil.
func (g *Graph) Quant(name string) *Quantifier {
	for i := range g.Quants {
		if g.Quants[i].Name == name {
			return &g.Quants[i]
		}
	}
	return nil
}

// QuantNames returns the quantifier names in FROM order.
func (g *Graph) QuantNames() []string {
	out := make([]string, len(g.Quants))
	for i, q := range g.Quants {
		out[i] = q.Name
	}
	return out
}

// Validate resolves every quantifier, column, and predicate against the
// catalog.
func (g *Graph) Validate(cat *catalog.Catalog) error {
	if len(g.Quants) == 0 {
		return fmt.Errorf("query: no quantifiers")
	}
	for i, q := range g.Quants {
		if g.u.Ordinal(q.Name) != i {
			return fmt.Errorf("query: quantifier %q is not in the graph's universe (graphs are built by query.New)", q.Name)
		}
		if cat.Table(q.Table) == nil {
			return fmt.Errorf("query: quantifier %q over unknown table %q", q.Name, q.Table)
		}
	}
	check := func(c expr.ColID) error {
		q := g.Quant(c.Table)
		if q == nil {
			return fmt.Errorf("query: column %s references unknown quantifier", c)
		}
		if cat.Table(q.Table).Column(c.Col) == nil {
			return fmt.Errorf("query: column %s not in table %s", c, q.Table)
		}
		return nil
	}
	var err error
	g.Preds.ForEach(func(p expr.Expr, _ string) {
		for _, c := range expr.Columns(p) {
			if err == nil {
				err = check(c)
			}
		}
	})
	if err != nil {
		return err
	}
	for _, c := range g.Select {
		if err := check(c); err != nil {
			return err
		}
	}
	for _, c := range g.OrderBy {
		if err := check(c); err != nil {
			return err
		}
	}
	return nil
}

// SelectCols returns the projection, expanding the empty list to every
// column of every quantifier in catalog order.
func (g *Graph) SelectCols(cat *catalog.Catalog) []expr.ColID {
	if len(g.Select) > 0 {
		return g.Select
	}
	var out []expr.ColID
	for _, q := range g.Quants {
		t := cat.Table(q.Table)
		if t == nil {
			continue
		}
		for _, c := range t.Cols {
			out = append(out, expr.ColID{Table: q.Name, Col: c.Name})
		}
	}
	return out
}

// EligibleWithin returns the predicates whose every column lies within the
// quantifier set — the predicates a plan covering exactly those tables must
// have applied.
func (g *Graph) EligibleWithin(ts expr.TableSet) expr.PredSet {
	return g.Preds.Within(ts)
}

// NewlyEligible returns the predicates that become eligible when s1 and s2
// join: eligible within s1 ∪ s2 but within neither side alone — the P
// parameter of JoinRoot (Section 2.3).
func (g *Graph) NewlyEligible(s1, s2 expr.TableSet) expr.PredSet {
	both := g.EligibleWithin(s1.Union(s2))
	return both.Minus(g.EligibleWithin(s1)).Minus(g.EligibleWithin(s2))
}

// Connected reports whether some predicate links the two (disjoint) sets —
// the System-R "eligible join predicate" preference for joinable pairs.
func (g *Graph) Connected(s1, s2 expr.TableSet) bool {
	return !expr.JoinPreds(g.Preds, s1, s2).Empty()
}

// BasePreds returns the single-quantifier predicates of q — those eligible
// at table-access time.
func (g *Graph) BasePreds(q string) expr.PredSet {
	return g.EligibleWithin(g.u.Tables(q))
}

// TableSet returns the full quantifier set of the query.
func (g *Graph) TableSet() expr.TableSet {
	return g.u.All()
}
