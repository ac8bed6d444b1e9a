package experiments

import (
	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/glue"
	"stars/internal/query"
	"stars/internal/star"
)

// newGluerWithRules wires a fresh cost environment, rule engine, plan table,
// and Glue mechanism for a query — the same wiring the optimizer driver
// performs, exposed so experiments can drive Glue and the engine directly
// (Figure 3, ablations).
func newGluerWithRules(cat *catalog.Catalog, g *query.Graph, rules *star.RuleSet) (*glue.Gluer, *star.Engine, error) {
	if err := g.Validate(cat); err != nil {
		return nil, nil, err
	}
	env := cost.NewEnv(cat, cost.DefaultWeights)
	env.Bind(g)
	en := star.NewEngine(rules, env)
	en.QueryTables = g.QuantNames()
	table := glue.NewPlanTable()
	gl := &glue.Gluer{Engine: en, Graph: g, Table: table}
	en.Glue = gl.Glue
	en.PlanSites = gl.PlanSites
	if err := en.Validate(); err != nil {
		return nil, nil, err
	}
	return gl, en, nil
}
