package opt

import "stars/internal/star"

// SetArenaPoison switches poison-on-reset for every arena checked out from
// now on, so tests outside the package (the serve handler under poison) can
// prove no plan pointer outlives Result.Release.
func SetArenaPoison(on bool) { arenaPoison = on }

// DynamicIndexRules is the built-in repertoire with JMeth cut down to the
// nested-loop join and the dynamic-index alternative of Section 4.5.3, so the
// plan chosen for a chain over tables without useful indexes STOREs its inners
// and probes BUILDINDEXes on them: temp and index names and PATHS lists in the
// plan that gets detached, rendered and executed, not only in pruned
// candidates.
func DynamicIndexRules() *star.RuleSet {
	rules, err := star.ParseRules(star.DefaultRuleText + `
star JMeth(T1, T2, P) = [
  | JOIN('NL', Glue(T1, {}), Glue(T2, union(JP, IP)), JP, minus(P, union(JP, IP)))
  | JOIN('NL', Glue(T1, {}), Glue(T2[paths = indexCols(XP, IP, T2)], union(XP, IP)),
         minus(XP, IP), minus(P, union(XP, IP))) if nonempty(XP)
] where
  JP = joinPreds(P, T1, T2)
  XP = indexablePreds(P, T1, T2)
  IP = innerPreds(P, T2)
`)
	if err != nil {
		panic(err)
	}
	return rules
}
