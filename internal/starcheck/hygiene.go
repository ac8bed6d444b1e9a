package starcheck

import (
	"fmt"

	"stars/internal/star"
)

// checkHygiene runs the name-hygiene pass over every rule: unused parameters
// (SC040), unused where-bindings (SC041), where-bindings referencing later
// bindings — unbound at evaluation time, since bindings evaluate in order
// (SC042), same-source redefinitions that silently drop alternatives
// (SC043), where-bindings shadowing parameters (SC044), and identifiers
// bound by nothing at all (SC045).
func checkHygiene(rs *star.RuleSet) []Diag {
	var diags []Diag
	for _, name := range rs.Names() {
		diags = append(diags, hygieneInRule(rs.Get(name))...)
	}
	for _, red := range rs.Redefined() {
		diags = append(diags, Diag{
			Code: CodeRedefinition, Severity: severityOf[CodeRedefinition],
			Rule: red.Name, Pos: red.Pos,
			Msg: fmt.Sprintf("rule %s redefined, silently dropping the definition at %s (%d alternatives); later definitions win", red.Name, red.PrevPos, red.PrevAlts),
		})
	}
	return diags
}

// hygieneInRule reads the scoping RuleSet.Add resolved (the Slot of every
// Ident and Let) instead of walking scopes itself, so what the linter calls unbound,
// shadowed or unused is by construction what the evaluator binds.
func hygieneInRule(r *star.Rule) []Diag {
	var diags []Diag
	report := func(code string, pos star.Pos, format string, args ...any) {
		diags = append(diags, Diag{
			Code: code, Severity: severityOf[code], Rule: r.Name, Pos: pos,
			Msg: fmt.Sprintf(format, args...),
		})
	}

	whereIdx := map[string]int{}
	for i, l := range r.Where {
		whereIdx[l.Name] = i
		if l.Slot < len(r.Params) {
			report(CodeShadowedParam, l.Pos,
				"where-binding %s of %s shadows the parameter of the same name", l.Name, r.Name)
		}
	}

	used := make([]bool, r.Frame)
	// ident judges one identifier of where-binding number where's expression
	// (-1: of an alternative).
	ident := func(id *star.Ident, where int) {
		if id.Slot >= 0 {
			used[id.Slot] = true
			return
		}
		// Unbound where it stands. The one way a rule's own name gets there is
		// a where-binding referenced at or before its definition — which still
		// counts as a use of it.
		j, isWhere := whereIdx[id.Name]
		if isWhere {
			used[r.Where[j].Slot] = true
		}
		switch {
		case isWhere && j == where:
			report(CodeUseBeforeDef, id.Pos,
				"where-binding %s of %s references itself; bindings evaluate in order and cannot recurse", id.Name, r.Name)
		case isWhere:
			report(CodeUseBeforeDef, id.Pos,
				"where-binding of %s references %s before its definition; bindings evaluate in order", r.Name, id.Name)
		default:
			report(CodeUnboundName, id.Pos,
				"%s references %s, which is not a parameter, where-binding, or forall variable", r.Name, id.Name)
		}
	}
	idents := func(e star.RExpr, where int) {
		star.Walk(e, func(x star.RExpr) {
			if id, ok := x.(*star.Ident); ok {
				ident(id, where)
			}
		})
	}
	for i, l := range r.Where {
		idents(l.Expr, i)
	}
	for _, alt := range r.Alts {
		idents(alt.Body, -1)
		idents(alt.Cond, -1)
	}

	for i, p := range r.Params {
		if !used[i] {
			report(CodeUnusedParam, r.Pos, "parameter %s of %s is never used", p, r.Name)
		}
	}
	for _, l := range r.Where {
		if !used[l.Slot] && l.Slot >= len(r.Params) {
			report(CodeUnusedWhere, l.Pos, "where-binding %s of %s is never used", l.Name, r.Name)
		}
	}
	return diags
}
