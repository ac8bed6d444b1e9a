package star

import (
	"fmt"
)

// Stable diagnostic codes of the reference pass. The starcheck linter builds
// its SC001-series diagnostics directly from these, and Engine.Validate
// renders the same pass as an error — one implementation, two surfaces.
const (
	// CodeUndefined: a call resolves to no STAR, builder, helper, or Glue.
	CodeUndefined = "SC001"
	// CodeStarArity: a STAR reference's argument count mismatches the
	// rule's parameter list.
	CodeStarArity = "SC002"
	// CodeGlueShape: a Glue reference is not the two-argument
	// Glue(stream, preds) shape.
	CodeGlueShape = "SC003"
	// CodeCallArity: a builder/helper call mismatches its declared arity.
	CodeCallArity = "SC004"
)

// RefDiag is one structured finding of the reference pass: a stable code, the
// referencing rule, the offending call's source position, and a message.
type RefDiag struct {
	// Code is one of the SC00x constants above.
	Code string
	// Rule is the name of the rule containing the reference.
	Rule string
	// Call is the referenced name.
	Call string
	// Pos locates the reference in its source.
	Pos Pos
	// Msg is the human-readable finding.
	Msg string
}

// CheckRefs runs the reference & arity pass over a rule set: every call must
// resolve to a STAR (with matching arity), to Glue (with its two-argument
// shape), or to a builder/helper of sigs (with matching arity when the
// signature declares one). Diagnostics come back in rule-definition order,
// then call order within a rule — deterministic for goldens.
//
// This pass is the single source of truth for reference validity:
// Engine.Validate runs it over the engine's callee table, binding each call
// as it goes, and renders its findings as an error; the starcheck linter
// re-emits them as SC001..SC004 diagnostics.
func CheckRefs(rs *RuleSet, sigs SigTable) []RefDiag {
	t := make(table, len(sigs))
	for name, s := range sigs {
		t[name] = &Callee{Signature: s}
	}
	return refPass(rs, t, nil)
}

// boundRule is one STAR of an engine's repertoire with its calls bound.
type boundRule struct {
	*Rule
	// alt is the Stats.Alts slot of the rule's first alternative.
	alt int
	// calls holds what each call of the rule is bound to, by Call.Idx.
	calls []binding
}

// binding is what one call is bound to: a STAR of the repertoire or an entry
// of the callee table (Glue's included), neither for an undefined name.
type binding struct {
	star   *boundRule
	callee *Callee
}

// refPass resolves every call of rs against the callee table t and reports
// what does not resolve or mismatches its arity. With bound non-nil (one
// boundRule per rule of rs, by position) it also binds each call.
func refPass(rs *RuleSet, t table, bound []boundRule) []RefDiag {
	var diags []RefDiag
	var calls []binding
	if bound != nil {
		n := 0
		for _, r := range rs.rules {
			n += len(r.calls)
		}
		calls = make([]binding, n)
	}
	for i, r := range rs.rules {
		if bound != nil {
			bound[i] = boundRule{Rule: r, alt: rs.altBase[i], calls: calls[:len(r.calls):len(r.calls)]}
			calls = calls[len(r.calls):]
		}
		for _, c := range r.calls {
			var to binding
			code, msg := "", ""
			j, isStar := rs.index[c.Name]
			switch {
			case c.Name == GlueName:
				to.callee = t[GlueName]
				if len(c.Args) != len(GlueSignature.Args) {
					code, msg = CodeGlueShape, fmt.Sprintf("Glue with %d args, wants Glue(stream, preds)", len(c.Args))
				}
			case isStar:
				if bound != nil {
					to.star = &bound[j]
				}
				if want := len(rs.rules[j].Params); len(c.Args) != want {
					code, msg = CodeStarArity, fmt.Sprintf("%s with %d args, wants %d", c.Name, len(c.Args), want)
				}
			case t[c.Name] != nil:
				to.callee = t[c.Name]
				if want := len(to.callee.Args); !to.callee.ArityUnknown && len(c.Args) != want {
					code, msg = CodeCallArity, fmt.Sprintf("%s with %d args, wants %d", c.Name, len(c.Args), want)
				}
			default:
				code, msg = CodeUndefined, "undefined "+c.Name
			}
			if bound != nil {
				bound[i].calls[c.Idx] = to
			}
			if code != "" {
				diags = append(diags, RefDiag{Code: code, Rule: r.Name, Call: c.Name, Pos: c.Pos,
					Msg: r.Name + " references " + msg})
			}
		}
	}
	return diags
}
