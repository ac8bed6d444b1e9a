package star

import (
	"fmt"
)

// Stable diagnostic codes of the reference pass. The starcheck linter builds
// its SC001-series diagnostics directly from these, and RuleSet.Validate
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
// shape), or to a builder/helper known to lookup (with matching arity when
// the signature declares one). Diagnostics come back in rule-definition
// order, then call order within a rule — deterministic for goldens.
//
// This pass is the single source of truth for reference validity:
// RuleSet.Validate and Engine.Validate render its findings as errors, and
// the starcheck linter re-emits them as SC001..SC004 diagnostics.
func CheckRefs(rs *RuleSet, lookup func(string) (Signature, bool)) []RefDiag {
	var diags []RefDiag
	for _, name := range rs.order {
		r := rs.rules[name]
		r.WalkCalls(func(c *Call) {
			if c.Name == GlueName {
				if len(c.Args) != len(GlueSignature.Args) {
					diags = append(diags, RefDiag{
						Code: CodeGlueShape, Rule: name, Call: c.Name, Pos: c.Pos,
						Msg: fmt.Sprintf("%s references Glue with %d args, wants Glue(stream, preds)", name, len(c.Args)),
					})
				}
				return
			}
			if t := rs.rules[c.Name]; t != nil {
				if len(c.Args) != len(t.Params) {
					diags = append(diags, RefDiag{
						Code: CodeStarArity, Rule: name, Call: c.Name, Pos: c.Pos,
						Msg: fmt.Sprintf("%s references %s with %d args, wants %d", name, c.Name, len(c.Args), len(t.Params)),
					})
				}
				return
			}
			if lookup != nil {
				if sig, ok := lookup(c.Name); ok {
					if !sig.ArityUnknown && len(c.Args) != len(sig.Args) {
						diags = append(diags, RefDiag{
							Code: CodeCallArity, Rule: name, Call: c.Name, Pos: c.Pos,
							Msg: fmt.Sprintf("%s references %s with %d args, wants %d", name, c.Name, len(c.Args), len(sig.Args)),
						})
					}
					return
				}
			}
			diags = append(diags, RefDiag{
				Code: CodeUndefined, Rule: name, Call: c.Name, Pos: c.Pos,
				Msg: fmt.Sprintf("%s references undefined %s", name, c.Name),
			})
		})
	}
	return diags
}

// CheckRefsSigs is CheckRefs against a concrete signature table.
func CheckRefsSigs(rs *RuleSet, sigs SigTable) []RefDiag {
	return CheckRefs(rs, func(name string) (Signature, bool) {
		s, ok := sigs[name]
		return s, ok
	})
}
