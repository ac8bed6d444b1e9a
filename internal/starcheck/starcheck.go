// Package starcheck is a static analyzer for STAR rule sets — the
// correctness tooling the paper leaves open ("how to verify that any given
// set of STARs is correct"). It runs six passes over a parsed
// star.RuleSet and emits structured diagnostics with stable codes:
//
//	SC00x reference & arity   undefined names, STAR/builder/helper arity,
//	                          Glue call shape (shared with Engine.Validate)
//	SC01x reachability        STARs unreachable from the entry points, dead
//	                          alternatives (shadowed, contradictory,
//	                          OTHERWISE that can never fire)
//	SC02x termination         recursive STAR cycles with no structurally
//	                          decreasing argument (the paper's permutation
//	                          STARs recurse on strictly smaller sets;
//	                          anything else likely expands forever)
//	SC03x coverage & typing   required properties no veneer operator can
//	                          satisfy, annotation shapes, LOLEPOP/helper
//	                          argument kinds against declared signatures
//	SC04x hygiene             unused parameters and where-bindings,
//	                          use-before-definition, shadowing, unbound
//	                          names, redefinitions that drop alternatives
//	SC1xx guard satisfiability  conditions provably false (or provably
//	                          true, shadowing later alternatives) under
//	                          abstract interpretation of the property
//	                          domains — strictly stronger than SC011–SC014
//	SC2xx property completeness required property values with no declared
//	                          producer (Signature.Produces), annotations
//	                          that re-require what is already certain
//	SC3xx plan-shape inference  operators that can appear in no generated
//	                          plan, STARs generating the empty language;
//	                          the inferred regular-tree grammar itself is
//	                          available via CheckAndInfer / Shapes
//
// The SC1xx–SC3xx families come from internal/starcheck/semantic (an
// abstract interpreter that never invokes the optimizer); Config.Syntactic
// restricts a run to the five syntactic passes.
//
// A Database Customizer loading a `-rules file.star` gets the linter
// automatically (warn level) wherever rule files load; `starburst lint`
// runs it on demand with -json (schema stars/lint/v1) and -werror. See
// docs/LINTING.md for the catalog with worked examples.
package starcheck

import (
	"fmt"
	"sort"

	"stars/internal/star"
	"stars/internal/starcheck/semantic"
)

// Severity grades a diagnostic.
type Severity uint8

// Severities, ordered so that more severe compares greater.
const (
	// SevWarning marks smells that cannot fail an optimization by
	// themselves (dead alternatives, unused names, likely-nonterminating
	// cycles the depth limit would catch).
	SevWarning Severity = iota
	// SevError marks findings that make some optimization fail or
	// misbehave at run time (undefined names, arity and kind mismatches,
	// guaranteed-infinite recursion).
	SevError
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Diagnostic codes. Codes are stable: tools may match on them, and each has
// at least one positive and one negative case in testdata/lint.
const (
	// CodeUndefined .. CodeCallArity re-export the reference pass's codes
	// (the pass itself lives in package star so Engine.Validate shares
	// it — the two cannot drift).
	CodeUndefined = star.CodeUndefined // SC001
	CodeStarArity = star.CodeStarArity // SC002
	CodeGlueShape = star.CodeGlueShape // SC003
	CodeCallArity = star.CodeCallArity // SC004

	// CodeUnreachable: a STAR no entry point transitively references.
	CodeUnreachable = "SC010"
	// CodeShadowed: an alternative after an unconditional alternative of
	// an exclusive rule can never be reached.
	CodeShadowed = "SC011"
	// CodeDuplicateGuard: an alternative of an exclusive rule repeats an
	// earlier alternative's condition verbatim, so it can never fire.
	CodeDuplicateGuard = "SC012"
	// CodeOtherwiseNeverFires: an OTHERWISE arm that cannot fire because
	// some earlier alternative always does.
	CodeOtherwiseNeverFires = "SC013"
	// CodeContradiction: an alternative dead because earlier guards
	// exhaust all cases (e.g. empty(x) then nonempty(x)), or an
	// alternative whose own guard is self-contradictory.
	CodeContradiction = "SC014"
	// CodeMissingRoot: an expected entry-point STAR is not defined.
	CodeMissingRoot = "SC015"

	// CodeCycle: a recursive STAR cycle with no structurally decreasing
	// argument on any edge.
	CodeCycle = "SC020"
	// CodeSelfRecursion: a STAR references itself with its own parameters
	// unchanged — guaranteed infinite expansion.
	CodeSelfRecursion = "SC021"

	// CodeBadReqKey: a required-property key that is not order, site,
	// temp, or paths.
	CodeBadReqKey = "SC030"
	// CodeBadReqValue: a required-property value of the wrong shape
	// (missing, superfluous, or of the wrong kind).
	CodeBadReqValue = "SC031"
	// CodeNoVeneer: a required property requested somewhere in the rule
	// set that no registered veneer operator can satisfy.
	CodeNoVeneer = "SC032"
	// CodeArgKind: a call argument whose static kind cannot match the
	// callee's declared signature.
	CodeArgKind = "SC033"
	// CodeAnnotNonStream: a required-property annotation on an expression
	// that is statically not a stream.
	CodeAnnotNonStream = "SC034"

	// CodeUnusedParam: a parameter no alternative or binding references.
	CodeUnusedParam = "SC040"
	// CodeUnusedWhere: a where-binding nothing references.
	CodeUnusedWhere = "SC041"
	// CodeUseBeforeDef: a where-binding referencing a binding defined
	// later (bindings evaluate in order; this is unbound at run time).
	CodeUseBeforeDef = "SC042"
	// CodeRedefinition: a rule redefined within one source, silently
	// dropping the earlier definition's alternatives.
	CodeRedefinition = "SC043"
	// CodeShadowedParam: a where-binding that shadows a parameter.
	CodeShadowedParam = "SC044"
	// CodeUnboundName: an identifier that is neither a parameter, a
	// where-binding, nor a forall variable in scope.
	CodeUnboundName = "SC045"

	// CodeUnsatGuard .. CodeEmptyLanguage re-export the semantic pass's
	// codes (the pass lives in the semantic subpackage; re-exporting here
	// keeps one catalog and lets coverage tooling match without importing
	// the interpreter).
	CodeUnsatGuard      = semantic.CodeUnsatGuard      // SC101
	CodeSemShadowed     = semantic.CodeSemShadowed     // SC102
	CodeUnderivableProp = semantic.CodeUnderivableProp // SC201
	CodeRedundantReq    = semantic.CodeRedundantReq    // SC202
	CodeImpossibleOp    = semantic.CodeImpossibleOp    // SC301
	CodeEmptyLanguage   = semantic.CodeEmptyLanguage   // SC302
)

// severityOf grades each code.
var severityOf = map[string]Severity{
	CodeUndefined: SevError, CodeStarArity: SevError, CodeGlueShape: SevError, CodeCallArity: SevError,
	CodeUnreachable: SevWarning, CodeShadowed: SevWarning, CodeDuplicateGuard: SevWarning,
	CodeOtherwiseNeverFires: SevWarning, CodeContradiction: SevWarning, CodeMissingRoot: SevWarning,
	CodeCycle: SevWarning, CodeSelfRecursion: SevError,
	CodeBadReqKey: SevError, CodeBadReqValue: SevError, CodeNoVeneer: SevWarning,
	CodeArgKind: SevError, CodeAnnotNonStream: SevError,
	CodeUnusedParam: SevWarning, CodeUnusedWhere: SevWarning, CodeUseBeforeDef: SevError,
	CodeRedefinition: SevWarning, CodeShadowedParam: SevWarning, CodeUnboundName: SevError,
	CodeUnsatGuard: SevWarning, CodeSemShadowed: SevWarning,
	CodeUnderivableProp: SevWarning, CodeRedundantReq: SevWarning,
	CodeImpossibleOp: SevWarning, CodeEmptyLanguage: SevWarning,
}

// Diag is one diagnostic: a stable code, a severity, the rule (and 1-based
// alternative, when the finding is alternative-scoped), a source position,
// and a self-contained message.
type Diag struct {
	Code     string
	Severity Severity
	Rule     string
	Alt      int
	Pos      star.Pos
	Msg      string
}

// String renders "file:line:col: severity[CODE]: message"; diagnostics with
// no source position (e.g. a missing entry point) drop the position prefix.
func (d Diag) String() string {
	if !d.Pos.IsValid() {
		return fmt.Sprintf("%s[%s]: %s", d.Severity, d.Code, d.Msg)
	}
	return fmt.Sprintf("%s: %s[%s]: %s", d.Pos, d.Severity, d.Code, d.Msg)
}

// DefaultJoinRoot is the optimizer's default join entry STAR.
const DefaultJoinRoot = "JoinRoot"

// DefaultAccessRoot is the STAR Glue and the optimizer reference for
// single-table access plans.
const DefaultAccessRoot = "AccessRoot"

// Config tunes a Check run.
type Config struct {
	// Roots are the entry-point STARs for the reachability pass. Nil
	// selects the optimizer's conventional entry points — AccessRoot and
	// JoinRoot (or the JoinRoot override) — plus every rule carrying the
	// `# lint: root` doc pragma. An explicitly empty (non-nil, zero
	// length) slice disables the reachability pass.
	Roots []string
	// JoinRoot overrides the join entry STAR's name (Options.JoinRoot);
	// empty means "JoinRoot". Used only when Roots is nil.
	JoinRoot string
	// Signatures declares the callable names (builders, helpers, Glue)
	// and their static shapes. Nil means star.BuiltinSignatures(); pass
	// Engine.Signatures() to include extension registrations.
	Signatures star.SigTable
	// Syntactic restricts the run to the five syntactic passes, skipping
	// the semantic abstract interpretation (SC1xx–SC3xx). starburst lint
	// -syntactic sets it; CI uses the distinction to pin fixtures that are
	// clean syntactically but tripped semantically.
	Syntactic bool
	// StorageKinds is the closed stmgr() vocabulary the guard
	// satisfiability pass assumes; nil means the catalog's storage-manager
	// kinds (heap, btree).
	StorageKinds []string
}

// sigs resolves the effective signature table.
func (c Config) sigs() star.SigTable {
	if c.Signatures != nil {
		return c.Signatures
	}
	return star.BuiltinSignatures()
}

// roots resolves the effective entry points; autoRooted reports whether the
// conventional entry points were assumed (and should be checked to exist).
func (c Config) roots(rs *star.RuleSet) (roots []string, autoRooted bool) {
	if c.Roots != nil {
		return c.Roots, false
	}
	jr := c.JoinRoot
	if jr == "" {
		jr = DefaultJoinRoot
	}
	roots = []string{DefaultAccessRoot, jr}
	// A JoinRoot override leaves the conventional JoinRoot callable (the
	// driver only needs the name at optimize time), so when it is defined it
	// stays an entry point rather than a false unreachable.
	if jr != DefaultJoinRoot && rs.Get(DefaultJoinRoot) != nil {
		roots = append(roots, DefaultJoinRoot)
	}
	for _, name := range rs.Names() {
		if r := rs.Get(name); r != nil && r.IsRoot() && name != DefaultAccessRoot && name != jr && name != DefaultJoinRoot {
			roots = append(roots, name)
		}
	}
	return roots, true
}

// Grammar is the inferred plan-shape grammar (see the semantic package's
// Grammar for the schema).
type Grammar = semantic.Grammar

// Check runs every pass over the rule set and returns the findings sorted by
// position, then code — deterministically, so golden tests and CI diffs are
// stable.
func Check(rs *star.RuleSet, cfg Config) []Diag {
	diags, _ := CheckAndInfer(rs, cfg)
	return diags
}

// Shapes infers the plan-shape grammar under the same configuration and
// syntactic dead-code facts as Check, discarding the diagnostics. The
// grammar is nil when cfg.Syntactic disables the semantic pass.
func Shapes(rs *star.RuleSet, cfg Config) *Grammar {
	_, g := CheckAndInfer(rs, cfg)
	return g
}

// CheckAndInfer runs every pass and additionally returns the plan-shape
// grammar the semantic pass infers (nil when cfg.Syntactic).
func CheckAndInfer(rs *star.RuleSet, cfg Config) ([]Diag, *Grammar) {
	sigs := cfg.sigs()
	var diags []Diag

	// Pass 1: references & arity — the pass Engine.Validate shares.
	for _, rd := range star.CheckRefs(rs, sigs) {
		diags = append(diags, Diag{
			Code: rd.Code, Severity: severityOf[rd.Code],
			Rule: rd.Rule, Pos: rd.Pos, Msg: rd.Msg,
		})
	}

	// Pass 2: reachability and dead alternatives.
	roots, autoRooted := cfg.roots(rs)
	diags = append(diags, checkReachability(rs, roots, autoRooted)...)
	diags = append(diags, checkDeadAlternatives(rs)...)

	// Pass 3: termination of recursive rule expansion.
	diags = append(diags, checkTermination(rs)...)

	// Pass 4: required-property coverage and static argument kinds.
	diags = append(diags, checkKinds(rs, sigs)...)

	// Pass 5: hygiene.
	diags = append(diags, checkHygiene(rs)...)

	// Pass 6: semantic abstract interpretation, fed the dead code the
	// syntactic passes proved so it neither re-reports nor reasons from it.
	var grammar *Grammar
	if !cfg.Syntactic {
		findings, g := semantic.AnalyzeAndInfer(rs, semantic.Config{
			Roots:        roots,
			AccessRoot:   DefaultAccessRoot,
			Sigs:         sigs,
			Dead:         StaticallyDead(diags),
			StorageKinds: cfg.StorageKinds,
		})
		grammar = g
		for _, f := range findings {
			diags = append(diags, Diag{
				Code: f.Code, Severity: severityOf[f.Code],
				Rule: f.Rule, Alt: f.Alt, Pos: f.Pos, Msg: f.Msg,
			})
		}
	}

	sortDiags(diags)
	return diags, grammar
}

// sortDiags orders diagnostics by file, position, code, rule, alternative.
func sortDiags(diags []Diag) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.File != b.Pos.File {
			return a.Pos.File < b.Pos.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Alt != b.Alt {
			return a.Alt < b.Alt
		}
		return a.Msg < b.Msg
	})
}

// Errors counts the error-severity diagnostics.
func Errors(diags []Diag) int {
	n := 0
	for _, d := range diags {
		if d.Severity == SevError {
			n++
		}
	}
	return n
}

// Warnings counts the warning-severity diagnostics.
func Warnings(diags []Diag) int { return len(diags) - Errors(diags) }

// Format renders diagnostics one per line, ready for stderr.
func Format(diags []Diag) string {
	out := ""
	for _, d := range diags {
		out += d.String() + "\n"
	}
	return out
}
