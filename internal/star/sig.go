package star

import (
	"maps"
	"strings"
)

// ArgKind is a bitmask of rule-language value kinds a call argument (or
// result) may statically take. Static analysis works with masks because many
// expressions — notably STAR parameters, which are untyped — can hold any
// kind: their mask is KindAny and they satisfy every expectation. A definite
// mismatch is an empty intersection.
type ArgKind uint16

// The kind bits, mirroring VKind for the statically meaningful kinds.
const (
	KindStream ArgKind = 1 << iota
	KindSAP
	KindPreds
	KindCols
	KindStr
	KindNum
	KindBool
	KindList
	KindAllCols

	// KindAny is the unconstrained mask (parameters, unknown results).
	KindAny ArgKind = 1<<iota - 1
)

// kindNames orders the bits for rendering.
var kindNames = []struct {
	bit  ArgKind
	name string
}{
	{KindStream, "stream"},
	{KindSAP, "plans"},
	{KindPreds, "preds"},
	{KindCols, "cols"},
	{KindStr, "string"},
	{KindNum, "number"},
	{KindBool, "bool"},
	{KindList, "list"},
	{KindAllCols, "*"},
}

// String renders the mask as "stream|plans"; KindAny renders as "any".
func (k ArgKind) String() string {
	if k == KindAny {
		return "any"
	}
	var parts []string
	for _, kn := range kindNames {
		if k&kn.bit != 0 {
			parts = append(parts, kn.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// Overlaps reports whether the two masks share at least one kind — the
// static compatibility test (unknowns overlap everything).
func (k ArgKind) Overlaps(o ArgKind) bool { return k&o != 0 }

// Signature declares the static shape of a callable name: a LOLEPOP builder,
// a helper/condition function, or Glue. The linter checks call arity and, as
// far as static kinds are determinable, argument kinds against it.
type Signature struct {
	// Name is the callable's reference name.
	Name string
	// Args are the expected kind masks, one per positional argument.
	Args []ArgKind
	// Result is the call's result kind mask (KindAny when undeclared).
	Result ArgKind
	// Elem is the element kind of a KindList result — what a forall
	// variable ranging over the result holds (KindAny when undeclared).
	Elem ArgKind
	// ArityUnknown marks a callee registered without declared arguments:
	// the reference pass verifies only that the name resolves.
	ArityUnknown bool
	// Produces lists the required-property keys (of "order", "site",
	// "temp", "paths") the callable can establish on its output stream —
	// the operator's property effect. The semantic analyzer proves each
	// property a rule set can require has some producer; an operator that
	// merely preserves or consumes properties declares nothing.
	Produces []string
}

// SigTable maps callable names to signatures.
type SigTable map[string]Signature

// GlueName is the distinguished bridge to the plan table; every callee
// table holds it.
const GlueName = "Glue"

// GlueSignature is Glue's declared shape: Glue(stream, preds) -> plans.
var GlueSignature = Signature{
	Name:   GlueName,
	Args:   []ArgKind{KindStream, KindPreds},
	Result: KindSAP,
}

// Func is what a call of a builder or helper runs — the Go analogue of the
// paper's compiled C routines. A LOLEPOP builder receives the reference's
// argument values (with SAPs for stream arguments) and implements the
// map-over-SAP semantics: one node per combination of input alternatives,
// priced through the engine's cost environment. A helper computes a condition
// of applicability or a derived argument.
//
// args is a view of the engine's value stack, valid until the function
// returns: values (and the slices inside them) may be copied out and
// returned, args itself may not be kept or written. Re-entering the engine
// (Glue, Eval) is allowed: the stack is LIFO and a nested reference never
// changes args.
type Func func(en *Engine, args []Value) (Value, error)

// Callee is one entry of a callee table: a builder's or helper's static shape
// and the function its calls run. A callee whose Result is KindSAP is a
// LOLEPOP builder; any other is a helper, and Stats.HelperCalls counts its
// calls.
type Callee struct {
	Signature
	Func Func
}

// table maps reference names to callees.
type table map[string]*Callee

// newTable makes a callee table of cs.
func newTable(cs []Callee) table {
	t := make(table, len(cs))
	for i := range cs {
		t[cs[i].Name] = &cs[i]
	}
	return t
}

// sigs returns the table's signatures, a copy for the caller to extend.
func (t table) sigs() SigTable {
	out := make(SigTable, len(t))
	for name, c := range t {
		out[name] = c.Signature
	}
	return out
}

// BuiltinSignatures returns the signature table of every built-in callee
// (builders, helpers, Glue).
func BuiltinSignatures() SigTable { return builtins.sigs() }

// Signatures returns the signature table of the engine's callees — the
// built-ins and whatever Register added — so static checks see exactly what
// the evaluator can resolve.
func (en *Engine) Signatures() SigTable { return en.callees.sigs() }

// Register adds a builder or helper to the engine's callee table under
// sig.Name (conventionally ALL CAPS for a LOLEPOP, as in the paper's
// notation), replacing any callee of that name; a signature with ArityUnknown
// set has its calls checked only for resolving. The first Register copies the
// shared built-in table, and the engine binds its calls again before the next
// reference.
func (en *Engine) Register(sig Signature, f Func) {
	if !en.ownCallees {
		en.callees, en.ownCallees = maps.Clone(en.callees), true
	}
	en.callees[sig.Name] = &Callee{sig, f}
	en.boundTo = nil
}
