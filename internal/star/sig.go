package star

import (
	"sort"
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
	// ArityUnknown marks a name registered without a declared signature
	// (an extension builder/helper): the reference pass verifies only that
	// the name resolves.
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

// Names returns the table's names, sorted.
func (t SigTable) Names() []string {
	out := make([]string, 0, len(t))
	for k := range t {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// GlueName is the distinguished bridge to the plan table; it is always
// callable, whatever the engine's registries hold.
const GlueName = "Glue"

// GlueSignature is Glue's declared shape: Glue(stream, preds) -> plans.
var GlueSignature = Signature{
	Name:   GlueName,
	Args:   []ArgKind{KindStream, KindPreds},
	Result: KindSAP,
}

// builtinSigs declares the shapes of the built-in LOLEPOP builders and
// helper functions registered by NewEngine. Each entry mirrors the runtime
// argument validation in builtins.go — the static analyzer and the evaluator
// must agree, which the signature tests pin.
var builtinSigs = []Signature{
	GlueSignature,

	// LOLEPOP builders (all produce a SAP). Produces declares each
	// operator's property effect: an index-flavor ACCESS delivers key
	// order and is itself an access path; the four veneer operators
	// establish exactly the property Glue injects them for.
	{Name: "ACCESS", Args: []ArgKind{KindStr, KindStream | KindSAP | KindStr, KindCols | KindAllCols, KindPreds}, Result: KindSAP, Produces: []string{"order", "paths"}},
	{Name: "GET", Args: []ArgKind{KindSAP, KindStream, KindCols | KindAllCols, KindPreds}, Result: KindSAP},
	{Name: "SORT", Args: []ArgKind{KindSAP, KindCols}, Result: KindSAP, Produces: []string{"order"}},
	{Name: "SHIP", Args: []ArgKind{KindSAP, KindStr}, Result: KindSAP, Produces: []string{"site"}},
	{Name: "STORE", Args: []ArgKind{KindSAP}, Result: KindSAP, Produces: []string{"temp"}},
	{Name: "FILTER", Args: []ArgKind{KindSAP, KindPreds}, Result: KindSAP},
	{Name: "BUILDINDEX", Args: []ArgKind{KindSAP, KindCols}, Result: KindSAP, Produces: []string{"paths"}},
	{Name: "JOIN", Args: []ArgKind{KindStr, KindSAP, KindSAP, KindPreds, KindPreds}, Result: KindSAP},
	{Name: "IXAND", Args: []ArgKind{KindSAP, KindSAP}, Result: KindSAP},

	// Predicate classifiers and set algebra.
	{Name: "joinPreds", Args: []ArgKind{KindPreds, KindStream, KindStream}, Result: KindPreds},
	{Name: "sortablePreds", Args: []ArgKind{KindPreds, KindStream, KindStream}, Result: KindPreds},
	{Name: "hashablePreds", Args: []ArgKind{KindPreds, KindStream, KindStream}, Result: KindPreds},
	{Name: "indexablePreds", Args: []ArgKind{KindPreds, KindStream, KindStream}, Result: KindPreds},
	{Name: "innerPreds", Args: []ArgKind{KindPreds, KindStream}, Result: KindPreds},
	{Name: "union", Args: []ArgKind{KindPreds, KindPreds}, Result: KindPreds},
	{Name: "minus", Args: []ArgKind{KindPreds, KindPreds}, Result: KindPreds},
	{Name: "intersect", Args: []ArgKind{KindPreds, KindPreds}, Result: KindPreds},
	{Name: "matchedPreds", Args: []ArgKind{KindPreds, KindStream, KindStr}, Result: KindPreds},

	// Column derivations.
	{Name: "sortCols", Args: []ArgKind{KindPreds, KindStream}, Result: KindCols},
	{Name: "indexCols", Args: []ArgKind{KindPreds, KindPreds, KindStream}, Result: KindCols},
	{Name: "tidcol", Args: []ArgKind{KindStream}, Result: KindCols},
	{Name: "indexProbeCols", Args: []ArgKind{KindStream, KindStr}, Result: KindCols},

	// Conditions of applicability.
	{Name: "nonempty", Args: []ArgKind{KindAny}, Result: KindBool},
	{Name: "empty", Args: []ArgKind{KindAny}, Result: KindBool},
	{Name: "localQuery", Args: []ArgKind{}, Result: KindBool},
	{Name: "isComposite", Args: []ArgKind{KindStream}, Result: KindBool},
	{Name: "siteDiffers", Args: []ArgKind{KindStream}, Result: KindBool},
	{Name: "stmgr", Args: []ArgKind{KindStream | KindSAP, KindStr}, Result: KindBool},
	{Name: "pathPrefix", Args: []ArgKind{KindStream, KindStr, KindCols}, Result: KindBool},
	{Name: "projectionPays", Args: []ArgKind{KindStream, KindPreds}, Result: KindBool},

	// Catalog probes producing forall domains.
	{Name: "indexes", Args: []ArgKind{KindStream}, Result: KindList, Elem: KindStr},
	{Name: "allSites", Args: []ArgKind{}, Result: KindList, Elem: KindStr},
}

// BuiltinSignatures returns the signature table of everything NewEngine
// registers (builders, helpers, Glue). The copy is the caller's to extend.
func BuiltinSignatures() SigTable {
	out := make(SigTable, len(builtinSigs))
	for _, s := range builtinSigs {
		out[s.Name] = s
	}
	return out
}

// DeclareSignature records a static signature for an extension-registered
// builder or helper, upgrading the linter from existence-only checking to
// full arity and kind checking for that name. Extensions call it alongside
// RegisterBuilder/RegisterHelper.
func (en *Engine) DeclareSignature(s Signature) {
	if en.declared == nil {
		en.declared = SigTable{}
	}
	en.declared[s.Name] = s
}

// Signatures returns the engine's effective signature table: the built-in
// shapes, any extension-declared signatures, and arity-unknown entries for
// builders/helpers registered without a declaration — so static checks see
// exactly what the evaluator can resolve.
func (en *Engine) Signatures() SigTable {
	out := BuiltinSignatures()
	for name := range en.builders {
		if _, known := out[name]; !known {
			out[name] = Signature{Name: name, Result: KindSAP, ArityUnknown: true}
		}
	}
	for name := range en.helpers {
		if _, known := out[name]; !known {
			out[name] = Signature{Name: name, ArityUnknown: true}
		}
	}
	for name, s := range en.declared {
		out[name] = s
	}
	return out
}
