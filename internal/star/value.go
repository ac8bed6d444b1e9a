// Package star implements the paper's core contribution: STrategy
// Alternative Rules (STARs), grammar-like parametrized production rules that
// construct query execution plans from LOLEPOPs.
//
// A STAR defines a named, parametrized non-terminal with one or more
// alternative definitions, each optionally guarded by a condition of
// applicability. Referencing a STAR substitutes arguments for parameters and
// evaluates each applicable alternative — a dictionary lookup, like a macro
// expander, which is the efficiency argument of the paper. Every STAR is an
// operation on the abstract data type "Set of Alternative Plans" (SAP):
// references to multi-valued STARs are mapped (in the LISP sense) over each
// element.
//
// Rules are data: they load from a text DSL (see the parser in this package
// and the built-in rule file in defaultrules.go), so a Database Customizer
// changes the optimizer's repertoire without touching optimizer code —
// Section 5's extensibility story. Conditions and helper functions are Go
// functions in a registry, the analogue of the paper's compiled C condition
// functions.
//
// The dictionary lookup is held to its word: RuleSet.Add resolves a rule's
// names to frame slots once (resolve.go) and compiles each where-binding,
// condition and body into a range of one flat op program (compile.go), and a
// reference runs those ranges as loops on storage the Engine owns and reuses
// — a Value stack whose frame slots the ops write, a scratch stack for the
// SAPs under construction (merge, SAP), the plan arena for nodes and their
// inputs — so it allocates the plans it returns and nothing for having been
// evaluated. DESIGN.md § "A reference is a dictionary lookup" has the
// lifetime rules.
package star

import (
	"fmt"
	"strings"

	"stars/internal/expr"
	"stars/internal/plan"
)

// VKind tags the dynamic type of a rule-language Value.
type VKind uint8

// The value kinds the rule language manipulates.
const (
	// VNull is the absent value.
	VNull VKind = iota
	// VStream is an abstract reference to a tuple stream: a set of
	// quantifiers plus accumulated required properties (Section 3.2's
	// square brackets accumulate until Glue is referenced).
	VStream
	// VSAP is a Set of Alternative Plans — concrete priced plans.
	VSAP
	// VPreds is a predicate set.
	VPreds
	// VCols is an ordered column list.
	VCols
	// VStr is a string (site names, flavors, index names).
	VStr
	// VNum is a number.
	VNum
	// VBool is a boolean (conditions evaluate to it).
	VBool
	// VList is a list of values (the domain of a ∀ clause).
	VList
	// VAllCols is the `*` token: "all columns" (Section 4.5.2's
	// TableAccess(..., *, JP)).
	VAllCols
)

// String names the kind.
func (k VKind) String() string {
	switch k {
	case VNull:
		return "null"
	case VStream:
		return "stream"
	case VSAP:
		return "sap"
	case VPreds:
		return "preds"
	case VCols:
		return "cols"
	case VStr:
		return "string"
	case VNum:
		return "number"
	case VBool:
		return "bool"
	case VList:
		return "list"
	case VAllCols:
		return "*"
	default:
		return "?"
	}
}

// StreamVal is the payload of a VStream value.
type StreamVal struct {
	// Tables is the quantifier set the stream ranges over.
	Tables expr.TableSet
	// Req is the accumulated required-property set.
	Req plan.Reqd
}

// Value is one dynamically-typed rule-language value. It holds its stream
// payload inline, so annotating or passing a stream allocates nothing.
type Value struct {
	Kind   VKind
	Stream StreamVal
	SAP    []*plan.Node
	Preds  expr.PredSet
	Cols   expr.ColList
	Str    string
	Num    float64
	Bool   bool
	List   []Value
}

// Null is the absent value.
var Null = Value{}

// StreamValue wraps a quantifier set as a stream value.
func StreamValue(tables expr.TableSet) Value {
	return Value{Kind: VStream, Stream: StreamVal{Tables: tables}}
}

// SAPValue wraps plans as a SAP value.
func SAPValue(plans []*plan.Node) Value { return Value{Kind: VSAP, SAP: plans} }

// PredsValue wraps a predicate set.
func PredsValue(p expr.PredSet) Value { return Value{Kind: VPreds, Preds: p} }

// ColsValue wraps a column list.
func ColsValue(c expr.ColList) Value { return Value{Kind: VCols, Cols: c} }

// StrValue wraps a string.
func StrValue(s string) Value { return Value{Kind: VStr, Str: s} }

// NumValue wraps a number.
func NumValue(n float64) Value { return Value{Kind: VNum, Num: n} }

// BoolValue wraps a boolean.
func BoolValue(b bool) Value { return Value{Kind: VBool, Bool: b} }

// ListValue wraps a list.
func ListValue(vs []Value) Value { return Value{Kind: VList, List: vs} }

// AllColsValue is the `*` value.
var AllColsValue = Value{Kind: VAllCols}

// Truthy reports whether the value counts as a satisfied condition.
func (v Value) Truthy() bool {
	switch v.Kind {
	case VBool:
		return v.Bool
	case VNull:
		return false
	case VNum:
		return v.Num != 0
	case VPreds:
		return !v.Preds.Empty()
	case VCols:
		return v.Cols.Len() > 0
	case VList:
		return len(v.List) > 0
	case VSAP:
		return len(v.SAP) > 0
	default:
		return true
	}
}

// String renders the value for traces and error messages.
func (v Value) String() string {
	switch v.Kind {
	case VNull:
		return "null"
	case VStream:
		s := "{" + strings.Join(v.Stream.Tables.Slice(), ",") + "}"
		if !v.Stream.Req.Empty() {
			s += v.Stream.Req.String()
		}
		return s
	case VSAP:
		return fmt.Sprintf("sap(%d plans)", len(v.SAP))
	case VPreds:
		return v.Preds.String()
	case VCols:
		return "[" + v.Cols.String() + "]"
	case VStr:
		return "'" + v.Str + "'"
	case VNum:
		return fmt.Sprintf("%g", v.Num)
	case VBool:
		return fmt.Sprintf("%v", v.Bool)
	case VList:
		parts := make([]string, len(v.List))
		for i, x := range v.List {
			parts[i] = x.String()
		}
		return "(" + strings.Join(parts, ", ") + ")"
	case VAllCols:
		return "*"
	default:
		return "?"
	}
}
