package plan

import (
	"bytes"
	"slices"
	"strconv"
	"strings"

	"stars/internal/expr"
)

// Cost is the estimated resource vector of Section 3.1: total cost is a
// linear combination of I/O, CPU, and communications costs [LOHM 85]. The
// weighted Total is computed by the cost environment when a plan is priced
// so that comparisons are a single float compare.
type Cost struct {
	// IO is page accesses (heap + index, read + write).
	IO float64
	// CPU is tuple-handling operations (comparisons, moves, hashes).
	CPU float64
	// Msg is messages sent between sites.
	Msg float64
	// Bytes is payload bytes shipped between sites.
	Bytes float64
	// Total is the weighted sum under the pricing environment's weights.
	Total float64
}

// Add returns the component-wise sum of two costs.
func (c Cost) Add(o Cost) Cost {
	return Cost{
		IO: c.IO + o.IO, CPU: c.CPU + o.CPU,
		Msg: c.Msg + o.Msg, Bytes: c.Bytes + o.Bytes,
		Total: c.Total + o.Total,
	}
}

// Scale returns the cost multiplied by k in every component.
func (c Cost) Scale(k float64) Cost {
	return Cost{IO: c.IO * k, CPU: c.CPU * k, Msg: c.Msg * k, Bytes: c.Bytes * k, Total: c.Total * k}
}

// String renders the cost for EXPLAIN output.
func (c Cost) String() string { return string(c.AppendTo(nil)) }

// AppendTo appends String's rendering to b.
func (c Cost) AppendTo(b []byte) []byte {
	b = strconv.AppendFloat(append(b, "total="...), c.Total, 'f', 1, 64)
	b = strconv.AppendFloat(append(b, " (io="...), c.IO, 'f', 1, 64)
	b = strconv.AppendFloat(append(b, " cpu="...), c.CPU, 'f', 1, 64)
	b = strconv.AppendFloat(append(b, " msg="...), c.Msg, 'f', 1, 64)
	return append(b, ')')
}

// PathInfo is one element of the PATHS property: an available access path on
// the (set of) tables a stream carries, as an ordered column list. Dynamic
// marks indexes created during the query (Section 4.5.3) as opposed to
// catalog indexes.
type PathInfo struct {
	// Name is the access-path name of a catalog index; a dynamic index has
	// none (the BUILDINDEX and index ACCESS nodes render it, PathName).
	Name string
	// Cols is the ordered key-column list.
	Cols expr.ColList
	// Clustered marks clustering indexes.
	Clustered bool
	// Dynamic marks indexes built at run time on temps.
	Dynamic bool
	// KeyWidth is a dynamic index's key width in bytes, computed once when
	// its BUILDINDEX is priced (cost).
	KeyWidth float64
}

// String renders the path for EXPLAIN output; a dynamic index, which has no
// name of its own, renders as "_ix*".
func (p PathInfo) String() string { return string(p.AppendTo(nil)) }

// AppendTo appends String's rendering to b.
func (p PathInfo) AppendTo(b []byte) []byte {
	if p.Dynamic {
		b = append(b, "_ix*"...)
	} else {
		b = append(b, p.Name...)
	}
	return append(p.Cols.AppendTo(append(b, '(')), ')')
}

// Rel is the relational part of the property vector — WHAT the stream
// computes: which quantifiers are joined in, which columns it carries, which
// predicates have been applied. Plans in one plan-table entry share these by
// construction, and most LOLEPOPs (SORT, SHIP, STORE) pass them through
// unchanged, so Rel is held by pointer and interned per optimization (see
// cost.Env): thousands of candidate plans reference a handful of Rel values.
// A Rel is immutable once built; derive a new one rather than mutating.
type Rel struct {
	// Tables is the set of quantifiers joined into this stream.
	Tables expr.TableSet
	// Cols is the set of columns the stream carries.
	Cols expr.ColSet
	// Preds is the set of predicates applied so far.
	Preds expr.PredSet
	// Width is the estimated byte width of a row of Cols, a function of the
	// WHAT alone, summed from the bound per-column widths when the Rel is
	// interned (cost.Env) so that pricing a stream's pages or bytes is a
	// multiply.
	Width float64
	// next is the Rel interned before this one in its intern bucket
	// (Arena.NewRel).
	next *Rel
}

// Next returns the Rel interned before r in its intern bucket, or nil.
func (r *Rel) Next() *Rel { return r.next }

// Props is the property vector of Figure 2: everything the optimizer knows
// about the table (stream) a plan produces. Properties divide into
// relational (WHAT: the interned Rel), physical (HOW: Order, Site, Temp,
// Paths), and estimated (HOW MUCH: Card, Cost). Extra carries
// DBC-added properties (Section 5): unknown keys default to passing through
// LOLEPOPs unchanged, exactly the paper's default action.
type Props struct {
	// Rel is the interned relational part (never nil on a priced plan).
	// It is shared between plans: treat it as immutable and replace the
	// pointer — never assign through it — to change relational properties.
	Rel *Rel
	// Order is the tuple ordering as an ordered column list; empty means
	// unknown.
	Order expr.ColList
	// Site is where the stream is delivered ("" = query site).
	Site string
	// Temp reports whether the stream is materialized in a temporary
	// table.
	Temp bool
	// Paths is the set of available access paths on the stream's tables.
	Paths []PathInfo
	// Card is the estimated output cardinality.
	Card float64
	// Cost is the estimated cost to produce the stream once.
	Cost Cost
	// Rescan is the estimated cost to produce the stream again (the
	// inner of a nested-loop join is re-evaluated per outer tuple; temps
	// and index probes rescan far cheaper than they first cost).
	Rescan Cost
	// Extra holds DBC-added properties by name; LOLEPOPs that don't know
	// a property leave it unchanged.
	Extra map[string]string
}

// Tables returns the relational TABLES property (empty when Rel is unset).
func (p *Props) Tables() expr.TableSet {
	if p.Rel == nil {
		return expr.TableSet{}
	}
	return p.Rel.Tables
}

// Cols returns the relational COLS property (empty when Rel is unset).
func (p *Props) Cols() expr.ColSet {
	if p.Rel == nil {
		return expr.ColSet{}
	}
	return p.Rel.Cols
}

// Preds returns the relational PREDS property (empty when Rel is unset).
func (p *Props) Preds() expr.PredSet {
	if p.Rel == nil {
		return expr.PredSet{}
	}
	return p.Rel.Preds
}

// Clone returns a copy that may be modified field-by-field: the Extra map is
// copied, while Rel (interned), Order, and Paths are shared — callers replace
// those wholesale (copy-on-write) rather than mutating through them, which is
// what every property function does.
func (p *Props) Clone() *Props {
	q := *p
	if p.Extra != nil {
		q.Extra = make(map[string]string, len(p.Extra))
		for k, v := range p.Extra {
			q.Extra[k] = v
		}
	}
	return &q
}

// OrderSatisfies reports whether an available order satisfies a required one
// — the paper's "order ⊑ a": the required columns must be a prefix of the
// available ones.
func OrderSatisfies(have, want expr.ColList) bool { return have.HasPrefix(want) }

// PathOn returns the first available path whose key columns have want as a
// prefix, or nil — the OrderedStream2 condition "order ⊑ a".
func (p *Props) PathOn(want expr.ColList) *PathInfo {
	for i := range p.Paths {
		if OrderSatisfies(p.Paths[i].Cols, want) {
			return &p.Paths[i]
		}
	}
	return nil
}

// Reqd is a set of required properties accumulated on a stream argument
// (the square-bracket annotations of Section 3.2). Requirements accumulate
// across STAR references until Glue is referenced, which makes plans satisfy
// them.
type Reqd struct {
	// Order, when non-empty, requires tuples ordered by this column list
	// (prefix semantics).
	Order expr.ColList
	// Site, when non-nil, requires delivery at the named site.
	Site *string
	// Temp requires the stream to be materialized as a temporary.
	Temp bool
	// PathCols, when non-empty, requires the PATHS property to contain an
	// index whose key has these columns as a prefix (paths ≥ IX in
	// Section 4.5.3).
	PathCols expr.ColList
}

// Empty reports whether no requirement is present.
func (r Reqd) Empty() bool {
	return r.Order.Len() == 0 && r.Site == nil && !r.Temp && r.PathCols.Len() == 0
}

// Merge accumulates other's requirements over r, with other (the later,
// outer reference) winning conflicts; the paper accumulates requirements
// from successive STAR references until Glue is called.
func (r Reqd) Merge(other Reqd) Reqd {
	out := r
	if other.Order.Len() > 0 {
		out.Order = other.Order
	}
	if other.Site != nil {
		out.Site = other.Site
	}
	if other.Temp {
		out.Temp = true
	}
	if other.PathCols.Len() > 0 {
		out.PathCols = other.PathCols
	}
	return out
}

// SatisfiedBy reports whether a plan with properties p meets every
// requirement.
func (r Reqd) SatisfiedBy(p *Props) bool {
	if !OrderSatisfies(p.Order, r.Order) {
		return false
	}
	if r.Site != nil && p.Site != *r.Site {
		return false
	}
	if r.Temp && !p.Temp {
		return false
	}
	if r.PathCols.Len() > 0 && p.PathOn(r.PathCols) == nil {
		return false
	}
	return true
}

// Hash64 folds the requirements into one word without allocating — what
// Glue's memo keys a requirement on (FNV-1a over the fields, each list
// delimited, so [order=A] and [paths⊇ix(A)] differ). Columns hash as their
// ordinals: the memo lives within one optimization's vocabulary.
func (r Reqd) Hash64() uint64 {
	w := keyWriter{h: offset64}
	cols := func(tag byte, cs expr.ColList) {
		w.char(tag)
		for k := 0; k < cs.Len(); k++ {
			w.word(uint64(cs.At(k)))
		}
	}
	cols('o', r.Order)
	cols('p', r.PathCols)
	if r.Temp {
		w.char('t')
	}
	if r.Site != nil {
		w.char('s')
		w.str(*r.Site)
	}
	return w.h
}

// String renders the requirements in the paper's [bracket] notation.
func (r Reqd) String() string {
	var parts []string
	if r.Order.Len() > 0 {
		parts = append(parts, "order="+r.Order.String())
	}
	if r.Site != nil {
		parts = append(parts, "site="+*r.Site)
	}
	if r.Temp {
		parts = append(parts, "temp")
	}
	if r.PathCols.Len() > 0 {
		parts = append(parts, "paths⊇ix("+r.PathCols.String()+")")
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Dominates reports whether plan properties a are at least as good as b for
// every property a parent's price reads while costing no more — the pruning
// rule: b can be discarded if some a dominates it. Within one plan-table entry
// tables and cardinality agree, but COLS need not (a GET keeps its TID).
func Dominates(a, b *Props) bool {
	if a.Cost.Total > b.Cost.Total {
		return false
	}
	// a must offer every physical advantage b offers.
	if !OrderSatisfies(a.Order, b.Order) {
		return false
	}
	if a.Site != b.Site {
		return false
	}
	// Wider rows make every SORT, STORE, SHIP and hash join above dearer.
	if a.Rel != nil && b.Rel != nil && a.Rel.Width > b.Rel.Width {
		return false
	}
	if b.Temp && !a.Temp {
		return false
	}
	for _, bp := range b.Paths {
		if !bp.Dynamic {
			continue
		}
		found := false
		for _, ap := range a.Paths {
			if ap.Dynamic && OrderSatisfies(ap.Cols, bp.Cols) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	// Cheaper rescan is an advantage for future NL inners.
	if a.Rescan.Total > b.Rescan.Total*1.0001+1e-9 {
		return false
	}
	return true
}

// Summary renders the property vector compactly, as in Figure 3's "ears".
func (p *Props) Summary() string { return string(p.AppendSummary(nil)) }

// AppendSummary appends Summary's rendering to b.
func (p *Props) AppendSummary(b []byte) []byte {
	b = strconv.AppendFloat(append(b, "card="...), p.Card, 'f', 0, 64)
	if p.Order.Len() > 0 {
		b = p.Order.AppendTo(append(b, " order="...))
	}
	if p.Site != "" {
		b = append(append(b, " site="...), p.Site...)
	}
	if p.Temp {
		b = append(b, " temp"...)
	}
	return strconv.AppendFloat(append(b, " cost="...), p.Cost.Total, 'f', 1, 64)
}

// Describe renders the full property vector, one property per line, in the
// layout of Figure 2 — used by experiment E2.
func (p *Props) Describe() string { return string(p.AppendDescribe(nil, 0)) }

// AppendDescribe appends Describe's rendering to b with every line indented
// by two more spaces per level of depth.
func (p *Props) AppendDescribe(b []byte, depth int) []byte {
	line := func(b []byte, name string) []byte { return append(append(appendIndent(b, depth), "  "...), name...) }
	b = append(p.Tables().AppendTo(line(b, "TABLES "), ", "), '\n')
	b = append(p.Cols().AppendTo(line(b, "COLS   ")), '\n')
	b = append(p.Preds().AppendTo(line(b, "PREDS  {"), ", "), '}', '\n')
	if b = line(b, "ORDER  "); p.Order.Len() > 0 {
		b = append(p.Order.AppendTo(b), '\n')
	} else {
		b = append(b, "(unknown)\n"...)
	}
	if b = line(b, "SITE   "); p.Site == "" {
		b = append(b, "(query site)"...)
	}
	b = append(append(b, p.Site...), '\n')
	b = append(strconv.AppendBool(line(b, "TEMP   "), p.Temp), '\n')
	b = append(appendPaths(line(b, "PATHS  "), p.Paths), '\n')
	b = append(strconv.AppendFloat(line(b, "CARD   "), p.Card, 'f', 1, 64), '\n')
	b = append(p.Cost.AppendTo(line(b, "COST   ")), '\n')
	keys := make([]string, 0, len(p.Extra))
	for k := range p.Extra {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = append(append(append(line(b, strings.ToUpper(k)), ' '), p.Extra[k]...), '\n')
	}
	return b
}

// appendPaths appends the paths' renderings in string order, comma-separated,
// or "(none)": it renders each once past the end of b, then copies the runs
// back in order.
func appendPaths(b []byte, paths []PathInfo) []byte {
	if len(paths) == 0 {
		return append(b, "(none)"...)
	}
	var runsBuf, orderBuf [17]int
	runs, order := append(runsBuf[:0], len(b)), orderBuf[:0] // run i is b[runs[i]:runs[i+1]]
	for i := range paths {
		b, order = paths[i].AppendTo(b), append(order, i)
		runs = append(runs, len(b))
	}
	run := func(i int) []byte { return b[runs[i]:runs[i+1]] }
	slices.SortFunc(order, func(x, y int) int { return bytes.Compare(run(x), run(y)) })
	rendered := len(b)
	for k, i := range order {
		if k > 0 {
			b = append(b, ", "...)
		}
		b = append(b, run(i)...)
	}
	return append(b[:runs[0]], b[rendered:]...)
}
