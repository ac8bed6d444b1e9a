package star

import (
	"context"
	"fmt"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"stars/internal/cost"
	"stars/internal/expr"
	"stars/internal/obs"
	"stars/internal/plan"
)

// GlueRequest is what a Glue reference asks for: plans for a table set that
// additionally apply the pushed predicates and satisfy the accumulated
// required properties (Section 3.2).
type GlueRequest struct {
	// Tables is the quantifier set the stream must cover.
	Tables expr.TableSet
	// Push is the set of predicates the plans must additionally apply
	// (e.g. JP ∪ IP pushed into a nested-loop inner). For single tables,
	// Glue re-references the access STARs so plans can exploit these
	// predicates; for composites it retrofits FILTER veneers.
	Push expr.PredSet
	// Req is the accumulated required-property set.
	Req plan.Reqd
	// All asks for every satisfying plan rather than only the cheapest.
	All bool
}

// GlueFn is the Glue mechanism's entry point (package glue implements it;
// the indirection keeps this package free of a dependency cycle, and mirrors
// the paper's observation that Glue itself can be specified with STARs). req
// is the caller's and is not kept past the return; the plans returned are
// valid for as long as Engine.SAP says.
type GlueFn func(req *GlueRequest) ([]*plan.Node, error)

// Stats counts the work the engine performs; experiment E5 compares these
// against the transformational baseline's counters.
type Stats struct {
	// RuleRefs counts STAR references evaluated.
	RuleRefs int64
	// AltsConsidered counts alternative definitions whose guard was
	// evaluated.
	AltsConsidered int64
	// AltsFired counts alternatives whose guard held and whose body was
	// evaluated.
	AltsFired int64
	// AltsRejected counts alternatives whose guard failed (or OTHERWISE
	// arms skipped because an earlier alternative fired).
	AltsRejected int64
	// PlansBuilt counts plan nodes constructed by LOLEPOP builders.
	PlansBuilt int64
	// PlansRejected counts node combinations discarded (e.g. join inputs
	// at different sites).
	PlansRejected int64
	// GlueCalls counts Glue references.
	GlueCalls int64
	// HelperCalls counts helper/condition invocations.
	HelperCalls int64
	// Alts tallies each alternative's fate, indexed by RuleSet.AltSlot.
	// Kept only while the engine's Obs is enabled (nil otherwise): it is
	// what the end-of-run coverage summary reads.
	Alts []AltTally
}

// AltTally counts one alternative's firings (guard held), rejections (guard
// failed, or an OTHERWISE arm skipped) and the plans its body produced.
type AltTally struct {
	Fired, Rejected, Built int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	if len(o.Alts) > len(s.Alts) {
		s.Alts = append(s.Alts, make([]AltTally, len(o.Alts)-len(s.Alts))...)
	}
	for i, t := range o.Alts {
		s.Alts[i].Fired += t.Fired
		s.Alts[i].Rejected += t.Rejected
		s.Alts[i].Built += t.Built
	}
	s.RuleRefs += o.RuleRefs
	s.AltsConsidered += o.AltsConsidered
	s.AltsFired += o.AltsFired
	s.AltsRejected += o.AltsRejected
	s.PlansBuilt += o.PlansBuilt
	s.PlansRejected += o.PlansRejected
	s.GlueCalls += o.GlueCalls
	s.HelperCalls += o.HelperCalls
}

// TraceEntry records one STAR reference for explain-origin output. Entries
// are derived from the observability event stream (TraceFromEvents); the
// engine itself only emits obs events.
type TraceEntry struct {
	// Depth is the reference nesting depth.
	Depth int
	// Rule is the referenced STAR's name.
	Rule string
	// Args renders the reference's arguments.
	Args string
	// Alt is the 1-based index of an alternative; 0 for the reference
	// header line.
	Alt int
	// Plans is the number of plans the alternative produced.
	Plans int
	// Rejected marks an alternative whose condition failed (or an
	// OTHERWISE arm skipped because an earlier alternative fired).
	Rejected bool
	// Cond is the failing condition of applicability (DSL syntax) for a
	// rejected alternative.
	Cond string
}

// Engine evaluates STAR references. One engine serves one optimization; its
// statistics and temp-name counters reset per query.
type Engine struct {
	// Rules is the repertoire.
	Rules *RuleSet
	// Cost prices constructed nodes.
	Cost *cost.Env
	// Glue is the Glue mechanism.
	Glue GlueFn
	// QueryTables lists the query's quantifiers (for localQuery and
	// allSites).
	QueryTables []string
	// PlanSites reports the sites at which plans for a table set already
	// exist (falling back to catalog placement) — the C1 condition's
	// "T2[site] ≠ T2![site]" test needs it.
	PlanSites func(t expr.TableSet) []string
	// Stats accumulates work counters.
	Stats Stats
	// Obs receives rule-reference spans (with per-rule latency) and
	// alternative fired/rejected events. The nil sink costs a nil check;
	// see package obs.
	Obs *obs.Sink
	// LabelCtx carries the goroutine's pprof label context (phase=, rank=)
	// when the attached profiler pins labels; EvalRule composes a star=
	// label onto it so external CPU captures attribute samples to the STAR
	// being evaluated. Nil when labels are off.
	LabelCtx context.Context

	// callees is the engine's callee table: the shared built-in one until
	// Register makes the engine its own copy (ownCallees).
	callees    table
	ownCallees bool
	// bound holds each rule of boundTo with its calls bound, by position,
	// as of its boundAt-th Add; a nil boundTo binds at the next reference.
	bound   []boundRule
	boundTo *RuleSet
	boundAt int
	depth   int

	// stack holds the frame of every reference and call in progress, innermost
	// last (push, pop).
	stack []Value
	// saps is the SAP scratch: every SAP of an evaluation is built on it
	// (merge), and only the outermost reference's result reaches the heap.
	saps []*plan.Node
	// seen is merge's dedupe set, cleared per use.
	seen map[uint64]bool
	// glueReq is evalGlue's request, nil while a Glue reference is using it.
	glueReq *GlueRequest
	// queryBase is queryBaseTables' answer.
	queryBase []string
}

// maxDepth bounds rule recursion; the paper assumes the DBC writes STARs
// without infinite cycles, and this turns a violation into an error instead
// of a hang.
const maxDepth = 200

// NewEngine builds an engine over the built-in callee table.
func NewEngine(rules *RuleSet, costEnv *cost.Env) *Engine {
	return &Engine{Rules: rules, Cost: costEnv, callees: builtins, seen: map[uint64]bool{}}
}

// Fork returns an engine for one worker of a parallel enumeration. The
// repertoire, the callee table and the bindings are shared with en, not
// copied: Options.Prepare registers before the first reference is evaluated,
// Validate binds, and nothing writes them afterwards (builders and helpers
// are stateless functions receiving the engine per call), so concurrent
// workers only ever read them. The pricing environment, the sink
// and the counters (zero here; the caller adds them back with Stats.Add) are
// the worker's own for its whole life. The caller wires Glue and PlanSites to
// the worker's Gluer.
func (en *Engine) Fork(costEnv *cost.Env, sink *obs.Sink) *Engine {
	return &Engine{
		Rules:       en.Rules,
		Cost:        costEnv,
		QueryTables: en.QueryTables,
		queryBase:   en.queryBase,
		Obs:         sink,
		callees:     en.callees,
		bound:       en.bound,
		boundTo:     en.boundTo,
		boundAt:     en.boundAt,
		seen:        map[uint64]bool{},
	}
}

// Validate binds every call of the repertoire, once for the engine, to its
// STAR, to Glue, or to a builder or helper of the callee table, and reports
// what the reference pass (CheckRefs) finds: undefined references, STAR and
// Glue call shapes, and call arity against declared signatures. Bindings
// live in the engine, not in the rules: a rule set is shared by concurrent
// optimizations, Merge shares rules between sets that resolve a name
// differently, and Register is per engine.
func (en *Engine) Validate() error {
	rs := en.Rules
	en.bound, en.boundTo, en.boundAt = make([]boundRule, len(rs.rules)), rs, rs.adds
	return refDiagsToError(refPass(rs, en.callees, en.bound))
}

// EvalRule evaluates a reference of the named STAR with the given arguments
// and returns its SAP. This is the paper's substitution step: replace the
// reference with the alternative definitions whose conditions hold, binding
// parameters to arguments. args is copied into a frame the engine pushes. The
// result's lifetime is Engine.SAP's: the outermost reference copies it off the
// scratch for the caller to keep, one made while another is in progress
// (Glue's access STARs, a helper's) returns a piece of the scratch.
//
// An engine that never validated binds its calls here first, as Validate does,
// leaving what does not resolve to fail when evaluated.
func (en *Engine) EvalRule(name string, args []Value) ([]*plan.Node, error) {
	if en.boundTo != en.Rules || en.boundAt != en.Rules.adds {
		_ = en.Validate()
	}
	i, ok := en.Rules.index[name]
	if !ok {
		return nil, fmt.Errorf("star: reference of undefined STAR %q", name)
	}
	rule := &en.bound[i]
	outermost, mark := en.depth == 0, len(en.saps)
	fp := en.push(max(rule.Frame, len(args)))
	copy(en.stack[fp:], args)
	out, err := en.reference(rule, fp, len(args))
	en.pop(fp)
	if outermost {
		out = slices.Clone(out)
		en.release(mark)
	}
	return out, err
}

// push reserves a frame of n zero slots on top of the value stack and returns
// its offset. Growing may move the stack: frames are addressed by offset, and a
// view handed to a builder or helper goes on reading the old, intact copy.
func (en *Engine) push(n int) int {
	fp := len(en.stack)
	en.stack = slices.Grow(en.stack, n)[:fp+n]
	return fp
}

// pop releases every frame from offset fp up, zeroing the slots so the stack
// pins nothing a finished reference computed (and push finds them zero).
func (en *Engine) pop(fp int) {
	clear(en.stack[fp:])
	en.stack = en.stack[:fp]
}

// frame addresses a reference in progress: its rule and the stack offset of
// its frame.
type frame struct {
	rule *boundRule
	fp   int
}

// reference evaluates a reference of rule whose frame is at fp with its nargs
// arguments already in the first slots.
func (en *Engine) reference(rule *boundRule, fp, nargs int) (out []*plan.Node, err error) {
	name := rule.Name
	if nargs != len(rule.Params) {
		return nil, fmt.Errorf("star: %s expects %d arguments, got %d", name, len(rule.Params), nargs)
	}
	if en.depth >= maxDepth {
		return nil, fmt.Errorf("star: rule recursion exceeds %d at %s (cycle in STARs?)", maxDepth, name)
	}
	en.depth++
	en.Stats.RuleRefs++
	var sp obs.Span
	var tally []AltTally // this rule's window of Stats.Alts; nil when unobserved
	if en.Obs.Enabled() {
		// renderArgs allocates, so it runs only for a sink that records it.
		rendered := ""
		if en.Obs.Tracing() {
			rendered = renderArgs(en.stack[fp : fp+nargs])
		}
		sp = en.Obs.StartSpan(obs.EvRule, name, rendered, en.depth)
		tally = en.altTallies(rule)
	}
	defer func() {
		sp.End(int64(len(out)))
		en.depth--
	}()
	profiled := en.Obs.ProfEnabled()
	if profiled && en.Obs.ProfLabels() {
		// Compose star=<rule> onto the phase/rank labels and restore the
		// enclosing reference's label set on the way out.
		prev := en.LabelCtx
		base := prev
		if base == nil {
			base = context.Background()
		}
		ctx := pprof.WithLabels(base, pprof.Labels("star", name))
		pprof.SetGoroutineLabels(ctx)
		en.LabelCtx = ctx
		defer func() {
			en.LabelCtx = prev
			pprof.SetGoroutineLabels(base)
		}()
	}

	f := frame{rule, fp}
	for _, let := range rule.Where {
		v, err := en.evalExpr(let.Expr, f)
		if err != nil {
			return nil, fmt.Errorf("star: %s where %s: %w", name, let.Name, err)
		}
		en.stack[fp+let.Slot] = v
	}

	base, fired := len(en.saps), false // the SAP accumulates at en.saps[base:]
	for i, alt := range rule.Alts {
		en.Stats.AltsConsidered++
		applicable := true
		switch {
		case alt.Otherwise:
			applicable = !fired
		case alt.Cond != nil:
			var g0 time.Time
			if profiled {
				g0 = time.Now()
			}
			cv, err := en.evalExpr(alt.Cond, f)
			if profiled {
				en.Obs.ProfActivity(obs.ActGuard, time.Since(g0), 1)
			}
			if err != nil {
				return nil, fmt.Errorf("star: %s alternative %d condition: %w", name, i+1, err)
			}
			applicable = cv.Truthy()
		}
		if !applicable {
			en.Stats.AltsRejected++
			if tally != nil {
				tally[i].Rejected++
			}
			if en.Obs.Tracing() {
				// Name the failing condition of applicability so WHYNOT
				// can cite it; rendering allocates, so only when traced.
				cond := "OTHERWISE: an earlier alternative fired"
				if !alt.Otherwise && alt.Cond != nil {
					cond = alt.Cond.String()
				}
				en.Obs.Emit(obs.Event{Name: obs.EvAltRejected, A1: name, A2: cond,
					Depth: int32(en.depth + 1), N1: int64(i + 1)})
			}
			continue
		}
		fired = true
		en.Stats.AltsFired++
		v, err := en.evalExpr(alt.Body, f)
		if err != nil {
			return nil, fmt.Errorf("star: %s alternative %d: %w", name, i+1, err)
		}
		if v.Kind != VSAP {
			return nil, fmt.Errorf("star: %s alternative %d produced %s, want plans", name, i+1, v.Kind)
		}
		for _, p := range v.SAP {
			if p.Origin == "" {
				p.Origin = alt.origin
			}
		}
		out = en.merge(base, len(out), v.SAP)
		if tally != nil {
			tally[i].Fired++
			tally[i].Built += int64(len(v.SAP))
		}
		if en.Obs.Tracing() {
			en.Obs.Emit(obs.Event{Name: obs.EvAltFired, A1: name, Depth: int32(en.depth + 1), N1: int64(i + 1), N2: int64(len(v.SAP))})
		}
		if rule.Exclusive {
			break
		}
	}
	return out, nil
}

// SAP copies plans onto the SAP scratch and returns the copy — how a builder
// or Glue returns plans without a heap slice — valid, like every SAP the
// engine hands out, until the outermost reference in progress returns. With
// none in progress (Glue called from Go) nothing would release the copy, so
// it is a heap slice and the caller's to keep.
func (en *Engine) SAP(plans ...*plan.Node) []*plan.Node {
	if en.depth == 0 {
		return slices.Clone(plans)
	}
	mark := len(en.saps)
	en.saps = append(en.saps, plans...)
	return en.since(mark)
}

// since returns the scratch from mark up, capped so appending to it cannot
// reach what the engine puts there next.
func (en *Engine) since(mark int) []*plan.Node {
	return en.saps[mark:len(en.saps):len(en.saps)]
}

// release frees the scratch from mark up, clearing it: a SAP kept past its
// release reads nil plans, with or without arena poisoning.
func (en *Engine) release(mark int) {
	clear(en.saps[mark:])
	en.saps = en.saps[:mark]
}

// merge appends to the SAP accumulating at en.saps[base:base+k] the plans of
// sap it does not hold yet, in order, releases what the scratch holds above the
// result, and returns it. sap usually sits on the scratch itself, above base+k:
// plans move down in order, so a slot is read before one at or below it is written.
func (en *Engine) merge(base, k int, sap []*plan.Node) []*plan.Node {
	top := len(en.saps)
	out := en.saps[:base+k]
	clear(en.seen)
	for _, p := range out[base:] {
		en.seen[p.ID()] = true
	}
	for _, p := range sap {
		if !en.seen[p.ID()] {
			en.seen[p.ID()] = true
			out = append(out, p)
		}
	}
	en.saps = out[:max(top, len(out))]
	en.release(len(out))
	return en.since(base)
}

// altTallies returns rule's window of Stats.Alts, sizing the slice to the
// repertoire on first use.
func (en *Engine) altTallies(rule *boundRule) []AltTally {
	base := rule.alt
	if end := base + len(rule.Alts); end > len(en.Stats.Alts) {
		grown := make([]AltTally, max(end, en.boundTo.nAlts))
		copy(grown, en.Stats.Alts)
		en.Stats.Alts = grown
	}
	return en.Stats.Alts[base : base+len(rule.Alts)]
}

func renderArgs(args []Value) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// evalExpr evaluates one rule-language expression against frame f.
func (en *Engine) evalExpr(e RExpr, f frame) (Value, error) {
	switch n := e.(type) {
	case *Ident:
		if n.Slot < 0 {
			return Null, fmt.Errorf("unbound name %q", n.Name)
		}
		return en.stack[f.fp+n.Slot], nil
	case *StrLit:
		return StrValue(n.Val), nil
	case *NumLit:
		return NumValue(n.Val), nil
	case *EmptySet:
		return PredsValue(expr.PredSet{}), nil
	case *AllCols:
		return AllColsValue, nil
	case *Annot:
		return en.evalAnnot(n, f)
	case *Forall:
		return en.evalForall(n, f)
	case *Logic:
		for _, k := range n.Kids {
			v, err := en.evalExpr(k, f)
			if err != nil {
				return Null, err
			}
			if n.OpAnd && !v.Truthy() {
				return BoolValue(false), nil
			}
			if !n.OpAnd && v.Truthy() {
				return BoolValue(true), nil
			}
		}
		return BoolValue(n.OpAnd), nil
	case *NotExpr:
		v, err := en.evalExpr(n.Kid, f)
		if err != nil {
			return Null, err
		}
		return BoolValue(!v.Truthy()), nil
	case *Call:
		return en.evalCall(n, f)
	default:
		return Null, fmt.Errorf("unknown expression node %T", e)
	}
}

func (en *Engine) evalAnnot(n *Annot, f frame) (Value, error) {
	kid, err := en.evalExpr(n.Kid, f)
	if err != nil {
		return Null, err
	}
	if kid.Kind != VStream {
		return Null, fmt.Errorf("required-property brackets apply to streams, not %s", kid.Kind)
	}
	var req plan.Reqd
	for _, item := range n.Reqs {
		var v Value
		if item.Val != nil {
			v, err = en.evalExpr(item.Val, f)
			if err != nil {
				return Null, err
			}
		}
		switch item.Key {
		case "order":
			if v.Kind != VCols {
				return Null, fmt.Errorf("[order=...] wants columns, got %s", v.Kind)
			}
			req.Order = v.Cols
		case "site":
			if v.Kind != VStr {
				return Null, fmt.Errorf("[site=...] wants a site name, got %s", v.Kind)
			}
			s := v.Str
			req.Site = &s
		case "temp":
			if item.Val != nil {
				return Null, fmt.Errorf("[temp] takes no value")
			}
			req.Temp = true
		case "paths":
			if v.Kind != VCols {
				return Null, fmt.Errorf("[paths=...] wants index key columns, got %s", v.Kind)
			}
			req.PathCols = v.Cols
		default:
			return Null, fmt.Errorf("unknown required property %q", item.Key)
		}
	}
	return kid.WithReq(req), nil
}

// evalForall binds the loop variable's own slot to each element in turn.
func (en *Engine) evalForall(n *Forall, f frame) (Value, error) {
	set, err := en.evalExpr(n.Set, f)
	if err != nil {
		return Null, err
	}
	if set.Kind != VList {
		return Null, fmt.Errorf("forall wants a list, got %s", set.Kind)
	}
	var out []*plan.Node
	base := len(en.saps)
	for _, elem := range set.List {
		en.stack[f.fp+n.Slot] = elem
		if n.Cond != nil {
			en.Stats.AltsConsidered++
			cv, err := en.evalExpr(n.Cond, f)
			if err != nil {
				return Null, err
			}
			if !cv.Truthy() {
				continue
			}
			en.Stats.AltsFired++
		}
		v, err := en.evalExpr(n.Body, f)
		if err != nil {
			return Null, err
		}
		if v.Kind != VSAP {
			return Null, fmt.Errorf("forall body produced %s, want plans", v.Kind)
		}
		out = en.merge(base, len(out), v.SAP)
	}
	return SAPValue(out), nil
}

// evalCall evaluates a call's arguments straight into a frame on top of the
// stack and dispatches on the call's binding. For a STAR that frame is the
// callee's (its arguments are its first slots); Glue, builders and helpers get
// a view of it.
func (en *Engine) evalCall(n *Call, f frame) (Value, error) {
	b, size := f.rule.calls[n.Idx], len(n.Args)
	if b.star != nil {
		size = max(size, b.star.Frame)
	}
	callee := en.push(size)
	defer en.pop(callee)
	for i, a := range n.Args {
		v, err := en.evalExpr(a, f)
		if err != nil {
			return Null, err
		}
		en.stack[callee+i] = v
	}
	args := en.stack[callee : callee+len(n.Args) : callee+len(n.Args)]
	switch {
	case b.star != nil:
		// A rule reference: the dictionary-lookup substitution step.
		sap, err := en.reference(b.star, callee, len(n.Args))
		return SAPValue(sap), err
	case b.callee == nil:
		return Null, fmt.Errorf("reference of undefined name %q", n.Name)
	case b.callee.Result != KindSAP:
		en.Stats.HelperCalls++
	}
	return b.callee.Func(en, args)
}

// evalGlue handles Glue(stream, pushPreds): it hands the stream's table set,
// accumulated requirements, and pushed predicates to the Glue mechanism.
func (en *Engine) evalGlue(args []Value) (Value, error) {
	if len(args) != 2 {
		return Null, fmt.Errorf("Glue wants (stream, preds), got %d args", len(args))
	}
	if args[0].Kind != VStream {
		return Null, fmt.Errorf("Glue's first argument must be a stream, got %s", args[0].Kind)
	}
	if args[1].Kind != VPreds {
		return Null, fmt.Errorf("Glue's second argument must be predicates, got %s", args[1].Kind)
	}
	if en.Glue == nil {
		return Null, fmt.Errorf("no Glue mechanism wired to the engine")
	}
	en.Stats.GlueCalls++
	// The request is reused from reference to reference. On a plan-table miss
	// Glue re-enters the engine; a Glue reference made from there finds the
	// request taken and allocates its own (no built-in rule nests them).
	req := en.glueReq
	en.glueReq = nil
	if req == nil {
		req = new(GlueRequest)
	}
	*req = GlueRequest{Tables: args[0].Stream.Tables, Push: args[1].Preds, Req: args[0].Stream.Req}
	plans, err := en.Glue(req)
	en.glueReq = req
	return SAPValue(plans), err
}

// TraceFromEvents reconstructs the rule-firing log from an observability
// event stream, in emission order: each rule-reference span becomes a header
// entry (its Plans filled in from the span's end event) and each
// fired/rejected alternative becomes a child entry — so FormatTrace shows
// the full fanout, rejections included.
func TraceFromEvents(events []obs.Event) []TraceEntry {
	var out []TraceEntry
	open := map[int64]int{}
	for _, e := range events {
		switch {
		case e.Name == obs.EvRule && e.Kind == obs.KindSpanBegin:
			open[e.Span] = len(out)
			out = append(out, TraceEntry{Depth: int(e.Depth), Rule: e.A1, Args: e.A2})
		case e.Name == obs.EvRule && e.Kind == obs.KindSpanEnd:
			if i, ok := open[e.Span]; ok {
				out[i].Plans = int(e.N1)
				delete(open, e.Span)
			}
		case e.Name == obs.EvAltFired && e.Kind == obs.KindInstant:
			out = append(out, TraceEntry{Depth: int(e.Depth), Rule: e.A1, Alt: int(e.N1), Plans: int(e.N2)})
		case e.Name == obs.EvAltRejected && e.Kind == obs.KindInstant:
			out = append(out, TraceEntry{Depth: int(e.Depth), Rule: e.A1, Alt: int(e.N1), Rejected: true, Cond: e.A2})
		}
	}
	return out
}

// FormatTrace renders the captured trace as an indented firing log.
func FormatTrace(entries []TraceEntry) string {
	var b strings.Builder
	for _, t := range entries {
		indent := strings.Repeat("  ", t.Depth-1)
		switch {
		case t.Alt == 0:
			fmt.Fprintf(&b, "%s%s(%s) -> %d plans\n", indent, t.Rule, t.Args, t.Plans)
		case t.Rejected && t.Cond != "":
			fmt.Fprintf(&b, "%s  alt#%d rejected: %s\n", indent, t.Alt, t.Cond)
		case t.Rejected:
			fmt.Fprintf(&b, "%s  alt#%d rejected\n", indent, t.Alt)
		default:
			fmt.Fprintf(&b, "%s  alt#%d fired: %d plans\n", indent, t.Alt, t.Plans)
		}
	}
	return b.String()
}
