package star

import (
	"context"
	"errors"
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
	// when the attached profiler pins labels; a reference composes a star=
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

	// Scratch is what references evaluate on: NewEngine's own, or the one a
	// pooled opt workspace hands from optimization to optimization.
	*Scratch
	// lists is catalogLists' answer, shared read-only with forks.
	lists [][]Value
	// queryBase is queryBaseTables' answer.
	queryBase []string
}

// Scratch is an engine's working storage: everything a reference builds and
// drops again, and the catalog lists of an engine and its forks. Its stacks
// are empty whenever no reference is in progress, so engines that never
// evaluate at once — an optimization's root engine and its first worker's
// fork — may share one. Its owner Resets it for the next optimization, which
// keeps its capacity.
type Scratch struct {
	// stack holds the frame of every reference in progress, innermost last.
	// Growing may move it: frames are addressed by offset, and a view handed
	// to a builder or helper goes on reading the old, intact copy. A frame is
	// not zero on entry — a call cuts the stack back to its arguments, over
	// the caller's dead temporaries — so every op writes a slot before any op
	// reads it. A reference clears its frame when it returns, so once the
	// outermost one returns the stack pins nothing it computed.
	stack []Value
	// saps is the SAP scratch: every SAP of an evaluation is built on it
	// (merge), and Eval hands its caller the result there, uncopied.
	saps []*plan.Node
	// seen is merge's dedupe set, cleared per use.
	seen map[uint64]bool
	// loops holds the state of every forall in progress, innermost last.
	loops []loop
	// glueReq is evalGlue's request, nil while a Glue reference is using it.
	glueReq *GlueRequest
	// names backs the lists catalogLists builds; lists holds their headers.
	names []Value
	lists [][]Value
}

// Reset empties s, zeroing every slot it has grown, so that it pins nothing
// of the optimization that used it.
func (s *Scratch) Reset() {
	s.stack, s.saps, s.loops, s.names, s.lists = emptied(s.stack), emptied(s.saps), emptied(s.loops), emptied(s.names), emptied(s.lists)
	clear(s.seen)
	if s.glueReq != nil {
		*s.glueReq = GlueRequest{}
	}
}

// emptied zeroes s up to its capacity and returns it with length 0.
func emptied[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// loop is a forall in progress: the elements it has yet to bind and the
// plans it has merged, at the scratch mark where they accumulate.
type loop struct {
	list []Value
	out  []*plan.Node
	mark int
}

// maxDepth bounds rule recursion; the paper assumes the DBC writes STARs
// without infinite cycles, and this turns a violation into an error instead
// of a hang.
const maxDepth = 200

// NewEngine builds an engine over the built-in callee table.
func NewEngine(rules *RuleSet, costEnv *cost.Env) *Engine {
	return &Engine{Rules: rules, Cost: costEnv, callees: builtins, Scratch: new(Scratch)}
}

// Fork returns an engine for one worker of a parallel enumeration, evaluating
// on s. The repertoire, the callee table, the bindings and the catalog lists
// are shared with en, not copied: Options.Prepare registers before the first
// reference is evaluated, Validate binds, Fork builds the lists at the latest,
// and nothing writes them afterwards (builders and helpers are stateless
// functions receiving the engine per call), so concurrent workers only ever
// read them. The pricing environment, the sink and the counters (zero here;
// the caller adds them back with Stats.Add) are the worker's own for its whole
// life. The caller wires Glue and PlanSites to the worker's Gluer.
func (en *Engine) Fork(costEnv *cost.Env, sink *obs.Sink, s *Scratch) *Engine {
	lists := en.catalogLists()
	return &Engine{
		Rules:       en.Rules,
		Cost:        costEnv,
		QueryTables: en.QueryTables,
		queryBase:   en.queryBase,
		lists:       lists,
		Obs:         sink,
		callees:     en.callees,
		bound:       en.bound,
		boundTo:     en.boundTo,
		boundAt:     en.boundAt,
		Scratch:     s,
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

// Eval evaluates a reference of the named STAR with the given arguments and
// hands its SAP to use, which is not called on an error. This is the paper's
// substitution step: replace the reference with the alternative definitions
// whose conditions hold, binding parameters to arguments. args is copied into
// a frame the engine pushes. The SAP is read in place on the scratch: it is
// valid until use returns, when Eval releases it, so a caller that inserts
// the plans into a table copies nothing.
//
// An engine that never validated binds its calls here first, as Validate does,
// leaving what does not resolve to fail when evaluated.
func (en *Engine) Eval(name string, args []Value, use func(sap []*plan.Node)) error {
	if en.boundTo != en.Rules || en.boundAt != en.Rules.adds {
		_ = en.Validate()
	}
	i, ok := en.Rules.index[name]
	if !ok {
		return fmt.Errorf("star: reference of undefined STAR %q", name)
	}
	rule := &en.bound[i]
	mark, fp, n := len(en.saps), len(en.stack), max(rule.Frame, len(args))
	en.stack = slices.Grow(en.stack, n)[:fp+n]
	copy(en.stack[fp:], args)
	out, err := en.reference(rule, fp, len(args))
	clear(en.stack[fp:])
	en.stack = en.stack[:fp]
	if err == nil {
		use(out)
	}
	en.release(mark)
	return err
}

// EvalRule is Eval returning a copy of the SAP, the caller's to keep.
func (en *Engine) EvalRule(name string, args []Value) (sap []*plan.Node, err error) {
	err = en.Eval(name, args, func(s []*plan.Node) { sap = slices.Clone(s) })
	return sap, err
}

// reference evaluates a reference of rule whose frame is at fp with its nargs
// arguments already in the first slots, running the span of each
// where-binding, condition and body of its program (run). A STAR call is the
// only Go recursion.
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
	loops := len(en.loops)
	defer func() {
		sp.End(int64(len(out)))
		en.depth--
		clear(en.loops[loops:]) // a failed reference leaves its foralls open
		en.loops = en.loops[:loops]
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

	prog := &rule.prog
	for j, let := range rule.Where {
		if err := en.run(rule, fp, prog.where[j]); err != nil {
			return nil, fmt.Errorf("star: %s where %s: %w", name, let.Name, err)
		}
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
			err := en.run(rule, fp, prog.conds[i])
			if profiled {
				en.Obs.ProfActivity(obs.ActGuard, time.Since(g0), 1)
			}
			if err != nil {
				return nil, fmt.Errorf("star: %s alternative %d condition: %w", name, i+1, err)
			}
			applicable = en.stack[fp+int(prog.conds[i].out)].Truthy()
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
		if err := en.run(rule, fp, prog.bodies[i]); err != nil {
			return nil, fmt.Errorf("star: %s alternative %d: %w", name, i+1, err)
		}
		v := &en.stack[fp+int(prog.bodies[i].out)]
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

// run runs the ops of s on rule's frame at fp. A forall it leaves open on an
// error is closed by the reference that called it.
func (en *Engine) run(rule *boundRule, fp int, s span) (err error) {
	ops, consts := rule.prog.ops, rule.prog.consts
	for pc := int(s.from); pc < int(s.to) && err == nil; {
		o := &ops[pc]
		pc++
		switch o.code {
		case opLoad:
			en.stack[fp+int(o.dst)] = en.stack[fp+int(o.src)]
		case opConst:
			en.stack[fp+int(o.dst)] = consts[o.x]
		case opFail:
			err = errors.New(consts[o.x].Str)
		case opCall:
			err = en.call(rule, fp, o)
		case opTest:
			t := en.stack[fp+int(o.src)].Truthy()
			en.stack[fp+int(o.dst)] = BoolValue(t)
			if o.x == testGuard {
				en.Stats.AltsConsidered++
				if t {
					en.Stats.AltsFired++
				}
			}
			if t == (o.x == testOr) {
				pc = int(o.jmp)
			}
		case opNot:
			en.stack[fp+int(o.dst)] = BoolValue(!en.stack[fp+int(o.src)].Truthy())
		case opReq:
			err = annotate(o.x, &en.stack[fp+int(o.dst)], &en.stack[fp+int(o.src)])
		case opForall:
			if v := &en.stack[fp+int(o.src)]; v.Kind != VList {
				err = fmt.Errorf("forall wants a list, got %s", v.Kind)
			} else {
				en.loops = append(en.loops, loop{list: v.List, mark: len(en.saps)})
			}
		case opNext:
			l := &en.loops[len(en.loops)-1]
			if len(l.list) == 0 {
				en.stack[fp+int(o.dst)] = SAPValue(l.out)
				*l, en.loops = loop{}, en.loops[:len(en.loops)-1]
				pc = int(o.jmp)
				break
			}
			en.stack[fp+int(o.x)], l.list = l.list[0], l.list[1:]
		case opMerge:
			v, l := &en.stack[fp+int(o.src)], &en.loops[len(en.loops)-1]
			if v.Kind != VSAP {
				err = fmt.Errorf("forall body produced %s, want plans", v.Kind)
				break
			}
			l.out = en.merge(l.mark, len(l.out), v.SAP)
			pc = int(o.jmp)
		}
	}
	return err
}

// call runs call o.x of rule, whose frame is at fp, on the arguments in the
// slots from o.src up, and stores its result in slot o.dst — addressed after
// the call returns, since a nested reference may move the stack. Nothing
// above the arguments is live: a STAR's frame starts at them (they are its
// parameters), and a reference a builder or helper makes pushes its frame
// right above them. The stack regains its length after; a STAR's frame is
// cleared, so the stack pins nothing the reference computed.
func (en *Engine) call(rule *boundRule, fp int, o *op) error {
	c, b := rule.Rule.calls[o.x], rule.calls[o.x]
	args, n, top := fp+int(o.src), len(c.Args), len(en.stack)
	end := args + n
	if b.star != nil {
		end = args + max(n, b.star.Frame)
	}
	en.stack = slices.Grow(en.stack[:args+n], end-args-n)[:end]
	switch {
	case b.star != nil:
		// A rule reference: the dictionary-lookup substitution step.
		sap, err := en.reference(b.star, args, n)
		clear(en.stack[args:end])
		en.stack = en.stack[:top]
		en.stack[fp+int(o.dst)] = SAPValue(sap)
		return err
	case b.callee == nil:
		en.stack = en.stack[:top]
		return fmt.Errorf("reference of undefined name %q", c.Name)
	case b.callee.Result != KindSAP:
		en.Stats.HelperCalls++
	}
	v, err := b.callee.Func(en, en.stack[args:end:end])
	en.stack = en.stack[:top]
	en.stack[fp+int(o.dst)] = v
	return err
}

// reqWants is the kind the value of each property step must have, and how
// the step says so when it does not.
var reqWants = [...]struct {
	kind VKind
	msg  string
}{{VCols, "[order=...] wants columns"}, {VStr, "[site=...] wants a site name"}, {}, {VCols, "[paths=...] wants index key columns"}}

// annotate runs step key of a [...] annotation (see reqStream).
func annotate(key int32, dst, src *Value) error {
	switch {
	case key == reqStream && src.Kind != VStream:
		return fmt.Errorf("required-property brackets apply to streams, not %s", src.Kind)
	case key < reqStream && key != reqTemp && src.Kind != reqWants[key].kind:
		return fmt.Errorf("%s, got %s", reqWants[key].msg, src.Kind)
	}
	req := &dst.Stream.Req
	switch key {
	case reqOrder:
		if src.Cols.Len() > 0 {
			req.Order = src.Cols
		}
	case reqSite:
		s := src.Str
		req.Site = &s
	case reqTemp:
		req.Temp = true
	case reqPaths:
		if src.Cols.Len() > 0 {
			req.PathCols = src.Cols
		}
	}
	return nil
}

// SAP copies plans onto the SAP scratch and returns the copy — how a builder
// or Glue returns plans without a heap slice — valid, like every SAP the
// engine hands out, until the Eval in progress releases it. With none in
// progress (Glue called from Go) nothing would release the copy, so it is a
// heap slice and the caller's to keep.
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
	if en.seen == nil {
		en.seen = map[uint64]bool{}
	}
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
