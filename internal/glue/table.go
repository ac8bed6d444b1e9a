// Package glue implements the paper's Glue mechanism (Section 3.2): given a
// required set of properties for a stream, it (1) finds or creates plans for
// the required relational properties — referencing the top-most access STAR
// when none exist, (2) injects "veneer" Glue operators (SHIP, SORT, STORE,
// BUILDINDEX, FILTER) to make plans satisfy the required physical
// properties, and (3) returns the cheapest satisfying plan (or, optionally,
// all of them). Figure 3 of the paper is exactly this module's behaviour.
//
// The package also owns the plan table: the data structure, hashed on the
// tables and predicates (Section 4.4), that makes "do plans exist for these
// relational properties?" a dictionary lookup.
//
// Glue finds before it builds. Step 2 is a job — patch the candidates of one
// cell up to one requirement — and the table keeps a mark per job: the
// insertion sequence of the last candidate the job has dealt with. A
// reference veneers only candidates born after the mark, so an exact repeat
// builds nothing and reads its answer out of the cell the veneers went to.
// A mark has a half for the frozen base's entry and one for the overlay's
// own. Absorb folds the base half into the base by max — every overlay of a
// rank saw the same frozen entries and max commutes, so the base's marks are
// the same at every Parallelism — and the own half dies with its task.
// When only the cheapest plan is wanted there is also a bound: no veneer
// costs less than its input, so a candidate strictly dearer than the
// cheapest plan already satisfying the requirement gets no node, no generated
// name and no pricing. Ties are still built (a veneer may evict the incumbent
// it ties with, and first-offered tie-breaks must stand), and the bound only
// falls — a satisfying plan is evicted only by one at least as cheap that
// satisfies too — so what the bound skipped once the mark may pass for good.
package glue

import (
	"sort"
	"time"

	"stars/internal/expr"
	"stars/internal/obs"
	"stars/internal/plan"
)

// entryKey addresses one plan-table entry by the words of its sets: the
// table set's mask and the predicate set's Hash64 (the set itself, for a
// WHERE clause of up to 64 conjuncts). Probing renders no names.
type entryKey struct {
	tables, ph uint64
}

// entry is one (TABLES, PREDS) cell of the plan table. The predicate set is
// retained for exact verification (two distinct sets hashing alike chain via
// next); sibling chains the cells of one table set in creation order. A
// retained plan sits beside the insertion sequence it was born under (one run
// of the table's slab for both), seq being the last one handed out; eviction
// keeps order, so born ascends and the plans a mark has not passed are a suffix.
// seeded marks a single-table cell the access STARs have filled (Seed).
type entry struct {
	tables        expr.TableSet
	preds         expr.PredSet
	plans         []retained
	seq           uint32
	seeded        bool
	next, sibling *entry
}

type retained struct {
	*plan.Node
	born uint32
}

// appendTo appends the entry's plans to out.
func (e *entry) appendTo(out []*plan.Node) []*plan.Node {
	for _, p := range e.plans {
		out = append(out, p.Node)
	}
	return out
}

// fresh returns the index of the first plan born after seq.
func (e *entry) fresh(seq uint32) int {
	i := len(e.plans)
	for i > 0 && e.plans[i-1].born > seq {
		i--
	}
	return i
}

// Cell is one (TABLES, PREDS) cell as a table sees it — the frozen base's
// entry, then its own — with noEntry for an absent half (a root table has no
// base half). Base plans come first, the order a serial run would have
// accumulated them in, so first-offered tie-breaks ignore the schedule.
type Cell [2]*entry

// noEntry is the empty half of a cell. It is never written.
var noEntry = &entry{}

// Len counts the cell's plans.
func (c Cell) Len() int { return len(c[0].plans) + len(c[1].plans) }

// cheapest returns the cheapest plan of the cell satisfying req — on a tie
// the first offered — or nil.
func (c Cell) cheapest(req plan.Reqd) *plan.Node {
	var best *plan.Node
	for _, e := range c {
		for _, p := range e.plans {
			if (best == nil || p.Props.Cost.Total < best.Props.Cost.Total) && req.SatisfiedBy(p.Props) {
				best = p.Node
			}
		}
	}
	return best
}

// markKey names one veneering job by the words of its sets and requirement
// (Mask, Hash64 — a probe renders and allocates nothing): patching the
// candidates of the (tables, lookup) cell up to reqd and the full predicate
// set, for references that want all satisfying plans or only the cheapest.
type markKey struct {
	tables, lookup, full, reqd uint64
	all                        bool
}

// mark is how far a job has got through its candidate cell, half by half:
// the insertion sequence of the last candidate it has dealt with in the base
// table's entry and in this table's own (the package comment has the rules).
type mark [2]uint32

// PlanTable stores every Set of Alternative Plans produced so far, keyed by
// (TABLES, PREDS) — the relational properties of Figure 2. Within one entry
// only non-dominated plans are retained: a plan survives unless some other
// plan is at least as cheap and offers every physical property it offers.
//
// A table keeps its cells and retained lists in slabs of its own and its maps
// across Reset, so a table recycled from task to task and optimization to
// optimization allocates nothing once warm.
type PlanTable struct {
	entries  map[entryKey]*entry
	byTables map[uint64][2]*entry // first and last cell per table-set mask, chained by sibling
	cells    plan.Slab[entry]
	runs     plan.Slab[retained]
	// Inserted counts insertion attempts; Pruned counts plans rejected or
	// evicted by dominance. PruneDisabled turns dominance off (ablation).
	Inserted      int64
	Pruned        int64
	PruneDisabled bool
	// Obs, when tracing, receives plantable.offer / insert / prune events;
	// when merely enabled, dominance decisions are still tallied by origin
	// (ForEachPrune).
	Obs *obs.Sink
	// prunes tallies dominance decisions by the origins of the victim and
	// of the plan that dominated it, while Obs is enabled.
	prunes map[pruneKey]int64

	// base, when non-nil, makes this table an overlay: reads fall through
	// to base (which must stay frozen while the overlay is live), writes
	// stay local, and dominance decisions consider base plans without
	// evicting them — eviction is deferred to Absorb, which replays the
	// overlay's writes into base in their original order. Overlays are the
	// unit of isolation of the parallel join enumeration: each subset task
	// writes into its own overlay over the committed smaller-subset
	// entries, and the driver absorbs overlays at the rank barrier in
	// ascending subset order, so the merged table is identical however the
	// tasks were scheduled.
	base *PlanTable
	// order is the append-only log of locally-created entries in
	// first-write order — the deterministic replay schedule Absorb follows.
	order []*entry
	// marks is Glue's memo: how far each veneering job has got. An overlay
	// records its own and falls back to the base's (markOf).
	marks map[markKey]mark
	// replay is Absorb's scratch: the plans of the overlay entry being replayed.
	replay []*plan.Node
}

// pruneKey names the two sides of a dominance decision by plan origin.
type pruneKey struct{ victim, dominator string }

// NewPlanTable returns an empty plan table.
func NewPlanTable() *PlanTable {
	return &PlanTable{
		entries:  map[entryKey]*entry{},
		byTables: map[uint64][2]*entry{},
		marks:    map[markKey]mark{},
	}
}

// Reset empties the table for reuse, keeping its maps' and slabs' storage:
// as an overlay over base, or as a root table when base is nil. No cell,
// retained plan, mark, replay entry, prune tally, counter or sink of its
// previous use survives, and the pruning mode is base's (off for a root).
func (pt *PlanTable) Reset(base *PlanTable) {
	clear(pt.entries)
	clear(pt.byTables)
	clear(pt.marks)
	clear(pt.prunes)
	clear(pt.order)
	clear(pt.replay)
	pt.order, pt.replay = pt.order[:0], pt.replay[:0]
	pt.cells.Rewind(nil)
	pt.runs.Rewind(nil)
	pt.Inserted, pt.Pruned, pt.Obs = 0, 0, nil
	pt.base, pt.PruneDisabled = base, base != nil && base.PruneDisabled
}

// find returns the verified entry for (tables, preds) in this table alone
// (no base fall-through), or nil.
func (pt *PlanTable) find(tables expr.TableSet, preds expr.PredSet) *entry {
	for e := pt.entries[entryKey{tables.Mask(), preds.Hash64()}]; e != nil; e = e.next {
		if e.preds.Equal(preds) {
			return e
		}
	}
	return nil
}

// ensure returns the entry for (tables, preds), creating it on first write.
func (pt *PlanTable) ensure(tables expr.TableSet, preds expr.PredSet) (*entry, bool) {
	if e := pt.find(tables, preds); e != nil {
		return e, false
	}
	k := entryKey{tables.Mask(), preds.Hash64()}
	e := pt.cells.Next()
	*e = entry{tables: tables, preds: preds, next: pt.entries[k]}
	pt.entries[k] = e
	if c := pt.byTables[k.tables]; c[0] == nil {
		pt.byTables[k.tables] = [2]*entry{e, e}
	} else {
		c[1].sibling, c[1] = e, e
		pt.byTables[k.tables] = c
	}
	return e, true
}

// Lookup returns both halves of the (tables, preds) cell, which Glue reads in
// place: one map probe on the sets' words per half, nothing allocated.
func (pt *PlanTable) Lookup(tables expr.TableSet, preds expr.PredSet) Cell {
	c := Cell{noEntry, noEntry}
	if pt.base != nil {
		if e := pt.base.find(tables, preds); e != nil {
			c[0] = e
		}
	}
	if e := pt.find(tables, preds); e != nil {
		c[1] = e
	}
	return c
}

// markOf returns how far job k has got: this table's own record, else what
// the frozen base had seen (a base counts in its own half).
func (pt *PlanTable) markOf(k markKey) mark {
	m, ok := pt.marks[k]
	if !ok && pt.base != nil {
		m[0] = pt.base.marks[k][1]
	}
	return m
}

// Insert offers plans to the (tables, preds) entry, retaining the ones no
// other plan dominates.
func (pt *PlanTable) Insert(tables expr.TableSet, preds expr.PredSet, plans []*plan.Node) {
	var t0 time.Time
	profiled := pt.Obs.ProfEnabled()
	if profiled {
		t0 = time.Now()
	}
	e, created := pt.ensure(tables, preds)
	if created && pt.base != nil {
		pt.order = append(pt.order, e)
	}
	c := pt.Lookup(tables, preds)
	for _, p := range plans {
		pt.Inserted++
		if pt.Obs.Tracing() {
			pt.Obs.Emit(obs.Event{Name: obs.EvPlanOffer, A1: tables.Key(),
				P1: p.ID(), A3: offerDetail(p),
				F1: p.Props.Cost.Total, F2: p.Props.Card})
		}
		pt.addPruned(c, p)
	}
	if pt.Obs.Tracing() {
		pt.Obs.Emit(obs.Event{Name: obs.EvPlanInsert, A1: tables.Key(), A2: preds.Key(),
			N1: int64(len(plans)), N2: int64(len(e.plans))})
	}
	if profiled {
		// One plantable_offer batch per Insert; the count is plans offered,
		// the duration covers their dominance scans.
		pt.Obs.ProfActivity(obs.ActOffer, time.Since(t0), int64(len(plans)))
	}
}

// Seed is Insert for the plans the access STARs built for a single-table
// cell, and marks the cell seeded: only then has Glue found its access plans
// (a materializing reference may have put veneers there first).
func (pt *PlanTable) Seed(tables expr.TableSet, preds expr.PredSet, plans []*plan.Node) {
	pt.Insert(tables, preds, plans)
	pt.find(tables, preds).seeded = true
}

// addPruned offers p to the cell's own entry. Base plans are scanned first
// (they were retained first, exactly as in a serial run) and may reject p, but
// are never evicted here: an overlay must not mutate its shared, frozen base.
// A base plan p dominates is evicted later, when Absorb replays this write
// into the base on the barrier goroutine.
func (pt *PlanTable) addPruned(c Cell, p *plan.Node) {
	e := c[1]
	for _, half := range c {
		for _, q := range half.plans {
			if q.Node == p || (pt.PruneDisabled && q.ID() == p.ID()) {
				return
			}
			if !pt.PruneDisabled && plan.Dominates(q.Props, p.Props) {
				pt.Pruned++
				pt.notePrune(e.tables, p, q.Node, 0) // incoming p rejected, dominated by existing q
				return
			}
		}
	}
	kept := 0
	for _, q := range e.plans {
		if !pt.PruneDisabled && plan.Dominates(p.Props, q.Props) {
			pt.Pruned++
			pt.notePrune(e.tables, q.Node, p, 1) // existing q evicted by incoming p
			continue
		}
		e.plans[kept] = q
		kept++
	}
	e.seq++
	if kept == cap(e.plans) {
		// A full run moves to one twice its size; the old one is
		// garbage until Reset rewinds the slab.
		run := pt.runs.Run(max(4, 2*kept))
		e.plans = run[:copy(run, e.plans[:kept])]
	}
	e.plans = append(e.plans[:kept], retained{p, e.seq})
}

// Absorb replays an overlay's locally-retained plans into pt, walking the
// overlay's append-only entry log in first-write order, and folds its churn
// counters. Replay goes through the normal Insert path on the calling
// goroutine, so decisions an overlay had to defer — a task's plan evicting a
// base plan it dominates, or two tasks' equivalent veneers for a shared
// subset pruning one another — are made here, with the usual
// offer/insert/prune events going to pt.Obs. Absorbing a rank's overlays in
// ascending subset order therefore yields a table whose contents are
// independent of how the tasks were scheduled.
func (pt *PlanTable) Absorb(o *PlanTable) {
	var t0 time.Time
	profiled := pt.Obs.ProfEnabled()
	if profiled {
		t0 = time.Now()
	}
	for _, oe := range o.order {
		if len(oe.plans) > 0 {
			pt.replay = oe.appendTo(pt.replay[:0])
			pt.Insert(oe.tables, oe.preds, pt.replay)
			if oe.seeded {
				pt.find(oe.tables, oe.preds).seeded = true
			}
		}
	}
	// The base half of an overlay's mark counts in pt's numbering, and max
	// commutes: neither the order of tasks nor of this map changes the result.
	for k, m := range o.marks {
		if m[0] > pt.marks[k][1] {
			pt.marks[k] = mark{1: m[0]}
		}
	}
	pt.Inserted += o.Inserted
	pt.Pruned += o.Pruned
	if len(o.prunes) > 0 && pt.prunes == nil {
		pt.prunes = make(map[pruneKey]int64, len(o.prunes))
	}
	for k, n := range o.prunes {
		pt.prunes[k] += n
	}
	if profiled {
		// The absorb meter overlaps plantable_offer: replaying an overlay
		// goes through Insert, which times its own offers too.
		pt.Obs.ProfActivity(obs.ActAbsorb, time.Since(t0), 1)
	}
}

// notePrune records one dominance decision: tallied by the origins of the
// victim and the dominator on any enabled sink, and on a tracing sink also
// emitted with the identity and cost of both — the forensic record
// provenance.WhyNot answers from. direction is 0 when the incoming plan was
// rejected, 1 when an existing plan was evicted.
func (pt *PlanTable) notePrune(tables expr.TableSet, victim, dominator *plan.Node, direction int64) {
	if !pt.Obs.Enabled() {
		return
	}
	if pt.prunes == nil {
		pt.prunes = map[pruneKey]int64{}
	}
	pt.prunes[pruneKey{victim.Origin, dominator.Origin}]++
	if !pt.Obs.Tracing() {
		return
	}
	pt.Obs.Emit(obs.Event{Name: obs.EvPlanPrune, A1: tables.Key(), N1: direction,
		P1: victim.ID(), P2: dominator.ID(),
		F1: victim.Props.Cost.Total, F2: dominator.Props.Cost.Total})
}

// ForEachPrune visits the dominance decisions tallied while Obs was enabled
// (this table's own and every absorbed overlay's), grouped by the victim's
// and the dominator's plan origin, in unspecified order.
func (pt *PlanTable) ForEachPrune(fn func(victimOrigin, dominatorOrigin string, n int64)) {
	for k, n := range pt.prunes {
		fn(k.victim, k.dominator, n)
	}
}

// offerDetail renders the origin and operator of an offered plan for the
// plantable.offer event ("JMeth#2 JOIN(MG)").
func offerDetail(p *plan.Node) string {
	origin := p.Origin
	if origin == "" {
		origin = "?"
	}
	head := string(p.Op)
	if p.Flavor != "" {
		head += "(" + p.Flavor + ")"
	}
	return origin + " " + head
}

// eachEntry visits every entry, in unspecified order; on an overlay, base
// entries come first.
func (pt *PlanTable) eachEntry(fn func(e *entry)) {
	if pt.base != nil {
		pt.base.eachEntry(fn)
	}
	for _, c := range pt.byTables {
		for e := c[0]; e != nil; e = e.sibling {
			fn(e)
		}
	}
}

// ForEachPlan visits every retained plan (base plans too, on an overlay).
func (pt *PlanTable) ForEachPlan(fn func(p *plan.Node)) {
	pt.eachEntry(func(e *entry) {
		for _, p := range e.plans {
			fn(p.Node)
		}
	})
}

// ForEach is ForEachPlan for callers that print where each plan sits: it
// renders every entry's table-set and predicate key.
//
//obsguard:ignore display walk, once per optimization: the keys are what its callers print
func (pt *PlanTable) ForEach(fn func(tablesKey, predsKey string, p *plan.Node)) {
	pt.eachEntry(func(e *entry) {
		tk, pk := e.tables.Key(), e.preds.Key()
		for _, p := range e.plans {
			fn(tk, pk, p.Node)
		}
	})
}

// HasEntry reports whether any plan is stored for the table set, without
// materializing the combined entry — the enumeration's joinability probe.
func (pt *PlanTable) HasEntry(tables expr.TableSet) bool {
	if pt.base != nil && pt.base.HasEntry(tables) {
		return true
	}
	for e := pt.byTables[tables.Mask()][0]; e != nil; e = e.sibling {
		if len(e.plans) > 0 {
			return true
		}
	}
	return false
}

// Entry returns every plan stored for the table set across all predicate
// keys (on an overlay: base entries first, then local ones).
func (pt *PlanTable) Entry(tables expr.TableSet) []*plan.Node {
	var out []*plan.Node
	if pt.base != nil {
		out = pt.base.Entry(tables)
	}
	for e := pt.byTables[tables.Mask()][0]; e != nil; e = e.sibling {
		out = e.appendTo(out)
	}
	return out
}

// Sites returns the distinct sites at which plans for the table set exist,
// sorted — the siteDiffers condition's probe.
func (pt *PlanTable) Sites(tables expr.TableSet) []string {
	seen := map[string]bool{}
	for _, p := range pt.Entry(tables) {
		seen[p.Props.Site] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Size returns the total number of retained plans (including base plans on
// an overlay).
func (pt *PlanTable) Size() int {
	n := 0
	pt.eachEntry(func(e *entry) { n += len(e.plans) })
	return n
}

// CheapestOf returns the minimum-cost plan of a slice, or nil.
func CheapestOf(plans []*plan.Node) *plan.Node {
	var best *plan.Node
	for _, p := range plans {
		if best == nil || p.Props.Cost.Total < best.Props.Cost.Total {
			best = p
		}
	}
	return best
}
