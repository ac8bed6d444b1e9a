// Rank-parallel bottom-up join enumeration.
//
// Section 2.3 builds plans strictly bottom-up: every plan for a subset of
// size k consumes only plan-table entries for smaller subsets, so the
// subsets within one size rank are independent work. enumerate exploits
// that: each rank's subsets become tasks fanned out to a worker pool, with
// a barrier between ranks so size-k workers only ever read committed
// size-<k entries.
//
// Determinism is the design constraint — a parallel run must choose plans
// with identical fingerprints, retain an identical plan table, and report
// identical counters to a serial run. Two mechanisms deliver it:
//
//  1. Isolation: each task that has something to join writes to its own
//     overlay plan table over the frozen base — one of its worker's, Reset
//     for it (workspace.overlay) — so its outcome depends only on the
//     committed base — never on how sibling tasks were scheduled. Everything
//     else it works with — plan.Arena, forked pricing environment, forked
//     engine, Gluer, obs sink — belongs to the worker goroutine for the whole
//     optimization (newWorker): where a node lives, which copy of an interned
//     Rel it shares, which overlay held its writes and which engine counted a
//     reference decide no outcome.
//  2. Ordered merge: at the rank barrier the driver absorbs every task's
//     overlay writes in ascending subset-mask order, the order a serial walk
//     visits subsets in. Counters, metrics and profiles are sums, added once
//     per worker after the last rank. Events are not, so a tracing sink
//     enumerates on one worker, which records into it as it goes.
//
// Parallelism: 1 runs the very same task/overlay/merge pipeline through a
// forked worker 0 on the calling goroutine — never through the root engine —
// which is what makes the equivalence checkable rather than aspirational
// (internal/opt/parallel_test.go asserts it).
package opt

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"stars/internal/glue"
	"stars/internal/obs"
	"stars/internal/plan"
	"stars/internal/query"
	"stars/internal/star"
)

// resolveParallelism maps an Options.Parallelism value to a worker count:
// n > 0 is n, anything else GOMAXPROCS.
func resolveParallelism(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// subsetTask is one unit of rank-parallel work: all joinable partitions of
// one quantifier subset. It owns what the barrier must replay in mask order:
// ov, the overlay the subset's plans were written to. A subset with no
// joinable partition takes none and leaves ov nil.
type subsetTask struct {
	mask  uint32
	pairs int64
	ov    *glue.PlanTable
	err   error
}

// enumerate walks quantifier subsets by size, referencing JoinRoot for each
// joinable partition of each subset. Subsets are bitmasks over the
// quantifier list; quantifier counts beyond 30 are rejected (well past what
// dynamic-programming enumeration is for). Within each size rank the
// subsets run on Options.Parallelism workers (one when the sink is tracing);
// results merge at the rank barrier in ascending mask order.
func (o *Optimizer) enumerate(g *query.Graph, en *star.Engine, gl *glue.Gluer, table *glue.PlanTable, res *Result) error {
	n := len(g.Quants)
	if n > 30 {
		return fmt.Errorf("opt: %d quantifiers exceeds the enumeration limit", n)
	}
	if n == 1 {
		return nil
	}
	par := resolveParallelism(o.Opts.Parallelism)
	sink := res.Obs
	if sink.Tracing() {
		par = 1 // events do not sum: one worker records them as it goes
	}

	profiled := sink.ProfEnabled()
	labels := sink.ProfLabels()
	full := uint32(1)<<uint(n) - 1
	var workers []*glue.Gluer    // one per worker goroutine, built the first time a rank has work for it
	tasks := res.spaces[0].tasks // the rank's tasks in ascending mask order, reused rank to rank and query to query
	for size := 2; size <= n; size++ {
		var sizeSp obs.Span
		if sink.Enabled() {
			phase := "join-" + strconv.Itoa(size)
			sizeSp = sink.StartSpan(obs.EvPhase, phase, "", 0)
			phaseLabels(en, labels, phase)
		}
		sizePairs := res.Stats.Pairs
		var rankStart time.Time
		if profiled {
			rankStart = time.Now()
		}

		tasks = tasks[:0]
		for mask := uint32(1)<<uint(size) - 1; mask <= full; {
			tasks = append(tasks, subsetTask{mask: mask})
			// Gosper's hack: next-larger mask with the same popcount.
			c := mask & (^mask + 1)
			r := mask + c
			if r > full {
				break
			}
			mask = r | ((mask^r)>>2)/c
		}
		res.spaces[0].tasks = tasks
		var collectNS int64
		var execStart time.Time
		if profiled {
			collectNS = int64(time.Since(rankStart))
			execStart = time.Now()
		}
		for len(workers) < min(par, len(tasks)) {
			workers = append(workers, newWorker(len(workers), gl, res))
		}
		busy := runTasks(par, profiled, tasks, func(worker int, t *subsetTask) {
			o.runSubset(t, workers[worker], res.spaces[worker], gl)
		})
		var execNS int64
		var absorbStart time.Time
		if profiled {
			execNS = int64(time.Since(execStart))
			absorbStart = time.Now()
		}

		// Barrier: fold tasks back in ascending mask order — the order a
		// serial walk visits subsets in — so dominance tie-breaks come out
		// identical at every parallelism level.
		for i := range tasks {
			t := &tasks[i]
			if t.err != nil {
				return t.err
			}
			res.Stats.Subsets++
			if t.ov == nil {
				continue // nothing joinable: the task built nothing to fold
			}
			res.Stats.Pairs += t.pairs
			table.Absorb(t.ov)
		}
		for _, w := range res.spaces {
			w.used = 0 // the next rank's tasks reuse the overlays
		}
		if profiled {
			sink.ProfRank(obs.Rank{
				Rank:      size,
				Tasks:     len(tasks),
				Workers:   len(busy),
				WallNS:    int64(time.Since(rankStart)),
				CollectNS: collectNS,
				ExecNS:    execNS,
				AbsorbNS:  int64(time.Since(absorbStart)),
				BusyNS:    busy,
			})
		}
		sizeSp.End(res.Stats.Pairs - sizePairs)
	}
	// Sums keep no order: add each worker's counters and sink once, not once
	// per task.
	for i, w := range workers {
		en.Stats.Add(w.Engine.Stats)
		gl.Stats.Add(w.Stats)
		if i > 0 {
			sink.Absorb(w.Engine.Obs)
		}
	}
	if len(table.Entry(g.TableSet())) == 0 {
		return fmt.Errorf("opt: no complete plan produced (disconnected join graph? enable CartesianProducts)")
	}
	return nil
}

// runTasks executes the rank's tasks on par workers (inline, as worker 0,
// when par <= 1), telling run which worker it is on. Task completion order is
// scheduling-dependent; the caller re-establishes determinism by merging in
// task order. When profiled, the returned slice holds each worker's busy time
// over the execution window (each slot is written by exactly one worker
// goroutine and read only after wg.Wait); otherwise it is nil.
func runTasks(par int, profiled bool, tasks []subsetTask, run func(worker int, t *subsetTask)) []int64 {
	if par > len(tasks) {
		par = len(tasks)
	}
	if par <= 1 {
		start := time.Now()
		for i := range tasks {
			run(0, &tasks[i])
		}
		if !profiled {
			return nil
		}
		return []int64{int64(time.Since(start))}
	}
	var busy []int64
	if profiled {
		busy = make([]int64, par)
	}
	ch := make(chan *subsetTask)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for t := range ch {
				if profiled {
					t0 := time.Now()
					run(w, t)
					busy[w] += int64(time.Since(t0))
				} else {
					run(w, t)
				}
			}
		}(i)
	}
	for i := range tasks {
		ch <- &tasks[i]
	}
	close(ch)
	wg.Wait()
	return busy
}

// maskPair is one unordered partition of a subset into two joinable halves.
type maskPair struct{ s1, s2 uint32 }

// partitions lists the joinable partitions of mask against the committed
// table, predicate-connected pairs first. A subset mask is a table set of the
// query's universe as it stands (bit i = g.Quants[i]), so the probes below
// are word operations.
// The list is w's scratch, valid until w's next call.
func (o *Optimizer) partitions(mask uint32, g *query.Graph, table *glue.PlanTable, w *workspace) []maskPair {
	u := g.Universe()
	connected, cartesian := w.connected[:0], w.cartesian[:0]
	low := mask & (^mask + 1) // dedupe unordered partitions: s1 keeps the lowest bit
	for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
		if sub&low == 0 {
			continue
		}
		s1, s2 := sub, mask^sub
		if o.Opts.NoCompositeInners &&
			bits.OnesCount32(s1) > 1 && bits.OnesCount32(s2) > 1 {
			continue
		}
		t1, t2 := u.Subset(uint64(s1)), u.Subset(uint64(s2))
		if !table.HasEntry(t1) || !table.HasEntry(t2) {
			continue
		}
		if g.Connected(t1, t2) {
			connected = append(connected, maskPair{s1, s2})
		} else {
			cartesian = append(cartesian, maskPair{s1, s2})
		}
	}
	// Prefer predicate-connected pairs as System R and R* did; consider
	// Cartesian products only when configured, or when nothing connects
	// the subset at the final join (so queries with disconnected join
	// graphs still plan).
	full := uint32(1)<<uint(len(g.Quants)) - 1
	if o.Opts.CartesianProducts || (len(connected) == 0 && mask == full) {
		connected = append(connected, cartesian...)
	}
	w.connected, w.cartesian = connected, cartesian
	return connected
}

// overlay hands the running task one of w's overlays, Reset over base.
func (w *workspace) overlay(base *glue.PlanTable) *glue.PlanTable {
	if w.used == len(w.overlays) {
		w.overlays = append(w.overlays, glue.NewPlanTable())
	}
	ov := w.overlays[w.used]
	w.used++
	ov.Reset(base)
	return ov
}

// newWorker builds worker i's state for the rest of the optimization: a
// workspace and a sink (for worker 0 the root's workspace, idle while a rank
// executes, and the request's sink; for the others a checked-out workspace and
// a child sink), forks of the root pricing environment and engine (evaluating
// on the workspace's scratch), and a Gluer wiring them together. Its plan
// table is the running task's (runSubset).
func newWorker(i int, root *glue.Gluer, res *Result) *glue.Gluer {
	if i == len(res.spaces) {
		res.spaces = append(res.spaces, checkout())
	}
	sink := res.Obs
	if i > 0 {
		sink = sink.Child()
	}
	env := root.Engine.Cost.Fork()
	env.Arena, env.Obs, env.Rels = res.spaces[i].arena, sink, res.spaces[i].forkRels
	w := &glue.Gluer{Engine: root.Engine.Fork(env, sink, &res.spaces[i].scratch), Graph: root.Graph, KeepAll: root.KeepAll}
	w.Engine.Glue = w.Glue
	w.Engine.PlanSites = w.PlanSites
	return w
}

// runSubset evaluates one subset task on worker w, whose storage is ws,
// against the root Gluer's committed table. The partitions are listed first:
// most subsets of a sparse join graph have none and cost nothing more. A task
// with something to join takes an overlay plan table from ws, points the
// worker's Gluer at it and references JoinRoot for every pair, reading
// committed entries through the overlay and writing results into it.
func (o *Optimizer) runSubset(t *subsetTask, w *glue.Gluer, ws *workspace, root *glue.Gluer) {
	g := root.Graph
	pairs := o.partitions(t.mask, g, root.Table, ws)
	if len(pairs) == 0 {
		return
	}
	en := w.Engine
	sink := en.Obs
	ov := ws.overlay(root.Table)
	ov.Obs = sink
	t.ov, w.Table = ov, ov
	if sink.ProfLabels() {
		// Label the worker goroutine with the rank it is executing; a reference
		// composes star= on top. Labels follow the task, so a worker pool
		// goroutine re-labels per task.
		rank := strconv.Itoa(bits.OnesCount32(t.mask))
		ctx := pprof.WithLabels(context.Background(), pprof.Labels("phase", "join-"+rank, "rank", rank))
		pprof.SetGoroutineLabels(ctx)
		en.LabelCtx = ctx
	}

	u := g.Universe()
	S := u.Subset(uint64(t.mask))
	eligible := g.EligibleWithin(S)
	for _, pr := range pairs {
		t.pairs++
		s1, s2 := u.Subset(uint64(pr.s1)), u.Subset(uint64(pr.s2))
		if sink.Tracing() {
			sink.Emit(obs.Event{Name: obs.EvPair, A1: s1.Key(), A2: s2.Key()})
		}
		err := en.Eval(o.joinRootName(), []star.Value{
			star.StreamValue(s1),
			star.StreamValue(s2),
			star.PredsValue(g.NewlyEligible(s1, s2)),
		}, func(sap []*plan.Node) { ov.Insert(S, eligible, sap) })
		if err != nil {
			t.err = fmt.Errorf("opt: joining {%s} with {%s}: %w", s1.Key(), s2.Key(), err) //obsguard:ignore error path
			return
		}
	}
}
