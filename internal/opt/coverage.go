package opt

import (
	"sort"

	"stars/internal/glue"
	"stars/internal/obs"
	"stars/internal/plan"
	"stars/internal/star"
)

// emitCoverage closes one observed optimization with a coverage summary:
// one opt.alt.coverage event per alternative of the active repertoire (the
// whole alternative space, so never-exercised arms are visible in the
// stream) and one opt.veneer.coverage event per Glue operator seen, plus
// coverage_* counters in the sink's registry. Firing, rejection and veneer
// tallies are the engine's and Glue's own counters; prune attribution is the
// plan table's, by the Origin ("Rule#alt") of victim and dominator;
// retained/winner attribution comes from the final plan table and the chosen
// plan. All of it is a pure function of run state every parallelism level
// and both sink tiers agree on, so the emitted events are byte-identical
// across them.
func emitCoverage(sink *obs.Sink, rules *star.RuleSet, res *Result) {
	// Per-alternative tallies live at the alternative's slot in the rule
	// set's dense numbering, the index star.Stats.Alts already uses.
	alts := make([]obs.AltCoverage, rules.NumAlts())
	altOf := func(origin string) *obs.AltCoverage {
		if slot, ok := rules.OriginSlot(origin); ok {
			return &alts[slot]
		}
		return nil
	}
	veneers := map[string]*obs.VeneerCoverage{}
	veneer := func(op string) *obs.VeneerCoverage {
		v := veneers[op]
		if v == nil {
			v = &obs.VeneerCoverage{Op: op}
			veneers[op] = v
		}
		return v
	}
	for i, n := range res.Stats.Glue.VeneersByOp {
		if n > 0 {
			veneer(string(glue.VeneerOps[i])).Injected = n
		}
	}

	// Structure pass: every distinct plan node surviving in the final
	// table (or on the chosen plan) counts once toward its origin's
	// Retained; the chosen plan's derivation chain counts toward Winner.
	credit := func(n *plan.Node, winner bool) {
		if n.Origin == "Glue" {
			v := veneer(string(n.Op))
			if winner {
				v.Winner++
			} else {
				v.Retained++
			}
		} else if c := altOf(n.Origin); c != nil {
			if winner {
				c.Winner++
			} else {
				c.Retained++
			}
		}
	}
	seen := res.spaces[0].covered
	retainedNodes(res, seen, func(n *plan.Node) { credit(n, false) })
	clear(seen)
	newNodes(res.Best, seen, func(n *plan.Node) { credit(n, true) })

	// Prune attribution: the victim's origin takes the hit, the
	// dominator's origin is named (Q: which alternative keeps beating
	// this one). Veneer victims have no alternative to charge.
	if res.Table != nil {
		res.Table.ForEachPrune(func(victim, dom string, n int64) {
			c := altOf(victim)
			if c == nil {
				return
			}
			c.Pruned += n
			if dom == "" {
				dom = "?"
			}
			if c.PrunedBy == nil {
				c.PrunedBy = map[string]int64{}
			}
			c.PrunedBy[dom] += n
		})
	}

	// Emit in repertoire definition order (then sorted veneer ops) and
	// publish the per-alternative counters — zero-valued ones included, so
	// aggregating registries expose the full series surface immediately.
	// Each event points at its tally, which is final from here on; the
	// exporters render it as text, nothing here does.
	reg := sink.Registry()
	reg.Counter("coverage_runs_total").Add(1)
	payloads := make([]obs.Tally, len(alts)+len(veneers))
	next := 0
	emit := func(t obs.Tally) {
		payloads[next] = t
		sink.Emit(payloads[next].Event()) //obsguard:ignore summary event every enabled sink keeps; once per alternative or veneer operator per run
		next++
	}
	stats := res.Stats.Star.Alts
	for _, name := range rules.Names() {
		slot := rules.AltSlot(name)
		for i, alt := range rules.Get(name).Alts {
			c := &alts[slot+i]
			c.Rule, c.Alt = name, i+1
			if slot+i < len(stats) {
				t := stats[slot+i]
				c.Fired, c.Rejected, c.Built = t.Fired, t.Rejected, t.Built
			}
			emit(obs.Tally{Alt: c})
			counters := alt.CoverageCounters()
			reg.Counter(counters[0]).Add(c.Fired)
			reg.Counter(counters[1]).Add(c.Retained)
			reg.Counter(counters[2]).Add(c.Winner)
		}
	}
	ops := make([]string, 0, len(veneers))
	for op := range veneers {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		v := veneers[op]
		emit(obs.Tally{Veneer: v})
		reg.Counter(`coverage_veneer_injected_total{op="` + op + `"}`).Add(v.Injected)
	}
}

// retainedNodes hands visit every distinct node of the plans res's final table
// retains and of its chosen plan, once each, deduping on seen (cleared first).
func retainedNodes(res *Result, seen map[uint64]bool, visit func(*plan.Node)) {
	clear(seen)
	res.Table.ForEachPlan(func(p *plan.Node) { newNodes(p, seen, visit) })
	newNodes(res.Best, seen, visit)
}

// newNodes hands visit every node of n's DAG (none when n is nil) whose ID
// seen lacks, adding it.
func newNodes(n *plan.Node, seen map[uint64]bool, visit func(*plan.Node)) {
	if n == nil || seen[n.ID()] {
		return
	}
	seen[n.ID()] = true
	visit(n)
	for _, in := range n.Inputs {
		newNodes(in, seen, visit)
	}
}
