package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// AltCoverage is the per-run fate of one STAR alternative, the typed payload
// of one EvAltCoverage event. The optimizer emits one per alternative of the
// active repertoire at the end of every observed run; coverage consumers
// (starburst cover, the serve ledger, starbench -coverage) read the tally the
// event points at instead of re-deriving the attribution.
type AltCoverage struct {
	// Rule is the STAR's name; Alt the 1-based alternative ordinal.
	Rule string
	Alt  int
	// Fired counts condition-held firings; Rejected condition failures.
	Fired, Rejected int64
	// Built is the number of plans the alternative's body produced.
	Built int64
	// Retained counts distinct plan nodes with this origin surviving in
	// the final plan table; Pruned counts dominance decisions against
	// plans with this origin; Winner counts distinct nodes with this
	// origin on the chosen plan's derivation chain.
	Retained, Pruned, Winner int64
	// PrunedBy attributes prune decisions to the dominating plan's origin
	// ("JMeth#2", "Glue", ...).
	PrunedBy map[string]int64
}

// VeneerCoverage is the per-run fate of one Glue veneer operator (SHIP,
// SORT, STORE, BUILDINDEX, ...), the typed payload of one EvVeneerCoverage
// event.
type VeneerCoverage struct {
	// Op is the LOLEPOP name.
	Op string
	// Injected counts veneer injections; Retained distinct surviving
	// veneer nodes of this operator; Winner those on the chosen chain.
	Injected, Retained, Winner int64
}

// Tally is the payload a coverage summary event points at (Event.Tally):
// one alternative's tallies, or — when Alt is nil — one veneer operator's.
// The tallies are shared, not copied, so nothing may change them once their
// event is emitted.
type Tally struct {
	Alt    *AltCoverage
	Veneer *VeneerCoverage
}

// Event returns the coverage summary event carrying t.
func (t *Tally) Event() Event {
	if c := t.Alt; c != nil {
		return Event{Name: EvAltCoverage, A1: c.Rule, N1: int64(c.Alt), Tally: t}
	}
	return Event{Name: EvVeneerCoverage, A1: t.Veneer.Op, Tally: t}
}

// text renders the tallies as the a2/a3 payload the exporters show:
// "fired=... rejected=... built=... retained=... pruned=... winner=..." and
// the packed dominator attribution for an alternative,
// "injected=... retained=... winner=..." for a veneer operator.
func (t *Tally) text() (a2, a3 string) {
	if c := t.Alt; c != nil {
		return fmt.Sprintf("fired=%d rejected=%d built=%d retained=%d pruned=%d winner=%d",
			c.Fired, c.Rejected, c.Built, c.Retained, c.Pruned, c.Winner), packOrigins(c.PrunedBy)
	}
	v := t.Veneer
	return fmt.Sprintf("injected=%d retained=%d winner=%d", v.Injected, v.Retained, v.Winner), ""
}

// packOrigins renders an origin->count attribution map deterministically
// (sorted by origin, "origin:count ..."), so coverage events export
// byte-equal across runs and parallelism levels. Empty and nil maps render
// as "".
func packOrigins(m map[string]int64) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(k)
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(m[k], 10))
	}
	return b.String()
}
