package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics. Metric names may carry a literal label set
// in curly braces (`star_rule_seconds{name="JoinRoot"}`); the Prometheus
// writer splices extra labels (histogram `le`) into it. All methods are
// safe on a nil registry and for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	fgauges  map[string]*FloatGauge
	histos   map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		fgauges:  map[string]*FloatGauge{},
		histos:   map[string]*Histogram{},
	}
}

// Counter is a monotonically increasing int64. The nil counter discards.
type Counter struct {
	v atomic.Int64
	// named reports a Registry.Counter lookup since the counter was made
	// or its registry last Reset: what Counters lists.
	named atomic.Bool
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64. The nil gauge discards.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is a settable float64 for readings with fractional precision
// (Q-error quantiles, coverage ratios). The nil float gauge discards.
type FloatGauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *FloatGauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 for nil).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the fixed log-scale bucket layout every duration histogram
// shares: upper bounds of 1µs·2^i for i = 0..25 (1µs .. ~33.6s), plus +Inf.
// A fixed layout keeps Observe allocation-free and histograms mergeable.
const histBuckets = 26

// bucketBound returns bucket i's upper bound.
func bucketBound(i int) time.Duration { return time.Microsecond << uint(i) }

// bucketFor returns the index of the first bucket whose bound is >= d.
func bucketFor(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	us := uint64(d) / uint64(time.Microsecond)
	// ceil(log2(us)): position of the highest set bit, +1 unless a power
	// of two.
	idx := 0
	for b := us; b > 1; b >>= 1 {
		idx++
	}
	if us&(us-1) != 0 {
		idx++
	}
	if idx >= histBuckets {
		return histBuckets // overflow -> +Inf bucket
	}
	return idx
}

// Histogram is a fixed log-scale duration histogram. The nil histogram
// discards.
type Histogram struct {
	mu     sync.Mutex
	counts [histBuckets + 1]int64 // +1 = the +Inf bucket
	sum    time.Duration
	n      int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	i := bucketFor(d)
	h.mu.Lock()
	h.counts[i]++
	h.sum += d
	h.n++
	h.mu.Unlock()
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the total observed duration (0 for nil).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// reset empties the histogram.
func (h *Histogram) reset() {
	h.mu.Lock()
	h.counts, h.sum, h.n = [histBuckets + 1]int64{}, 0, 0
	h.mu.Unlock()
}

// snapshot copies the bucket state under the lock.
func (h *Histogram) snapshot() (counts [histBuckets + 1]int64, sum time.Duration, n int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.counts, h.sum, h.n
}

// addSnapshot folds another histogram's snapshot into h — sound because
// every histogram shares the fixed bucket layout.
func (h *Histogram) addSnapshot(counts [histBuckets + 1]int64, sum time.Duration, n int64) {
	h.mu.Lock()
	for i := range h.counts {
		h.counts[i] += counts[i]
	}
	h.sum += sum
	h.n += n
	h.mu.Unlock()
}

// Counter returns (creating on first use) the named counter; nil registry
// returns the nil counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := getOrCreate(r, r.counters, name)
	if !c.named.Load() {
		c.named.Store(true)
	}
	return c
}

// getOrCreate returns the series m holds under name, creating it under r's
// write lock on first use.
func getOrCreate[T any](r *Registry, m map[string]*T, name string) *T {
	r.mu.RLock()
	v := m[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = m[name]; v == nil {
		v = new(T)
		m[name] = v
	}
	return v
}

// Counters snapshots every counter's current value by name. Nil registry
// returns an empty map. Two snapshots bracket a unit of work; their
// per-name deltas attribute the registry's monotonic totals to it. After a
// Reset it lists only the counters looked up or moved since, as a new
// registry would.
func (r *Registry) Counters() map[string]int64 {
	out := map[string]int64{}
	if r == nil {
		return out
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		if v := c.Value(); v != 0 || c.named.Load() {
			out[name] = v
		}
	}
	return out
}

// Reset zeroes every series and keeps it, so a registry reused for the next
// unit of work looks its series up again without allocating. A Merge of the
// reset registry into one that already holds its series adds no series
// there; Counters lists a counter again once it is looked up or moved.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.v.Store(0)
		c.named.Store(false)
	}
	for _, g := range r.gauges {
		g.Set(0)
	}
	for _, g := range r.fgauges {
		g.Set(0)
	}
	for _, h := range r.histos {
		h.reset()
	}
}

// Merge folds another registry's counters and histograms into r, by name —
// how a server aggregates per-request registries into its process-wide one
// while keeping each request's metrics isolated. Counters add; histograms
// merge bucket-wise (the fixed layout makes that exact). Gauges are
// point-in-time readings with no meaningful cross-request sum and are
// skipped. It folds straight from o, under o's read lock, looking up each
// series of r as Counter and Histogram do (r's read lock per series, its write
// lock only to create one), so a fold of series r already holds allocates
// nothing and other users of r wait for no more than one lookup. Because it
// holds o's lock while taking r's, a merge of r into o must not run at the
// same time: Sink.Absorb and serve fold a child registry into its parent,
// never the reverse. A nil receiver or source, or o == r, is a no-op.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil || r == o {
		return
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	for name, c := range o.counters {
		r.Counter(name).Add(c.Value())
	}
	for name, h := range o.histos {
		counts, sum, n := h.snapshot()
		r.Histogram(name).addSnapshot(counts, sum, n)
	}
}

// FloatGauge returns (creating on first use) the named float gauge. Like
// int gauges, float gauges are point-in-time readings and are skipped by
// Merge.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.fgauges, name)
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.gauges, name)
}

// Histogram returns (creating on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.histos, name)
}

// splitName separates a metric name from its literal label block:
// `x_seconds{name="R"}` -> ("x_seconds", `name="R"`).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// joinLabels merges two label blocks into a rendered {..} suffix.
func joinLabels(a, b string) string {
	switch {
	case a == "" && b == "":
		return ""
	case a == "":
		return "{" + b + "}"
	case b == "":
		return "{" + a + "}"
	default:
		return "{" + a + "," + b + "}"
	}
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (types: counter, gauge, histogram), sorted by name for stable
// output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	counterNames := sortedKeys(r.counters)
	gaugeNames := sortedKeys(r.gauges)
	fgaugeNames := sortedKeys(r.fgauges)
	histoNames := sortedKeys(r.histos)
	r.mu.RUnlock()

	typed := map[string]bool{}
	for _, name := range counterNames {
		base, labels := splitName(name)
		if !typed[base] {
			typed[base] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", base); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", base, joinLabels(labels, ""), r.Counter(name).Value()); err != nil {
			return err
		}
	}
	for _, name := range gaugeNames {
		base, labels := splitName(name)
		if !typed[base] {
			typed[base] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", base); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", base, joinLabels(labels, ""), r.Gauge(name).Value()); err != nil {
			return err
		}
	}
	for _, name := range fgaugeNames {
		base, labels := splitName(name)
		if !typed[base] {
			typed[base] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", base); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", base, joinLabels(labels, ""),
			formatSeconds(r.FloatGauge(name).Value())); err != nil {
			return err
		}
	}
	for _, name := range histoNames {
		base, labels := splitName(name)
		if !typed[base] {
			typed[base] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", base); err != nil {
				return err
			}
		}
		counts, sum, n := r.Histogram(name).snapshot()
		cum := int64(0)
		for i := 0; i <= histBuckets; i++ {
			cum += counts[i]
			le := "+Inf"
			if i < histBuckets {
				le = formatSeconds(bucketBound(i).Seconds())
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				base, joinLabels(labels, `le="`+le+`"`), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, joinLabels(labels, ""),
			formatSeconds(sum.Seconds())); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, joinLabels(labels, ""), n); err != nil {
			return err
		}
	}
	return nil
}

// formatSeconds renders a seconds value without exponent noise for the
// common microsecond..second magnitudes.
func formatSeconds(s float64) string {
	if s == math.Trunc(s) {
		return fmt.Sprintf("%.0f", s)
	}
	return fmt.Sprintf("%g", s)
}

// sortedKeys lists a series map's names in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
