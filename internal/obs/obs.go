// Package obs is the runtime observability layer of the Fed-MS stack:
// race-free, allocation-lean counters, gauges and fixed-bucket
// histograms collected in a Registry exportable in Prometheus text
// format, plus a bounded structured per-round event trace (trace.go)
// exportable as JSONL.
//
// The layer is built around one hard constraint, contract-tested by
// the runtime packages (TestObsDeterminism*): observation must never
// perturb what it observes. Seeded chaos and parity runs stay
// bit-identical with observability enabled. Three rules make that
// hold:
//
//   - No time-dependent control flow. Collectors record; they never
//     decide. Wall-clock measurements feed histograms and traces but
//     no branch in the protocol reads them back.
//   - Hooks stay off the hot path. Counter updates are single atomic
//     adds placed next to the stats they mirror; trace events are
//     emitted once per round, not per frame.
//   - The disabled path is a branch. Every collector method is a
//     no-op on a nil receiver, and a nil *Registry hands out nil
//     collectors, so unconfigured observability costs one predictable
//     nil check per observation and allocates nothing.
//
// Metric names bake their labels in at registration time (for example
// `fedms_ps_rounds_served_total{ps="0"}`), which keeps the per-
// observation path free of label hashing: a metric is one atomic
// word, found once at setup.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. All methods are safe
// for concurrent use and are no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n. Negative deltas are ignored: a counter only goes up.
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// SetMax raises the gauge to n when n is larger, keeping a high-water
// mark.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Add moves the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: bucket i counts observations v <= bounds[i], with an
// implicit +Inf bucket at the end. Buckets are fixed at registration
// so Observe is two atomic adds and a CAS loop for the sum — no
// allocation, no lock.
type Histogram struct {
	bounds []float64      // ascending upper bounds, exclusive of +Inf
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// DurationBuckets are the default latency bounds, in seconds, used by
// the runtime's wait/stage histograms: 100µs up to ~100s.
var DurationBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// Observe records one sample. Non-finite samples are dropped: a NaN
// would poison the sum and cannot be exported.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; +Inf bucket if none
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Registry holds named collectors and renders them in Prometheus text
// exposition format. Names carry their labels baked in, e.g.
// `fedms_ps_bytes_in_total{ps="0"}`; registering the same full name
// twice returns the same collector, so independent subsystems can
// share one registry without coordination. A nil *Registry is valid:
// it hands out nil collectors whose methods are no-ops.
type Registry struct {
	mu    sync.Mutex
	ctrs  map[string]*Counter
	gaus  map[string]*Gauge
	hists map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:  make(map[string]*Counter),
		gaus:  make(map[string]*Gauge),
		hists: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Returns nil (a valid no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Returns nil (a valid no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gaus[name]
	if !ok {
		g = &Gauge{}
		r.gaus[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name with the
// given ascending bucket bounds, creating it on first use. Later
// calls with the same name return the existing histogram regardless
// of bounds. Returns nil (a valid no-op histogram) on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			bounds = DurationBuckets
		}
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// family splits a full metric name into its family (the name without
// labels) and the label block including braces ("" if unlabelled).
func family(name string) (fam, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// mergeLabels splices an extra label (e.g. `le="0.5"`) into a label
// block, producing `{a="1",le="0.5"}` from `{a="1"}`.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func fmtFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered collector in Prometheus
// text exposition format (version 0.0.4), grouped by family and
// sorted by name so the output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type sample struct{ name, line string }
	fams := map[string]struct {
		kind    string
		samples []sample
	}{}
	addSample := func(name, kind, line string) {
		fam, _ := family(name)
		f := fams[fam]
		f.kind = kind
		f.samples = append(f.samples, sample{name, line})
		fams[fam] = f
	}

	r.mu.Lock()
	for name, c := range r.ctrs {
		addSample(name, "counter", fmt.Sprintf("%s %d\n", name, c.Value()))
	}
	for name, g := range r.gaus {
		addSample(name, "gauge", fmt.Sprintf("%s %d\n", name, g.Value()))
	}
	for name, h := range r.hists {
		fam, labels := family(name)
		var b strings.Builder
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(&b, "%s_bucket%s %d\n", fam, mergeLabels(labels, `le="`+fmtFloat(bound)+`"`), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(&b, "%s_bucket%s %d\n", fam, mergeLabels(labels, `le="+Inf"`), cum)
		fmt.Fprintf(&b, "%s_sum%s %s\n", fam, labels, fmtFloat(h.Sum()))
		fmt.Fprintf(&b, "%s_count%s %d\n", fam, labels, h.Count())
		addSample(name, "histogram", b.String())
	}
	r.mu.Unlock()

	names := make([]string, 0, len(fams))
	for fam := range fams {
		names = append(names, fam)
	}
	sort.Strings(names)
	for _, fam := range names {
		f := fams[fam]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, f.kind); err != nil {
			return err
		}
		sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].name < f.samples[j].name })
		for _, s := range f.samples {
			if _, err := io.WriteString(w, s.line); err != nil {
				return err
			}
		}
	}
	return nil
}

// ServeHTTP serves the registry in Prometheus text format, so a
// *Registry can be mounted directly at /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}
