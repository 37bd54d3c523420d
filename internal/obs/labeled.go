package obs

// Dimensional (labeled) metrics: the cost-attribution layer of the registry.
// A labeled metric is a family of children keyed by a small, fixed label set
// (e.g. semfeed_phase_ns{assignment,phase}). Prometheus-style dimensional
// metrics are an easy way to blow up a time-series database, so cardinality
// is bounded by construction:
//
//   - the label KEYS are fixed when the vec is created — callers cannot
//     invent dimensions at observation time;
//   - the number of live label-value SETS per vec is capped at
//     DefaultLabelCap. Once the cap is hit, observations
//     for new label sets are dropped and counted in
//     semfeed_labels_dropped_total, never silently;
//   - label values are expected to be low-cardinality identifiers
//     (assignment IDs, phase names, status classes), not request IDs.
//
// Request IDs still get into the exposition — as exemplars. Every labeled
// histogram bucket remembers the most recent trace ID that landed in it
// (ObserveExemplar), so a p99 spike on a dashboard links directly to one
// retrievable trace at /v1/trace/{id}.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultLabelCap bounds the live label-value sets of one labeled metric.
// 13 built-in assignments × 7 phases × a few status classes stays far below
// it; a runaway label (a bug interpolating user input into a label value)
// hits the cap instead of the time-series database.
const DefaultLabelCap = 256

// LabelsDroppedTotal counts observations dropped because their label set
// would have exceeded a vec's cardinality cap (or had the wrong arity).
var LabelsDroppedTotal = NewCounter("semfeed_labels_dropped_total",
	"Observations dropped by the label-cardinality cap of a dimensional metric.")

// labelVec is the shared child-management core of the labeled metric types.
type labelVec struct {
	name, help string
	keys       []string
	mu         sync.RWMutex
	children   map[string]int // joined label values -> index into order
	order      []*labelChild
}

// labelChild is one (values...) member of a labeled family. Only the fields
// the owning type uses are populated.
type labelChild struct {
	values []string
	v      atomic.Int64 // counter / gauge value

	// histogram state (nil for counters and gauges)
	buckets   []atomic.Int64
	count     atomic.Int64
	sumBits   atomic.Uint64
	exemplars []atomic.Pointer[Exemplar] // one slot per bucket, incl. +Inf
}

// Exemplar links one histogram bucket to a concrete trace: the most recent
// observation that landed in the bucket, with the trace ID that can retrieve
// its span breakdown.
type Exemplar struct {
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
}

func newLabelVec(name, help string, keys []string) *labelVec {
	if len(keys) == 0 {
		panic("obs: labeled metric " + name + " needs at least one label key")
	}
	return &labelVec{
		name: name, help: help, keys: keys,
		children: map[string]int{},
	}
}

// joinValues builds the child map key. 0x1f (unit separator) cannot appear
// in reasonable label values; even if it did, the worst case is two label
// sets sharing a child, never a panic.
func joinValues(values []string) string { return strings.Join(values, "\x1f") }

// child returns the child for values, creating it under the cap. A nil
// return means the observation must be dropped (arity mismatch or cap hit);
// the caller has already been counted in LabelsDroppedTotal.
func (v *labelVec) child(values []string, histBuckets int) *labelChild {
	if len(values) != len(v.keys) {
		LabelsDroppedTotal.Add(1)
		return nil
	}
	key := joinValues(values)
	v.mu.RLock()
	idx, ok := v.children[key]
	var c *labelChild
	if ok {
		c = v.order[idx]
	}
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if idx, ok = v.children[key]; ok {
		return v.order[idx]
	}
	if len(v.order) >= DefaultLabelCap {
		LabelsDroppedTotal.Add(1)
		return nil
	}
	c = &labelChild{values: append([]string(nil), values...)}
	if histBuckets > 0 {
		c.buckets = make([]atomic.Int64, histBuckets)
		c.exemplars = make([]atomic.Pointer[Exemplar], histBuckets)
	}
	v.children[key] = len(v.order)
	v.order = append(v.order, c)
	return c
}

// snapshotChildren returns the children sorted by label values for stable
// exposition.
func (v *labelVec) snapshotChildren() []*labelChild {
	v.mu.RLock()
	out := make([]*labelChild, len(v.order))
	copy(out, v.order)
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		return joinValues(out[i].values) < joinValues(out[j].values)
	})
	return out
}

// reset drops every child (Registry.Reset: tests and smoke runs).
func (v *labelVec) reset() {
	v.mu.Lock()
	v.children = map[string]int{}
	v.order = nil
	v.mu.Unlock()
}

// labelPairs renders {k1="v1",k2="v2"} for exposition, with extra appended
// verbatim (the le="..." bound of histogram buckets).
func (v *labelVec) labelPairs(c *labelChild, extra string) string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range v.keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteString("=\"")
		sb.WriteString(escapeLabelValue(c.values[i]))
		sb.WriteByte('"')
	}
	if extra != "" {
		sb.WriteByte(',')
		sb.WriteString(extra)
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabelValue applies the Prometheus text-format escapes.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// ---------------------------------------------------------------------------
// LabeledCounter

// LabeledCounter is a counter family keyed by a fixed label set. The
// aggregate across all children (including capped-out observations) is
// tracked separately so Snapshot can report a truthful total under the bare
// metric name.
type LabeledCounter struct {
	vec   *labelVec
	total atomic.Int64
}

// NewLabeledCounter registers a labeled counter in the default registry.
func NewLabeledCounter(name, help string, keys ...string) *LabeledCounter {
	return Default.NewLabeledCounter(name, help, keys...)
}

// NewLabeledCounter registers a labeled counter.
func (r *Registry) NewLabeledCounter(name, help string, keys ...string) *LabeledCounter {
	c := &LabeledCounter{vec: newLabelVec(name, help, keys)}
	r.mu.Lock()
	r.labeledCounters = append(r.labeledCounters, c)
	r.mu.Unlock()
	return c
}

// Add increments the child for the given label values by n when collection
// is enabled. values must match the vec's label keys in number and order.
func (c *LabeledCounter) Add(n int64, values ...string) {
	if !enabled.Load() {
		return
	}
	c.total.Add(n)
	if ch := c.vec.child(values, 0); ch != nil {
		ch.v.Add(n)
	}
}

// Inc increments the child for the given label values by one.
func (c *LabeledCounter) Inc(values ...string) { c.Add(1, values...) }

// Value returns the child's accumulated count (0 for an unseen label set).
func (c *LabeledCounter) Value(values ...string) int64 {
	c.vec.mu.RLock()
	defer c.vec.mu.RUnlock()
	if idx, ok := c.vec.children[joinValues(values)]; ok {
		return c.vec.order[idx].v.Load()
	}
	return 0
}

// Total returns the aggregate across every label set, including
// observations whose label set was dropped at the cap.
func (c *LabeledCounter) Total() int64 { return c.total.Load() }

// Name returns the registered family name.
func (c *LabeledCounter) Name() string { return c.vec.name }

// ---------------------------------------------------------------------------
// LabeledGauge

// LabeledGauge is a gauge family keyed by a fixed label set (e.g.
// semfeed_build_info{revision,go_version} 1).
type LabeledGauge struct {
	vec *labelVec
}

// NewLabeledGauge registers a labeled gauge in the default registry.
func NewLabeledGauge(name, help string, keys ...string) *LabeledGauge {
	return Default.NewLabeledGauge(name, help, keys...)
}

// NewLabeledGauge registers a labeled gauge.
func (r *Registry) NewLabeledGauge(name, help string, keys ...string) *LabeledGauge {
	g := &LabeledGauge{vec: newLabelVec(name, help, keys)}
	r.mu.Lock()
	r.labeledGauges = append(r.labeledGauges, g)
	r.mu.Unlock()
	return g
}

// Set stores an absolute value for the given label values when collection is
// enabled.
func (g *LabeledGauge) Set(n int64, values ...string) {
	if !enabled.Load() {
		return
	}
	if ch := g.vec.child(values, 0); ch != nil {
		ch.v.Store(n)
	}
}

// Add moves the child gauge by n when collection is enabled.
func (g *LabeledGauge) Add(n int64, values ...string) {
	if !enabled.Load() {
		return
	}
	if ch := g.vec.child(values, 0); ch != nil {
		ch.v.Add(n)
	}
}

// Value returns the child's value (0 for an unseen label set).
func (g *LabeledGauge) Value(values ...string) int64 {
	g.vec.mu.RLock()
	defer g.vec.mu.RUnlock()
	if idx, ok := g.vec.children[joinValues(values)]; ok {
		return g.vec.order[idx].v.Load()
	}
	return 0
}

// Name returns the registered family name.
func (g *LabeledGauge) Name() string { return g.vec.name }

// ---------------------------------------------------------------------------
// LabeledHistogram

// LabeledHistogram is a histogram family keyed by a fixed label set, with
// per-bucket exemplars: each bucket remembers the most recent trace ID that
// landed in it, so a latency spike links to a retrievable trace.
type LabeledHistogram struct {
	vec    *labelVec
	bounds []float64
}

// NewLabeledHistogram registers a labeled histogram in the default registry.
// A nil bounds slice applies DurationBuckets.
func NewLabeledHistogram(name, help string, bounds []float64, keys ...string) *LabeledHistogram {
	return Default.NewLabeledHistogram(name, help, bounds, keys...)
}

// NewLabeledHistogram registers a labeled histogram. A nil bounds slice
// applies DurationBuckets.
func (r *Registry) NewLabeledHistogram(name, help string, bounds []float64, keys ...string) *LabeledHistogram {
	if bounds == nil {
		bounds = DurationBuckets
	}
	h := &LabeledHistogram{vec: newLabelVec(name, help, keys), bounds: bounds}
	r.mu.Lock()
	r.labeledHistograms = append(r.labeledHistograms, h)
	r.mu.Unlock()
	return h
}

// Observe records one value for the given label values.
func (h *LabeledHistogram) Observe(v float64, values ...string) {
	h.ObserveExemplar(v, "", values...)
}

// ObserveDuration records a duration in seconds.
func (h *LabeledHistogram) ObserveDuration(d time.Duration, values ...string) {
	h.ObserveExemplar(d.Seconds(), "", values...)
}

// ObserveExemplar records one value and, when traceID is non-empty, stamps
// it as the bucket's exemplar. The trace ID is the /v1/trace/{id} retrieval
// key, so the exposition links percentile buckets to concrete traces.
func (h *LabeledHistogram) ObserveExemplar(v float64, traceID string, values ...string) {
	if !enabled.Load() {
		return
	}
	ch := h.vec.child(values, len(h.bounds)+1)
	if ch == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	ch.buckets[i].Add(1)
	ch.count.Add(1)
	for {
		old := ch.sumBits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if ch.sumBits.CompareAndSwap(old, upd) {
			break
		}
	}
	if traceID != "" {
		ch.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

// Count returns the child's observation count (0 for an unseen label set).
func (h *LabeledHistogram) Count(values ...string) int64 {
	h.vec.mu.RLock()
	defer h.vec.mu.RUnlock()
	if idx, ok := h.vec.children[joinValues(values)]; ok {
		return h.vec.order[idx].count.Load()
	}
	return 0
}

// Name returns the registered family name.
func (h *LabeledHistogram) Name() string { return h.vec.name }

// ExemplarRef is one bucket→trace link, as surfaced on /statusz.
type ExemplarRef struct {
	Metric  string  `json:"metric"`
	Labels  string  `json:"labels"`
	LE      string  `json:"le"`
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
}

// exemplarRefs collects the live exemplars of one labeled histogram.
func (h *LabeledHistogram) exemplarRefs() []ExemplarRef {
	var out []ExemplarRef
	for _, ch := range h.vec.snapshotChildren() {
		for i := range ch.exemplars {
			ex := ch.exemplars[i].Load()
			if ex == nil {
				continue
			}
			out = append(out, ExemplarRef{
				Metric:  h.vec.name,
				Labels:  h.vec.labelPairs(ch, ""),
				LE:      leBound(h.bounds, i),
				TraceID: ex.TraceID,
				Value:   ex.Value,
			})
		}
	}
	return out
}

// leBound renders bucket i's upper bound ("+Inf" for the overflow bucket).
func leBound(bounds []float64, i int) string {
	if i >= len(bounds) {
		return "+Inf"
	}
	return strconv.FormatFloat(bounds[i], 'g', -1, 64)
}

// aggregate folds every child into one (count, sum, merged buckets) for the
// bare-name snapshot entry.
func (h *LabeledHistogram) aggregate() (count int64, sum float64, buckets []int64) {
	buckets = make([]int64, len(h.bounds)+1)
	for _, ch := range h.vec.snapshotChildren() {
		count += ch.count.Load()
		sum += math.Float64frombits(ch.sumBits.Load())
		for i := range ch.buckets {
			buckets[i] += ch.buckets[i].Load()
		}
	}
	return count, sum, buckets
}

// Quantile estimates the q-quantile across all children.
func (h *LabeledHistogram) Quantile(q float64) float64 {
	_, _, buckets := h.aggregate()
	return bucketQuantile(h.bounds, buckets, q)
}

// ---------------------------------------------------------------------------
// Exposition

// writeProm emits the labeled counter in text format.
func (c *LabeledCounter) writeProm(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", c.vec.name, c.vec.help, c.vec.name); err != nil {
		return err
	}
	for _, ch := range c.vec.snapshotChildren() {
		if _, err := fmt.Fprintf(w, "%s%s %d\n", c.vec.name, c.vec.labelPairs(ch, ""), ch.v.Load()); err != nil {
			return err
		}
	}
	return nil
}

// writeProm emits the labeled gauge in text format.
func (g *LabeledGauge) writeProm(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.vec.name, g.vec.help, g.vec.name); err != nil {
		return err
	}
	for _, ch := range g.vec.snapshotChildren() {
		if _, err := fmt.Fprintf(w, "%s%s %d\n", g.vec.name, g.vec.labelPairs(ch, ""), ch.v.Load()); err != nil {
			return err
		}
	}
	return nil
}

// writeProm emits the labeled histogram in text format. Exemplars ride along
// as comments (the 0.0.4 text format predates OpenMetrics exemplar syntax;
// comments are ignored by every parser while staying greppable):
//
//	# exemplar semfeed_server_request_seconds_bucket{assignment="a1",status="2xx",le="0.005"} trace_id="d24865dd6d3027b7" value=0.0041
func (h *LabeledHistogram) writeProm(w io.Writer) error {
	name := h.vec.name
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, h.vec.help, name); err != nil {
		return err
	}
	for _, ch := range h.vec.snapshotChildren() {
		var cum int64
		for i := 0; i <= len(h.bounds); i++ {
			cum += ch.buckets[i].Load()
			le := "le=\"" + leBound(h.bounds, i) + "\""
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, h.vec.labelPairs(ch, le), cum); err != nil {
				return err
			}
			if ex := ch.exemplars[i].Load(); ex != nil {
				if _, err := fmt.Fprintf(w, "# exemplar %s_bucket%s trace_id=%q value=%g\n",
					name, h.vec.labelPairs(ch, le), ex.TraceID, ex.Value); err != nil {
					return err
				}
			}
		}
		plain := h.vec.labelPairs(ch, "")
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n",
			name, plain, math.Float64frombits(ch.sumBits.Load()), name, plain, ch.count.Load()); err != nil {
			return err
		}
	}
	return nil
}
