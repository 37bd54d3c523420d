package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpansPerTrace bounds one trace's span buffer so a 720-binding
// combination search cannot grow a trace without bound; excess spans are
// counted in TraceSpansDroppedTotal and on the trace itself.
const maxSpansPerTrace = 2048

// defaultTraceCapacity is how many completed traces the store retains.
const defaultTraceCapacity = 256

// defaultSlowThreshold marks a trace "slow" for tail retention; the grading
// p50 is single-digit milliseconds, so 100ms is deep in the tail.
const defaultSlowThreshold = 100 * time.Millisecond

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanData is one completed span.
type SpanData struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"` // -1 for the root
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// TraceData is one recorded trace: the completed spans of a single root
// operation (e.g. one Grader.Grade call), linked by parent IDs.
type TraceData struct {
	// ID is the trace's retrieval key (the request ID on the serving path;
	// a generated sequence number otherwise).
	ID   string `json:"id"`
	Name string `json:"name"`
	// Outcome classifies the root operation: "" / "ok", or an anomaly
	// ("error", "timeout", "canceled", "shed") that forces tail retention.
	Outcome string `json:"outcome,omitempty"`
	// Retained records why the store kept the trace: "tail" (anomalous or
	// slow — evicted last) or "sampled" (a normal trace — evicted first).
	Retained string `json:"retained,omitempty"`
	// TraceParent is the W3C traceparent the request arrived with, when the
	// caller propagated one — the join key across process boundaries.
	TraceParent string        `json:"traceparent,omitempty"`
	Start       time.Time     `json:"start"`
	Duration    time.Duration `json:"duration_ns"`
	Spans       []SpanData    `json:"spans"`
	Dropped     int           `json:"dropped,omitempty"`
}

// trace accumulates spans while the root span is open.
type trace struct {
	mu          sync.Mutex
	name        string
	id          string
	outcome     string
	traceParent string
	nextID      int
	spans       []SpanData
	dropped     int
}

// Span is an in-flight span. A nil *Span is a valid no-op (the disabled
// path), so callers never branch on whether tracing is on.
type Span struct {
	t      *trace
	id     int
	parent int
	name   string
	start  time.Time
	attrs  []Attr
}

// StartTrace opens a new trace and returns its root span, or nil when
// tracing is disabled. Ending the root span seals the trace and offers it to
// the trace store.
func StartTrace(name string) *Span {
	if !tracing.Load() {
		return nil
	}
	t := &trace{name: name, nextID: 1}
	return &Span{t: t, id: 0, parent: -1, name: name, start: time.Now()}
}

// Child opens a sub-span. Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	id := s.t.nextID
	s.t.nextID++
	s.t.mu.Unlock()
	return &Span{t: s.t, id: id, parent: s.id, name: name, start: time.Now()}
}

// SetAttr annotates the span. Nil-safe.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetAttrInt annotates the span with an integer value. Nil-safe.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: strconv.FormatInt(v, 10)})
}

// SetTraceID names the whole trace for retrieval (TraceByID, /v1/trace/{id}).
// The serving path passes the request ID so trace, log line and report all
// correlate. Nil-safe; may be called on any span of the trace.
func (s *Span) SetTraceID(id string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.t.id = id
	s.t.mu.Unlock()
}

// SetOutcome classifies the trace ("ok", "error", "timeout", "canceled",
// "shed"). Any value other than "" or "ok" makes the trace tail-retained.
// Nil-safe.
func (s *Span) SetOutcome(outcome string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.t.outcome = outcome
	s.t.mu.Unlock()
}

// SetRemoteParent records the W3C traceparent this trace was started under
// (the inbound header on the serving path), so an exported trace can be
// joined with its cross-process parent. Nil-safe.
func (s *Span) SetRemoteParent(traceparent string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.t.traceParent = traceparent
	s.t.mu.Unlock()
}

// RecordChild adds an already-measured child span under s: a summary span
// for work that was aggregated outside the tracer (e.g. the total constraint
// time accumulated across a binding sweep). Nil-safe.
func (s *Span) RecordChild(name string, start time.Time, d time.Duration, attrs ...Attr) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if len(s.t.spans) >= maxSpansPerTrace {
		s.t.dropped++
		return
	}
	id := s.t.nextID
	s.t.nextID++
	s.t.spans = append(s.t.spans, SpanData{
		ID: id, Parent: s.id, Name: name,
		Start: start, Duration: d, Attrs: attrs,
	})
}

// End completes the span. Ending the root span seals the trace and offers it
// to the store. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.t.mu.Lock()
	if len(s.t.spans) < maxSpansPerTrace {
		s.t.spans = append(s.t.spans, SpanData{
			ID: s.id, Parent: s.parent, Name: s.name,
			Start: s.start, Duration: d, Attrs: s.attrs,
		})
	} else {
		s.t.dropped++
	}
	root := s.parent == -1
	var td *TraceData
	if root {
		td = &TraceData{
			ID:          s.t.id,
			Name:        s.t.name,
			Outcome:     s.t.outcome,
			TraceParent: s.t.traceParent,
			Start:       s.start,
			Spans:       append([]SpanData(nil), s.t.spans...),
			Dropped:     s.t.dropped,
		}
		td.Duration = d
	}
	s.t.mu.Unlock()
	if root {
		TraceSpansDroppedTotal.Add(int64(td.Dropped))
		store.record(td)
		// Export after record so the fallback ID and retention class are
		// stamped; every completed trace is exported, retained or not.
		exportTrace(td)
	}
}

// Tree renders the trace as an indented span tree for humans:
//
//	grade/assignment1 1.2ms
//	  build_epdg 310µs methods=1 nodes=14 edges=21
//	  binding 850µs score=5
//	    match:seq-odd-access 220µs embeddings=1 steps=48
func (t *TraceData) Tree() string {
	children := map[int][]int{}
	byID := map[int]int{} // span ID -> index in t.Spans
	for i, s := range t.Spans {
		byID[s.ID] = i
		children[s.Parent] = append(children[s.Parent], i)
	}
	for _, idxs := range children {
		sort.Slice(idxs, func(a, b int) bool {
			return t.Spans[idxs[a]].Start.Before(t.Spans[idxs[b]].Start)
		})
	}
	var sb strings.Builder
	if t.ID != "" {
		fmt.Fprintf(&sb, "trace %s", t.ID)
		if t.Outcome != "" {
			sb.WriteString(" outcome=" + t.Outcome)
		}
		if t.TraceParent != "" {
			sb.WriteString(" traceparent=" + t.TraceParent)
		}
		sb.WriteByte('\n')
	}
	var walk func(idx, depth int)
	walk = func(idx, depth int) {
		s := t.Spans[idx]
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(s.Name)
		fmt.Fprintf(&sb, " %v", s.Duration.Round(time.Microsecond))
		for _, a := range s.Attrs {
			sb.WriteString(" " + a.Key + "=" + a.Value)
		}
		sb.WriteByte('\n')
		for _, c := range children[s.ID] {
			walk(c, depth+1)
		}
	}
	// Roots are spans whose parent is not in the trace (normally just -1).
	for i, s := range t.Spans {
		if _, ok := byID[s.Parent]; !ok {
			walk(i, 0)
		}
	}
	if t.Dropped > 0 {
		fmt.Fprintf(&sb, "(+%d spans dropped at the %d-span cap)\n", t.Dropped, maxSpansPerTrace)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Trace store
//
// The store replaces the earlier blind ring recorder, which overwrote
// completed traces with no accounting and no retrieval beyond "the latest".
// Retention is tail-biased, the policy production tracing systems converge
// on: anomalous traces (error/timeout/canceled/shed outcome) and slow traces
// (duration >= slow threshold) are "tail" traces; every other trace is kept
// as "sampled" (the name /v1/trace clients already read). Capacity is
// bounded; eviction takes the oldest sampled trace and touches tail traces
// only when nothing else is left. Every evicted trace counts in
// TracesDroppedTotal (distinct from TraceSpansDroppedTotal, which counts
// spans inside one oversized trace).

type traceStore struct {
	mu            sync.Mutex
	capacity      int
	slowThreshold time.Duration
	traces        []*TraceData          // insertion order, oldest first
	index         map[string]*TraceData // ID -> trace, for /v1/trace/{id}
	last          *TraceData            // most recently completed, even if evicted
	seq           atomic.Uint64         // fallback IDs for traces without one
}

var store = newTraceStore()

func newTraceStore() *traceStore {
	return &traceStore{
		capacity:      defaultTraceCapacity,
		slowThreshold: defaultSlowThreshold,
		index:         map[string]*TraceData{},
	}
}

// tail reports whether td must always be retained.
func (st *traceStore) tail(td *TraceData) bool {
	if td.Outcome != "" && td.Outcome != "ok" {
		return true
	}
	return td.Duration >= st.slowThreshold
}

func (st *traceStore) record(td *TraceData) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if td.ID == "" {
		td.ID = "t" + strconv.FormatUint(st.seq.Add(1), 10)
	}
	st.last = td
	if st.tail(td) {
		td.Retained = "tail"
	} else {
		td.Retained = "sampled"
	}
	st.traces = append(st.traces, td)
	st.index[td.ID] = td
	for len(st.traces) > st.capacity {
		st.evictLocked()
	}
}

// evictLocked removes one trace: the oldest sampled one, or — when the store
// is all tail traces — the oldest tail trace.
func (st *traceStore) evictLocked() {
	victim := -1
	for i, td := range st.traces {
		if td.Retained == "sampled" {
			victim = i
			break
		}
	}
	if victim == -1 {
		victim = 0
	}
	td := st.traces[victim]
	st.traces = append(st.traces[:victim], st.traces[victim+1:]...)
	if st.index[td.ID] == td {
		delete(st.index, td.ID)
	}
	TracesDroppedTotal.Inc()
}

// SetSlowTraceThreshold sets the duration at or above which a trace is
// tail-retained regardless of outcome. Returns the previous threshold.
func SetSlowTraceThreshold(d time.Duration) time.Duration {
	store.mu.Lock()
	defer store.mu.Unlock()
	prev := store.slowThreshold
	store.slowThreshold = d
	return prev
}

// setTraceCapacity bounds the number of retained traces (minimum 1) and
// returns the previous bound. Production keeps defaultTraceCapacity.
func setTraceCapacity(n int) int {
	if n < 1 {
		n = 1
	}
	store.mu.Lock()
	defer store.mu.Unlock()
	prev := store.capacity
	store.capacity = n
	for len(store.traces) > store.capacity {
		store.evictLocked()
	}
	return prev
}

// LastTrace returns the most recently completed trace, or nil. The result is
// independent of retention: an evicted trace is still visible here until
// the next one completes (the CLI's -trace dump depends on that).
func LastTrace() *TraceData {
	store.mu.Lock()
	defer store.mu.Unlock()
	return store.last
}

// TraceByID returns the retained trace with the given ID, or nil.
func TraceByID(id string) *TraceData {
	store.mu.Lock()
	defer store.mu.Unlock()
	return store.index[id]
}

// Traces returns the retained traces, most recent first.
func Traces() []*TraceData {
	store.mu.Lock()
	defer store.mu.Unlock()
	out := make([]*TraceData, len(store.traces))
	for i, td := range store.traces {
		out[len(store.traces)-1-i] = td
	}
	return out
}

// StoredTraces returns the number of retained traces.
func StoredTraces() int {
	store.mu.Lock()
	defer store.mu.Unlock()
	return len(store.traces)
}

// ResetTraces clears the trace store (for tests and smoke runs).
func ResetTraces() {
	store.mu.Lock()
	defer store.mu.Unlock()
	store.traces = nil
	store.index = map[string]*TraceData{}
	store.last = nil
}
