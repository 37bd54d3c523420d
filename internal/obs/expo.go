package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"
)

// ---------------------------------------------------------------------------
// Collectors
//
// A collector refreshes derived metrics (SLO gauges, runtime gauges) lazily
// at exposition time, so the serving path never pays for them per request.

var (
	collectorsMu sync.Mutex
	collectorFns []func()
)

// RegisterCollector adds a function run before every metrics exposition and
// /statusz render.
func RegisterCollector(f func()) {
	collectorsMu.Lock()
	collectorFns = append(collectorFns, f)
	collectorsMu.Unlock()
}

// Collect runs every registered collector.
func Collect() {
	collectorsMu.Lock()
	fns := make([]func(), len(collectorFns))
	copy(fns, collectorFns)
	collectorsMu.Unlock()
	for _, f := range fns {
		f()
	}
}

// Snapshot is an expvar-style point-in-time copy of every registered metric.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// HistogramSnapshot summarizes one histogram with estimated quantiles.
// Bounds and Buckets carry the raw distribution (cumulative-free per-bucket
// counts, one extra overflow bucket after the last bound) so snapshots from
// different processes can be merged bucketwise (MergeSnapshots) — percentiles
// alone cannot be federated.
type HistogramSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	P50     float64   `json:"p50"`
	P95     float64   `json:"p95"`
	P99     float64   `json:"p99"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
}

// Counter returns a named counter value from the snapshot (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// TakeSnapshot copies the default registry.
func TakeSnapshot() Snapshot { return Default.Snapshot() }

// Snapshot copies the registry's current values. Labeled families report
// their aggregate across all label sets under the bare family name, so
// callers summing totals (tests, dumpObs) need not care whether a metric
// grew labels.
func (r *Registry) Snapshot() Snapshot {
	cs, gs, hs := r.snapshotLists()
	lcs, _, lhs := r.snapshotLabeled()
	snap := Snapshot{
		Counters:   make(map[string]int64, len(cs)+len(lcs)),
		Gauges:     make(map[string]int64, len(gs)),
		Histograms: make(map[string]HistogramSnapshot, len(hs)+len(lhs)),
	}
	for _, c := range cs {
		snap.Counters[c.name] = c.Value()
	}
	for _, g := range gs {
		snap.Gauges[g.name] = g.Value()
	}
	for _, h := range hs {
		buckets := make([]int64, len(h.buckets))
		for i := range h.buckets {
			buckets[i] = h.buckets[i].Load()
		}
		snap.Histograms[h.name] = HistogramSnapshot{
			Count:   h.Count(),
			Sum:     h.Sum(),
			P50:     h.Quantile(0.50),
			P95:     h.Quantile(0.95),
			P99:     h.Quantile(0.99),
			Bounds:  h.bounds,
			Buckets: buckets,
		}
	}
	for _, c := range lcs {
		snap.Counters[c.vec.name] = c.Total()
	}
	for _, h := range lhs {
		count, sum, buckets := h.aggregate()
		snap.Histograms[h.vec.name] = HistogramSnapshot{
			Count:   count,
			Sum:     sum,
			P50:     bucketQuantile(h.bounds, buckets, 0.50),
			P95:     bucketQuantile(h.bounds, buckets, 0.95),
			P99:     bucketQuantile(h.bounds, buckets, 0.99),
			Bounds:  h.bounds,
			Buckets: buckets,
		}
	}
	return snap
}

// WriteProm writes the default registry in Prometheus text exposition format.
func WriteProm(w io.Writer) error { return Default.WriteProm(w) }

// WriteProm writes the registry in Prometheus text exposition format
// (version 0.0.4): HELP/TYPE headers, counters and gauges as single samples,
// histograms as cumulative le-buckets plus _sum and _count.
func (r *Registry) WriteProm(w io.Writer) error {
	cs, gs, hs := r.snapshotLists()
	for _, c := range cs {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			c.name, c.help, c.name, c.name, c.Value()); err != nil {
			return err
		}
	}
	for _, g := range gs {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
			g.name, g.help, g.name, g.name, g.Value()); err != nil {
			return err
		}
	}
	for _, h := range hs {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name); err != nil {
			return err
		}
		var cum int64
		for i, bound := range h.bounds {
			cum += h.buckets[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n",
				h.name, strconv.FormatFloat(bound, 'g', -1, 64), cum); err != nil {
				return err
			}
		}
		cum += h.buckets[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
			h.name, cum, h.name, h.Sum(), h.name, h.Count()); err != nil {
			return err
		}
	}
	lcs, lgs, lhs := r.snapshotLabeled()
	for _, c := range lcs {
		if err := c.writeProm(w); err != nil {
			return err
		}
	}
	for _, g := range lgs {
		if err := g.writeProm(w); err != nil {
			return err
		}
	}
	for _, h := range lhs {
		if err := h.writeProm(w); err != nil {
			return err
		}
	}
	return nil
}

// Exemplars lists every live bucket→trace exemplar across the registry's
// labeled histograms (surfaced on /statusz).
func (r *Registry) Exemplars() []ExemplarRef {
	_, _, lhs := r.snapshotLabeled()
	var out []ExemplarRef
	for _, h := range lhs {
		out = append(out, h.exemplarRefs()...)
	}
	return out
}

// Handler serves the default registry as Prometheus text format.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		Collect()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteProm(w)
	})
}

// JSONHandler serves the default registry as an expvar-style JSON snapshot.
func JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		Collect()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(TakeSnapshot())
	})
}

// processStart anchors /statusz uptime.
var processStart = time.Now()

// Statusz is the /statusz payload: the at-a-glance health page an operator
// reads first — rolling SLO windows, runtime state, trace-store accounting
// and every gauge, one JSON document.
type Statusz struct {
	UptimeSeconds float64             `json:"uptime_seconds"`
	Build         BuildInfo           `json:"build"`
	SLO           map[string]SLOStats `json:"slo"`
	Runtime       StatuszRuntime      `json:"runtime"`
	Traces        StatuszTraces       `json:"traces"`
	// Exemplars link labeled-histogram buckets to retrievable traces: the
	// most recent trace ID that landed in each bucket (see /v1/trace/{id}).
	Exemplars []ExemplarRef    `json:"exemplars,omitempty"`
	Gauges    map[string]int64 `json:"gauges"`
}

// StatuszRuntime is the runtime block of /statusz.
type StatuszRuntime struct {
	Goroutines     int64 `json:"goroutines"`
	HeapBytes      int64 `json:"heap_bytes"`
	GCRuns         int64 `json:"gc_runs"`
	GCPauseTotalNS int64 `json:"gc_pause_total_ns"`
}

// StatuszTraces is the trace-store block of /statusz.
type StatuszTraces struct {
	Stored       int   `json:"stored"`
	DroppedTotal int64 `json:"dropped_total"`
	SpanDropped  int64 `json:"spans_dropped_total"`
}

// TakeStatusz builds the /statusz payload.
func TakeStatusz() Statusz {
	Collect()
	snap := TakeSnapshot()
	return Statusz{
		UptimeSeconds: time.Since(processStart).Seconds(),
		Build:         GetBuildInfo(),
		SLO: map[string]SLOStats{
			"1m": SLO.Stats(time.Minute),
			"5m": SLO.Stats(5 * time.Minute),
		},
		Runtime: StatuszRuntime{
			Goroutines:     RuntimeGoroutines.Value(),
			HeapBytes:      RuntimeHeapBytes.Value(),
			GCRuns:         RuntimeGCRuns.Value(),
			GCPauseTotalNS: RuntimeGCPauseTotal.Value(),
		},
		Traces: StatuszTraces{
			Stored:       StoredTraces(),
			DroppedTotal: TracesDroppedTotal.Value(),
			SpanDropped:  TraceSpansDroppedTotal.Value(),
		},
		Exemplars: Default.Exemplars(),
		Gauges:    snap.Gauges,
	}
}

// StatuszHandler serves the /statusz JSON health page.
func StatuszHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(TakeStatusz())
	})
}

// AttachPprof mounts the net/http/pprof profile handlers under
// /debug/pprof/ on mux. Kept behind an explicit call (semfeedd -pprof, the
// CLIs' metrics mux) rather than the package's silent DefaultServeMux
// side effect.
func AttachPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// TraceHandler serves the most recent recorded trace: the rendered span tree
// as text, or the full structure with ?format=json.
func TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		td := LastTrace()
		if td == nil {
			http.Error(w, "no trace recorded (is tracing enabled?)", http.StatusNotFound)
			return
		}
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(td)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, td.Tree())
	})
}

// Mux returns the standard observability endpoint set the CLIs serve under
// -metrics-addr: /metrics (Prometheus text), /metrics.json (snapshot),
// /trace (latest span tree) and /statusz (SLO windows + runtime).
func Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler())
	mux.Handle("/metrics.json", JSONHandler())
	mux.Handle("/trace", TraceHandler())
	mux.Handle("/statusz", StatuszHandler())
	return mux
}

// StartServer enables metrics and serves Mux on addr in a background
// goroutine. It returns the *http.Server so the caller can drain it with
// Shutdown (the CLIs stop it on exit; semfeedd ties it into SIGTERM drain),
// plus the server's terminal error channel. ErrServerClosed is swallowed:
// a graceful Shutdown is not an error the caller needs to see.
func StartServer(addr string) (*http.Server, <-chan error) {
	Enable()
	srv := &http.Server{Addr: addr, Handler: Mux()}
	errc := make(chan error, 1)
	go func() {
		err := srv.ListenAndServe()
		if err == http.ErrServerClosed {
			err = nil
		}
		errc <- err
	}()
	return srv, errc
}
