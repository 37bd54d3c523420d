package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// withCollection runs f with metrics and tracing on, restoring the previous
// state and clearing test-local accumulation afterwards.
func withCollection(t *testing.T, f func()) {
	t.Helper()
	wasEnabled, wasTracing := Enabled(), TracingEnabled()
	Enable()
	EnableTracing()
	defer func() {
		if !wasEnabled {
			Disable()
		}
		if !wasTracing {
			DisableTracing()
		}
	}()
	f()
}

func TestCounterGate(t *testing.T) {
	r := &Registry{}
	c := r.NewCounter("test_total", "help")
	Disable()
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("disabled counter moved: %d", c.Value())
	}
	withCollection(t, func() {
		c.Add(3)
		c.Inc()
	})
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
}

func TestGauge(t *testing.T) {
	r := &Registry{}
	g := r.NewGauge("test_inflight", "help")
	withCollection(t, func() {
		g.Inc()
		g.Inc()
		g.Dec()
		if g.Value() != 1 {
			t.Fatalf("gauge = %d, want 1", g.Value())
		}
		g.Set(7)
	})
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := &Registry{}
	h := r.NewHistogram("test_seconds", "help", []float64{0.001, 0.01, 0.1, 1})
	withCollection(t, func() {
		// 90 fast observations, 10 slow ones.
		for i := 0; i < 90; i++ {
			h.Observe(0.0005)
		}
		for i := 0; i < 10; i++ {
			h.Observe(0.05)
		}
	})
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got < 0.5 || got > 0.6 {
		t.Fatalf("sum = %g", got)
	}
	if p50 := h.Quantile(0.50); p50 > 0.001 {
		t.Errorf("p50 = %g, want within first bucket", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 0.01 || p99 > 0.1 {
		t.Errorf("p99 = %g, want inside the (0.01, 0.1] bucket", p99)
	}
	if q := h.Quantile(0.5); q < 0 {
		t.Errorf("negative quantile %g", q)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	r := &Registry{}
	h := r.NewHistogram("test_seconds", "help", []float64{0.001, 0.01})
	withCollection(t, func() {
		h.Observe(5) // beyond every bound
	})
	if got := h.Quantile(0.5); got != 0.01 {
		t.Errorf("overflow quantile = %g, want largest bound 0.01", got)
	}
}

func TestPipelineMetricsRegistered(t *testing.T) {
	// The acceptance bar: the exposition surface names at least 15 metrics.
	if n := Default.Len(); n < 15 {
		t.Fatalf("default registry has %d metrics, want >= 15", n)
	}
	var sb strings.Builder
	if err := WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"semfeed_parses_total", "semfeed_epdg_nodes_total", "semfeed_match_steps_total",
		"semfeed_match_backtracks_total", "semfeed_constraint_checks_total",
		"semfeed_interp_step_limit_total", "semfeed_grades_total", "semfeed_grade_seconds",
	} {
		if !strings.Contains(sb.String(), "# TYPE "+name) {
			t.Errorf("exposition is missing %s", name)
		}
	}
}

func TestSnapshotAndPromAgree(t *testing.T) {
	r := &Registry{}
	c := r.NewCounter("agree_total", "help")
	h := r.NewHistogram("agree_seconds", "help", nil)
	withCollection(t, func() {
		c.Add(5)
		h.ObserveDuration(2 * time.Millisecond)
	})
	snap := r.Snapshot()
	if snap.Counters["agree_total"] != 5 {
		t.Errorf("snapshot counter = %d", snap.Counters["agree_total"])
	}
	hs := snap.Histograms["agree_seconds"]
	if hs.Count != 1 || hs.P50 <= 0 {
		t.Errorf("histogram snapshot = %+v", hs)
	}
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "agree_total 5") {
		t.Errorf("prom text missing counter sample:\n%s", out)
	}
	if !strings.Contains(out, `agree_seconds_bucket{le="+Inf"} 1`) || !strings.Contains(out, "agree_seconds_count 1") {
		t.Errorf("prom text missing histogram series:\n%s", out)
	}
	// The JSON snapshot must round-trip.
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["agree_total"] != 5 {
		t.Errorf("JSON round trip lost the counter: %s", data)
	}
}

func TestRegistryReset(t *testing.T) {
	r := &Registry{}
	c := r.NewCounter("reset_total", "help")
	h := r.NewHistogram("reset_seconds", "help", nil)
	withCollection(t, func() {
		c.Inc()
		h.Observe(0.001)
	})
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("reset left values: counter=%d hist count=%d", c.Value(), h.Count())
	}
}

func TestTraceTree(t *testing.T) {
	withCollection(t, func() {
		ResetTraces()
		root := StartTrace("grade/test")
		if root == nil {
			t.Fatal("tracing enabled but StartTrace returned nil")
		}
		root.SetAttr("assignment", "test")
		build := root.Child("build_epdg")
		build.SetAttrInt("nodes", 14)
		build.End()
		binding := root.Child("binding")
		m := binding.Child("match:p1")
		m.SetAttrInt("embeddings", 2)
		m.End()
		binding.End()
		root.End()

		td := LastTrace()
		if td == nil {
			t.Fatal("no trace recorded")
		}
		if len(td.Spans) != 4 {
			t.Fatalf("recorded %d spans, want 4", len(td.Spans))
		}
		tree := td.Tree()
		for _, want := range []string{"grade/test", "build_epdg", "nodes=14", "match:p1", "embeddings=2"} {
			if !strings.Contains(tree, want) {
				t.Errorf("tree missing %q:\n%s", want, tree)
			}
		}
		// Parent linkage: match:p1 must be indented under binding.
		var matchLine string
		for _, line := range strings.Split(tree, "\n") {
			if strings.Contains(line, "match:p1") {
				matchLine = line
			}
		}
		if !strings.HasPrefix(matchLine, "    ") {
			t.Errorf("match span not nested two levels deep: %q", matchLine)
		}
	})
}

func TestTraceSpanCap(t *testing.T) {
	withCollection(t, func() {
		ResetTraces()
		root := StartTrace("cap")
		for i := 0; i < maxSpansPerTrace+10; i++ {
			root.Child("s").End()
		}
		root.End()
		td := LastTrace()
		if td.Dropped == 0 {
			t.Error("span cap did not drop anything")
		}
		if len(td.Spans) > maxSpansPerTrace {
			t.Errorf("trace holds %d spans, cap is %d", len(td.Spans), maxSpansPerTrace)
		}
	})
}

func TestStoreCapacityBound(t *testing.T) {
	withCollection(t, func() {
		ResetTraces()
		prev := setTraceCapacity(16)
		defer setTraceCapacity(prev)
		for i := 0; i < 16+5; i++ {
			StartTrace("ring").End()
		}
		if got := len(Traces()); got != 16 {
			t.Errorf("store holds %d traces, want capacity 16", got)
		}
	})
}

func TestHandlers(t *testing.T) {
	withCollection(t, func() {
		ResetTraces()
		GradesTotal.Inc("assignment1", "ok")
		StartTrace("handler-test").End()

		rec := httptest.NewRecorder()
		Mux().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if !strings.Contains(rec.Body.String(), "semfeed_grades_total") {
			t.Errorf("/metrics missing counters:\n%.400s", rec.Body.String())
		}
		if !strings.Contains(rec.Body.String(), `semfeed_grades_total{assignment="assignment1",status="ok"}`) {
			t.Errorf("/metrics missing the labeled grades sample:\n%.400s", rec.Body.String())
		}

		rec = httptest.NewRecorder()
		Mux().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.json", nil))
		var snap Snapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatalf("/metrics.json is not a snapshot: %v", err)
		}

		rec = httptest.NewRecorder()
		Mux().ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
		if !strings.Contains(rec.Body.String(), "handler-test") {
			t.Errorf("/trace missing the recorded trace: %q", rec.Body.String())
		}
	})
}

// TestDisabledHooksAllocateNothing is the zero-allocation guarantee of the
// disabled path: the hot matching loop must be able to leave hooks in place.
func TestDisabledHooksAllocateNothing(t *testing.T) {
	Disable()
	DisableTracing()
	r := &Registry{}
	c := r.NewCounter("noop_total", "help")
	g := r.NewGauge("noop", "help")
	h := r.NewHistogram("noop_seconds", "help", nil)
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Inc()
		h.Observe(0.001)
		sp := StartTrace("noop")
		child := sp.Child("x")
		child.SetAttrInt("k", 1)
		child.SetTraceID("rid")
		child.SetOutcome("ok")
		child.End()
		sp.End()
		if RequestIDFrom(ctx) != "" {
			t.Fatal("unexpected request ID")
		}
		SLO.Observe(time.Millisecond, OutcomeOK)
	}); n != 0 {
		t.Fatalf("disabled hooks allocate %v bytes/op, want 0", n)
	}
}

func BenchmarkDisabledHooks(b *testing.B) {
	Disable()
	DisableTracing()
	r := &Registry{}
	c := r.NewCounter("bench_total", "help")
	h := r.NewHistogram("bench_seconds", "help", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
		h.Observe(0.001)
		sp := StartTrace("bench")
		sp.Child("x").End()
		sp.End()
	}
}

func BenchmarkEnabledCounter(b *testing.B) {
	r := &Registry{}
	c := r.NewCounter("bench_total", "help")
	Enable()
	defer Disable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkEnabledHistogram(b *testing.B) {
	r := &Registry{}
	h := r.NewHistogram("bench_seconds", "help", nil)
	Enable()
	defer Disable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}
