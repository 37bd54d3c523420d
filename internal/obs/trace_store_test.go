package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// withStoreDefaults pins the store knobs for a test and restores them. A
// capacity of 0 keeps the production capacity, defaultTraceCapacity.
func withStoreDefaults(t *testing.T, capacity int, slow time.Duration) {
	t.Helper()
	if capacity == 0 {
		capacity = defaultTraceCapacity
	}
	prevCap := setTraceCapacity(capacity)
	prevSlow := SetSlowTraceThreshold(slow)
	t.Cleanup(func() {
		setTraceCapacity(prevCap)
		SetSlowTraceThreshold(prevSlow)
		ResetTraces()
	})
	ResetTraces()
}

func TestTraceByID(t *testing.T) {
	withCollection(t, func() {
		withStoreDefaults(t, 64, time.Hour)
		root := StartTrace("grade/a1")
		root.SetTraceID("req-42")
		root.Child("build_epdg").End()
		root.End()

		td := TraceByID("req-42")
		if td == nil {
			t.Fatal("TraceByID returned nil for a retained trace")
		}
		if td.ID != "req-42" || len(td.Spans) != 2 {
			t.Errorf("trace = id %q, %d spans", td.ID, len(td.Spans))
		}
		if TraceByID("missing") != nil {
			t.Error("TraceByID returned a trace for an unknown ID")
		}
	})
}

func TestTailRetentionByOutcome(t *testing.T) {
	withCollection(t, func() {
		withStoreDefaults(t, 64, time.Hour)
		before := TracesDroppedTotal.Value()

		norm := StartTrace("grade/fast")
		norm.SetTraceID("normal-1")
		norm.End()
		bad := StartTrace("grade/bad")
		bad.SetTraceID("error-1")
		bad.SetOutcome("error")
		bad.End()

		if td := TraceByID("error-1"); td == nil || td.Retained != "tail" {
			t.Errorf("error trace not tail-retained: %+v", td)
		}
		// A fast, successful trace is kept too, under the wire value
		// "sampled" that /v1/trace clients read.
		if td := TraceByID("normal-1"); td == nil || td.Retained != "sampled" {
			t.Errorf("normal trace not retained as sampled: %+v", td)
		}
		if got := TracesDroppedTotal.Value() - before; got != 0 {
			t.Errorf("traces dropped = %d, want 0 (nothing evicted)", got)
		}
		// LastTrace still sees the most recent completion regardless of retention.
		if lt := LastTrace(); lt == nil || lt.ID != "error-1" {
			t.Errorf("LastTrace = %+v", lt)
		}
	})
}

func TestTailRetentionByDuration(t *testing.T) {
	withCollection(t, func() {
		withStoreDefaults(t, 64, 0) // every trace counts as slow
		root := StartTrace("grade/slow")
		root.SetTraceID("slow-1")
		root.End()
		if td := TraceByID("slow-1"); td == nil || td.Retained != "tail" {
			t.Errorf("slow trace not tail-retained: %+v", td)
		}
	})
}

// TestEvictionPrefersSampled pins the production bound and eviction order:
// the store holds at most 256 traces, and overflow evicts the oldest sampled
// (non-tail) trace first.
func TestEvictionPrefersSampled(t *testing.T) {
	withCollection(t, func() {
		withStoreDefaults(t, 0, time.Hour)
		// Two tail traces, then enough sampled ones to overflow by three.
		for i := 0; i < 2; i++ {
			sp := StartTrace("grade/err")
			sp.SetTraceID(fmt.Sprintf("tail-%d", i))
			sp.SetOutcome("error")
			sp.End()
		}
		for i := 0; i < 257; i++ {
			sp := StartTrace("grade/ok")
			sp.SetTraceID(fmt.Sprintf("norm-%d", i))
			sp.End()
		}
		if got := StoredTraces(); got != 256 {
			t.Fatalf("store holds %d traces, want capacity 256", got)
		}
		// Both tail traces must survive; the three oldest sampled ones were
		// evicted.
		for i := 0; i < 2; i++ {
			if TraceByID(fmt.Sprintf("tail-%d", i)) == nil {
				t.Errorf("tail-%d was evicted while sampled traces remained", i)
			}
		}
		for i := 0; i < 3; i++ {
			if TraceByID(fmt.Sprintf("norm-%d", i)) != nil {
				t.Errorf("norm-%d, among the oldest sampled traces, survived eviction", i)
			}
		}
		if TraceByID("norm-3") == nil || TraceByID("norm-256") == nil {
			t.Error("a sampled trace newer than the evicted ones is missing")
		}
	})
}

func TestTracesOrderAndFallbackIDs(t *testing.T) {
	withCollection(t, func() {
		withStoreDefaults(t, 8, time.Hour)
		StartTrace("a").End()
		StartTrace("b").End()
		ts := Traces()
		if len(ts) != 2 {
			t.Fatalf("stored %d traces", len(ts))
		}
		if ts[0].Name != "b" || ts[1].Name != "a" {
			t.Errorf("Traces() not most-recent-first: %s, %s", ts[0].Name, ts[1].Name)
		}
		for _, td := range ts {
			if td.ID == "" {
				t.Error("trace without an ID: fallback not assigned")
			}
			if TraceByID(td.ID) != td {
				t.Errorf("fallback ID %q not indexed", td.ID)
			}
		}
	})
}

// TestTraceStoreMixedRetentionPressure floods a small store with concurrent
// traces of every retention class and asserts the invariants that matter
// under pressure: always-keep classes (error/timeout/canceled/shed) survive
// up to capacity, eviction spends sampled traces first, and
// semfeed_traces_dropped_total equals the number of traces that are actually
// gone. Run with -race, this is also the exporter/store interleaving check.
func TestTraceStoreMixedRetentionPressure(t *testing.T) {
	withCollection(t, func() {
		const capacity = 32
		withStoreDefaults(t, capacity, time.Hour)
		ring := NewRingExporter(4096)
		prevExp := SetSpanExporter(ring)
		defer SetSpanExporter(prevExp)
		droppedBefore := TracesDroppedTotal.Value()

		outcomes := []string{"", "error", "timeout", "canceled", "shed"}
		const producers, perProducer = 4, 100
		var wg sync.WaitGroup
		var tailCount sync.Map // id -> struct{} for always-keep traces
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					sp := StartTrace("grade/pressure")
					id := fmt.Sprintf("p%d-%d", p, i)
					sp.SetTraceID(id)
					if out := outcomes[i%len(outcomes)]; out != "" {
						sp.SetOutcome(out)
						tailCount.Store(id, struct{}{})
					}
					sp.Child("step").End()
					sp.End()
				}
			}(p)
		}
		wg.Wait()

		total := producers * perProducer
		stored := Traces()
		if len(stored) > capacity {
			t.Fatalf("store holds %d traces, capacity %d", len(stored), capacity)
		}
		// Every exported trace was seen exactly once, regardless of retention.
		if got := len(ring.Traces()); got != total {
			t.Errorf("exporter saw %d traces, want %d", got, total)
		}
		// The drops counter is truthful: stored + dropped == produced.
		dropped := TracesDroppedTotal.Value() - droppedBefore
		if int(dropped)+len(stored) != total {
			t.Errorf("dropped %d + stored %d != produced %d", dropped, len(stored), total)
		}
		// Under 4:1 tail-to-sampled pressure the survivors must be dominated
		// by always-keep classes: eviction prefers sampled traces.
		var tailStored int
		for _, td := range stored {
			if _, ok := tailCount.Load(td.ID); ok {
				if td.Retained != "tail" {
					t.Errorf("trace %s has outcome-class retention %q, want tail", td.ID, td.Retained)
				}
				tailStored++
			}
		}
		if tailStored < len(stored)*3/4 {
			t.Errorf("only %d/%d survivors are always-keep traces; eviction is not preferring sampled ones", tailStored, len(stored))
		}
	})
}

// TestTraceStoreConcurrency exercises concurrent producers and readers under
// the race detector: StartTrace/End racing Traces/TraceByID/LastTrace and
// capacity changes must be safe.
func TestTraceStoreConcurrency(t *testing.T) {
	withCollection(t, func() {
		withStoreDefaults(t, 16, time.Hour)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					sp := StartTrace("grade/conc")
					sp.SetTraceID(fmt.Sprintf("c%d-%d", p, i))
					if i%7 == 0 {
						sp.SetOutcome("error")
					}
					sp.Child("step").End()
					sp.End()
				}
			}(p)
		}
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, td := range Traces() {
						_ = td.Tree()
						if TraceByID(td.ID) == nil {
							// Fine: evicted between snapshot and lookup.
							continue
						}
					}
					_ = LastTrace()
					_ = StoredTraces()
				}
			}(r)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				setTraceCapacity(8 + i%16)
			}
		}()
		// Wait for producers + the capacity changer (readers poll until stop).
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		time.Sleep(10 * time.Millisecond)
		close(stop)
		<-done
		if StoredTraces() == 0 {
			t.Error("no traces retained after concurrent load")
		}
	})
}
