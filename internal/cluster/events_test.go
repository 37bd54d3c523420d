package cluster

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEventLogRingBuffer pins the bounded-buffer semantics: eviction keeps
// the newest entries, Seq stays monotonic across eviction (gaps visible),
// and per-kind counts survive eviction.
func TestEventLogRingBuffer(t *testing.T) {
	l := newEventLog(4)
	for i := 0; i < 10; i++ {
		kind := EventProbeFail
		if i%2 == 0 {
			kind = EventRingRebuild
		}
		l.record(MemberEvent{Kind: kind})
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", l.Len())
	}
	evs := l.Events(0)
	if len(evs) != 4 {
		t.Fatalf("Events(0) = %d entries, want 4", len(evs))
	}
	// Newest first: Seq 10, 9, 8, 7.
	for i, e := range evs {
		if want := uint64(10 - i); e.Seq != want {
			t.Fatalf("evs[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
	if got := l.Events(2); len(got) != 2 || got[0].Seq != 10 {
		t.Fatalf("Events(2) = %+v, want the 2 newest", got)
	}
	counts := l.Counts()
	if counts[EventRingRebuild] != 5 || counts[EventProbeFail] != 5 {
		t.Fatalf("counts survived eviction wrong: %+v", counts)
	}
}

func TestEventLogEmpty(t *testing.T) {
	l := newEventLog(0)
	if evs := l.Events(5); evs != nil {
		t.Fatalf("Events on empty log = %+v, want nil", evs)
	}
}

func TestDiffMembers(t *testing.T) {
	added, removed := diffMembers(
		[]string{"a", "b", "d"},
		[]string{"b", "c", "d", "e"},
	)
	if len(added) != 2 || added[0] != "c" || added[1] != "e" {
		t.Fatalf("added = %v, want [c e]", added)
	}
	if len(removed) != 1 || removed[0] != "a" {
		t.Fatalf("removed = %v, want [a]", removed)
	}
}

// TestMembershipFlightRecorder pins the event wiring end to end: a transport
// failure records worker_down + ring_rebuild with the member diff, and a
// probe-driven recovery records worker_up.
func TestMembershipFlightRecorder(t *testing.T) {
	var ready atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" && ready.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	m := NewMembership([]string{srv.URL, "http://127.0.0.1:1"}, srv.Client())
	gen0 := m.RingGeneration()
	if gen0 == 0 {
		t.Fatal("genesis rebuild did not bump the ring generation")
	}

	m.ReportFailure(srv.URL)
	if m.RingGeneration() != gen0+1 {
		t.Fatalf("ring generation = %d after failure, want %d", m.RingGeneration(), gen0+1)
	}
	evs := m.Events(2)
	if len(evs) != 2 {
		t.Fatalf("Events(2) = %d entries, want worker_down + ring_rebuild", len(evs))
	}
	if evs[0].Kind != EventRingRebuild || len(evs[0].Removed) != 1 || evs[0].Removed[0] != srv.URL {
		t.Fatalf("newest event = %+v, want ring_rebuild removing %s", evs[0], srv.URL)
	}
	if evs[1].Kind != EventWorkerDown || evs[1].Worker != srv.URL || evs[1].Detail != "transport" {
		t.Fatalf("event before rebuild = %+v, want worker_down/transport", evs[1])
	}
	if h := m.HealthSnapshot(); h[srv.URL] {
		t.Fatal("health snapshot still reports the failed worker healthy")
	}

	ready.Store(true)
	m.probeAll()
	evs = m.Events(4)
	if evs[0].Kind != EventRingRebuild || len(evs[0].Added) != 1 || evs[0].Added[0] != srv.URL {
		t.Fatalf("recovery rebuild = %+v, want %s added", evs[0], srv.URL)
	}
	// The dead second worker's probe_fail may interleave; find the worker_up.
	recovered := false
	for _, e := range evs {
		if e.Kind == EventWorkerUp && e.Worker == srv.URL {
			recovered = true
		}
	}
	if !recovered {
		t.Fatalf("no worker_up for %s in recent events: %+v", srv.URL, evs)
	}
	counts := m.EventCounts()
	if counts[EventWorkerDown] < 1 || counts[EventWorkerUp] < 1 || counts[EventRingRebuild] < 3 {
		t.Fatalf("event counts = %+v", counts)
	}
}

// TestMembershipProbeFailRecordedOncePerOutage pins the flood control: a
// worker failing probes records probe_fail only while it still counted as
// healthy, so a long-dead worker does not evict interesting events.
func TestMembershipProbeFailRecordedOncePerOutage(t *testing.T) {
	m := NewMembership([]string{"http://127.0.0.1:1"}, &http.Client{Timeout: 200 * time.Millisecond})
	for i := 0; i < 5; i++ {
		m.probeAll()
	}
	if n := m.EventCounts()[EventProbeFail]; n != probeFailThreshold {
		t.Fatalf("probe_fail recorded %d times over a dead worker's outage, want %d (only while healthy)", n, probeFailThreshold)
	}
}

// TestEventLogConcurrent exercises the flight recorder under concurrent
// ReportFailure and probeAll — run with -race.
func TestEventLogConcurrent(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	m := NewMembership([]string{srv.URL, "http://127.0.0.1:1"}, srv.Client())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				m.ReportFailure(srv.URL)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				m.probeAll()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				m.Events(8)
				m.EventCounts()
				m.HealthSnapshot()
				m.RingGeneration()
			}
		}()
	}
	wg.Wait()
	evs := m.Events(0)
	if len(evs) == 0 {
		t.Fatal("no events recorded under concurrency")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i-1].Seq <= evs[i].Seq {
			t.Fatalf("event order not newest-first by Seq: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// TestRingShares pins the statusz ring-share computation: shares sum to 1
// and balance within a reasonable spread at the default vnode count.
func TestRingShares(t *testing.T) {
	members := []string{"http://w1", "http://w2", "http://w3"}
	shares := NewRing(members).Shares()
	var sum float64
	for _, m := range members {
		s := shares[m]
		if s < 0.15 || s > 0.55 {
			t.Fatalf("share of %s = %g, badly unbalanced", m, s)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %g, want 1", sum)
	}
	if one := NewRing([]string{"http://solo"}).Shares(); one["http://solo"] != 1 {
		t.Fatalf("single-member share = %g, want 1", one["http://solo"])
	}
	if empty := NewRing(nil).Shares(); len(empty) != 0 {
		t.Fatalf("empty ring shares = %v, want empty", empty)
	}
}
