package cluster

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"semfeed/internal/obs"
)

// probeFailThreshold is how many consecutive probe failures mark a worker
// unhealthy. One failure is a blip; two on a short interval is a dead
// worker. A single probe success restores it — readiness is authoritative in
// the healthy direction.
const probeFailThreshold = 2

// Membership tracks the worker set and its health, publishing the
// healthy-only routing ring through an atomic.Pointer so the proxy path
// reads one snapshot load per request. Health has two inputs: periodic
// /readyz probes, and ReportFailure calls from the proxy when a forward
// fails in transport — the latter removes a dead worker from the ring
// immediately (fail-open rerouting) instead of waiting out a probe cycle.
type Membership struct {
	client *http.Client

	ring atomic.Pointer[Ring]
	gen  atomic.Uint64 // ring generation: bumps on every published rebuild

	events *eventLog // the flight recorder (GET /v1/events)

	mu      sync.Mutex
	workers []string
	fails   map[string]int // consecutive probe failures; >= threshold means out

	stop    chan struct{}
	stopped chan struct{}
}

// NewMembership builds a membership over the static worker list. All workers
// start healthy — the first probe cycle corrects that within an interval,
// and a transport failure corrects it on first contact. client may be nil
// for a short-timeout default.
func NewMembership(workers []string, client *http.Client) *Membership {
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Second}
	}
	m := &Membership{client: client, fails: make(map[string]int), events: newEventLog(0)}
	for _, w := range workers {
		if w != "" {
			m.workers = append(m.workers, trimSlash(w))
		}
	}
	obs.ClusterWorkersConfigured.Set(int64(len(m.workers)))
	m.rebuild()
	return m
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// Ring returns the current healthy-only routing ring snapshot.
func (m *Membership) Ring() *Ring { return m.ring.Load() }

// Healthy returns the healthy workers (the ring's members).
func (m *Membership) Healthy() []string { return m.Ring().Members() }

// Workers returns the full configured worker list, healthy or not.
func (m *Membership) Workers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.workers))
	copy(out, m.workers)
	return out
}

// Events returns up to n most recent flight-recorder entries, newest first
// (n <= 0 returns everything retained).
func (m *Membership) Events(n int) []MemberEvent { return m.events.Events(n) }

// EventCounts returns the per-kind event totals since process start.
func (m *Membership) EventCounts() map[string]int64 { return m.events.Counts() }

// RingGeneration returns the generation of the currently published ring.
func (m *Membership) RingGeneration() uint64 { return m.gen.Load() }

// HealthSnapshot reports each configured worker's current health: true when
// the worker is in the routing ring.
func (m *Membership) HealthSnapshot() map[string]bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]bool, len(m.workers))
	for _, w := range m.workers {
		out[w] = m.fails[w] < probeFailThreshold
	}
	return out
}

// ReportFailure records a transport-level failure talking to worker and
// drops it from the ring immediately. The next successful probe re-adds it.
func (m *Membership) ReportFailure(worker string) {
	m.mu.Lock()
	changed := m.fails[worker] < probeFailThreshold
	m.fails[worker] = probeFailThreshold
	m.mu.Unlock()
	if changed {
		m.events.record(MemberEvent{
			Kind: EventWorkerDown, Worker: worker, Detail: "transport",
			RingGen: m.gen.Load(), Healthy: m.Ring().Size(),
		})
		m.rebuild()
	}
}

// rebuild recomputes the healthy set and publishes a fresh ring if it
// changed. The mutex is held across the compute-build-compare-publish
// sequence (ring builds are microseconds): releasing it between computing
// the healthy set and storing the ring would let two concurrent rebuilds —
// ReportFailure from a proxy goroutine racing probeAll — publish out of
// order, leaving a stale ring that still routes to a just-failed worker
// with no later event to correct it.
func (m *Membership) rebuild() {
	m.mu.Lock()
	defer m.mu.Unlock()
	healthy := make([]string, 0, len(m.workers))
	for _, w := range m.workers {
		if m.fails[w] < probeFailThreshold {
			healthy = append(healthy, w)
		}
	}
	cur := m.ring.Load()
	next := NewRing(healthy)
	if cur != nil && sameMembers(cur.Members(), next.Members()) {
		return
	}
	var old []string
	if cur != nil {
		old = cur.Members()
	}
	m.ring.Store(next)
	gen := m.gen.Add(1)
	added, removed := diffMembers(old, next.Members())
	m.events.record(MemberEvent{
		Kind: EventRingRebuild, RingGen: gen,
		Added: added, Removed: removed, Healthy: next.Size(),
	})
	obs.ClusterWorkers.Set(int64(next.Size()))
	obs.ClusterMembershipSwapsTotal.Inc()
	obs.Logger().Info("cluster_membership",
		"healthy", next.Size(),
		"ring_gen", gen,
		"configured", len(m.workers))
}

func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a { // both sorted by NewRing
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Start launches the probe loop on the given interval; Stop ends it.
func (m *Membership) Start(interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	m.stop = make(chan struct{})
	m.stopped = make(chan struct{})
	go func() {
		defer close(m.stopped)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.probeAll()
			}
		}
	}()
}

// Stop terminates the probe loop and waits for it to exit.
func (m *Membership) Stop() {
	if m.stop == nil {
		return
	}
	close(m.stop)
	<-m.stopped
	m.stop = nil
}

// probeAll checks every configured worker's /readyz once and republishes the
// ring if any health state crossed the threshold. Probes run sequentially —
// the worker count is small and the probe timeout short.
func (m *Membership) probeAll() {
	changed := false
	for _, w := range m.Workers() {
		ok := m.probe(w)
		m.mu.Lock()
		was := m.fails[w] >= probeFailThreshold
		if ok {
			m.fails[w] = 0
		} else {
			m.fails[w]++
			obs.ClusterProbeFailuresTotal.Inc()
		}
		now := m.fails[w] >= probeFailThreshold
		m.mu.Unlock()
		if !ok && !was {
			// Record failed probes only while the worker still counts as
			// healthy: a dead worker failing every cycle would otherwise
			// flood the flight recorder and evict the events that matter.
			m.events.record(MemberEvent{
				Kind: EventProbeFail, Worker: w, Detail: "readyz",
				RingGen: m.gen.Load(), Healthy: m.Ring().Size(),
			})
		}
		if was != now {
			changed = true
			kind, detail := EventWorkerUp, "probe_ok"
			if now {
				kind, detail = EventWorkerDown, "probe_threshold"
			}
			m.events.record(MemberEvent{
				Kind: kind, Worker: w, Detail: detail,
				RingGen: m.gen.Load(), Healthy: m.Ring().Size(),
			})
			obs.Logger().Info("cluster_worker_health", "worker", w, "healthy", !now)
		}
	}
	if changed {
		m.rebuild()
	}
}

// probe is one readiness check: a 200 from /readyz. A draining or
// assignment-less worker answers 503 and is routed around, which is exactly
// the zero-downtime-restart contract.
func (m *Membership) probe(worker string) bool {
	resp, err := m.client.Get(worker + "/readyz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
