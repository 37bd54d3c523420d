package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"semfeed/internal/store"
)

func workerURLs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return out
}

func sampleKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		// Routing keys as the coordinator builds them: assignment + hash.
		out[i] = RouteKey(fmt.Sprintf("assignment%d", i%12), fmt.Sprintf("%064d", i))
	}
	return out
}

// TestRingBalance pins the distribution quality the vnode count buys: over
// 4 workers and 20k keys, every worker's share must be within ±25% of the
// fair share.
func TestRingBalance(t *testing.T) {
	const nWorkers, nKeys = 4, 20000
	ring := NewRing(workerURLs(nWorkers))
	counts := map[string]int{}
	for _, k := range sampleKeys(nKeys) {
		counts[ring.Lookup(k)]++
	}
	if len(counts) != nWorkers {
		t.Fatalf("keys landed on %d workers, want %d", len(counts), nWorkers)
	}
	fair := float64(nKeys) / nWorkers
	for w, n := range counts {
		if ratio := float64(n) / fair; ratio < 0.75 || ratio > 1.25 {
			t.Errorf("worker %s owns %d keys (%.2fx fair share %.0f), outside ±25%%", w, n, ratio, fair)
		}
	}
}

// TestRingRemapBound pins the consistent-hashing contract: membership
// changes move only the necessary keys.
func TestRingRemapBound(t *testing.T) {
	const nWorkers, nKeys = 4, 20000
	workers := workerURLs(nWorkers)
	keys := sampleKeys(nKeys)
	full := NewRing(workers)

	before := make([]string, nKeys)
	for i, k := range keys {
		before[i] = full.Lookup(k)
	}

	// Removing one worker must move exactly that worker's keys: any key it
	// did not own keeps its owner (a structural property of the ring, not a
	// statistical one).
	removed := workers[1]
	smaller := NewRing(append(append([]string{}, workers[:1]...), workers[2:]...))
	movedOnRemove := 0
	for i, k := range keys {
		after := smaller.Lookup(k)
		if before[i] == removed {
			movedOnRemove++
			continue
		}
		if after != before[i] {
			t.Fatalf("key %q moved %s → %s though %s was the one removed", k, before[i], after, removed)
		}
	}
	if movedOnRemove == 0 {
		t.Fatal("removed worker owned zero keys — balance test should have caught this")
	}

	// Adding one worker to N must move at most ~K/(N+1) keys (its fair
	// share, with 35% slack for hash variance).
	bigger := NewRing(append(append([]string{}, workers...), "http://10.0.0.99:8080"))
	movedOnAdd := 0
	for i, k := range keys {
		if bigger.Lookup(k) != before[i] {
			movedOnAdd++
		}
	}
	bound := int(float64(nKeys) / float64(nWorkers+1) * 1.35)
	if movedOnAdd > bound {
		t.Errorf("adding 1 of %d workers moved %d/%d keys, want <= %d (~K/N)", nWorkers+1, movedOnAdd, nKeys, bound)
	}
	if movedOnAdd == 0 {
		t.Error("adding a worker moved zero keys")
	}
}

func TestRingLookupN(t *testing.T) {
	ring := NewRing(workerURLs(3))
	key := RouteKey("assignment1", "abc")
	replicas := ring.LookupN(key, 5) // more than members: capped, distinct
	if len(replicas) != 3 {
		t.Fatalf("LookupN returned %d members, want 3", len(replicas))
	}
	seen := map[string]bool{}
	for _, r := range replicas {
		if seen[r] {
			t.Fatalf("duplicate replica %s", r)
		}
		seen[r] = true
	}
	if replicas[0] != ring.Lookup(key) {
		t.Fatal("LookupN[0] disagrees with Lookup")
	}
	if got := NewRing(nil).Lookup(key); got != "" {
		t.Fatalf("empty ring Lookup = %q, want \"\"", got)
	}
}

// TestMembershipConcurrentSwapDuringRouting hammers Ring() lookups while
// membership flips workers in and out; run with -race this pins the
// atomic-snapshot publication.
func TestMembershipConcurrentSwapDuringRouting(t *testing.T) {
	workers := workerURLs(4)
	m := NewMembership(workers, nil)
	keys := sampleKeys(512)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				ring := m.Ring()
				for _, k := range keys {
					owner := ring.Lookup(k)
					if ring.Size() > 0 && owner == "" {
						t.Error("non-empty ring returned empty owner")
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			m.ReportFailure(workers[i%len(workers)])
			m.mu.Lock()
			m.fails[workers[i%len(workers)]] = 0 // what a probe success does
			m.mu.Unlock()
			m.rebuild()
		}
		stop.Store(true)
	}()
	wg.Wait()

	if got := m.Ring().Size(); got != 4 {
		t.Fatalf("after recovery ring has %d workers, want 4", got)
	}
}

func TestMembershipReportFailureAndRecovery(t *testing.T) {
	workers := workerURLs(3)
	m := NewMembership(workers, nil)
	if m.Ring().Size() != 3 {
		t.Fatalf("initial ring size %d, want 3", m.Ring().Size())
	}
	m.ReportFailure(workers[0])
	if m.Ring().Size() != 2 {
		t.Fatalf("ring size after failure %d, want 2", m.Ring().Size())
	}
	for _, w := range m.Ring().Members() {
		if w == workers[0] {
			t.Fatal("failed worker still in ring")
		}
	}
	// A probe success restores it.
	m.mu.Lock()
	m.fails[workers[0]] = 0
	m.mu.Unlock()
	m.rebuild()
	if m.Ring().Size() != 3 {
		t.Fatalf("ring size after recovery %d, want 3", m.Ring().Size())
	}
}

// TestPeerFillAgreesWithCoordinatorRing pins that a worker's peer-fill ring
// and the coordinator's routing ring name the same owner for every key: both
// are built with DefaultVNodes, so a worker asks exactly the peer the
// coordinator routed the key to. Trailing slashes on the peer list must not
// change ownership either.
func TestPeerFillAgreesWithCoordinatorRing(t *testing.T) {
	workers := workerURLs(4)
	coord := NewMembership(workers, nil).Ring()
	peers := make([]string, len(workers))
	for i, w := range workers {
		peers[i] = w + "/"
	}
	pf := NewPeerFill(store.NewMemory(1), peers[0], peers, nil).(*store.Tiered)
	fill := pf.Fallback.(*peerRing).ring.Load()
	for _, k := range sampleKeys(2000) {
		if got, want := fill.Lookup(k), coord.Lookup(k); got != want {
			t.Fatalf("key %q: peer fill asks %s, coordinator routes to %s", k, got, want)
		}
	}
}
