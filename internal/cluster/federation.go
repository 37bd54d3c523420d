package cluster

// Metrics federation and the fleet statusz pane. The coordinator scrapes each
// worker's /statusz and /metrics.json concurrently on demand, keeps the last
// good scrape per worker, and serves:
//
//	GET /v1/cluster/statusz      — the single pane: per-worker health, build,
//	                               SLO windows, store occupancy, ring share,
//	                               scrape staleness, the flight recorder tail.
//	GET /v1/cluster/metrics.json — cluster-wide rollup (counters summed,
//	                               same-bounds histograms merged bucketwise)
//	                               plus a per-worker breakdown bounded by
//	                               maxWorkerSeries.
//	GET /v1/events               — the membership flight recorder.
//
// A worker that fails a scrape degrades, never errors: its last-good data is
// served marked stale with the scrape error attached, and
// semfeed_cluster_scrape_errors_total counts the failure.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"semfeed/internal/obs"
	"semfeed/internal/server"
)

// maxWorkerSeries bounds the per-worker breakdown of the federated metrics
// payload: beyond this many workers the remainder is folded into one "_other"
// rollup, so fleet growth cannot blow up the exposition's cardinality.
const maxWorkerSeries = 64

// maxScrapeBytes caps one worker's statusz/metrics response.
const maxScrapeBytes = 8 << 20

// scrapeReuseWindow is how long a completed scrape satisfies subsequent
// requests: dashboards polling the coordinator at 1Hz must not multiply into
// a per-request fan-out against every worker.
const scrapeReuseWindow = time.Second

// workerScrape is one worker's latest scrape state: the last good payloads
// plus the error that made them stale, if any.
type workerScrape struct {
	At       time.Time    // when the last *successful* scrape completed
	Statusz  obs.Statusz  // last good /statusz
	Snapshot obs.Snapshot // last good /metrics.json
	Good     bool         // ever scraped successfully
	Err      string       // last failure ("" when the latest scrape succeeded)
	ErrAt    time.Time
}

// federator owns the scrape cache. All methods are safe for concurrent use.
type federator struct {
	mu      sync.Mutex
	cache   map[string]*workerScrape
	lastRun time.Time
}

func newFederator() *federator {
	return &federator{cache: map[string]*workerScrape{}}
}

// scrapeAll refreshes every configured worker concurrently, bounded by
// timeout, and returns the post-refresh cache copy. Within scrapeReuseWindow
// of the previous run it serves the cache as-is.
func (c *Coordinator) scrapeAll(ctx context.Context) map[string]workerScrape {
	f := c.fed
	f.mu.Lock()
	if time.Since(f.lastRun) < scrapeReuseWindow {
		out := f.copyLocked()
		f.mu.Unlock()
		return out
	}
	f.lastRun = time.Now()
	f.mu.Unlock()

	workers := c.members.Workers()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(worker string) {
			defer wg.Done()
			c.scrapeOne(ctx, worker)
		}(w)
	}
	wg.Wait()

	f.mu.Lock()
	defer f.mu.Unlock()
	return f.copyLocked()
}

func (f *federator) copyLocked() map[string]workerScrape {
	out := make(map[string]workerScrape, len(f.cache))
	for k, v := range f.cache {
		out[k] = *v
	}
	return out
}

// scrapeOne fetches one worker's /statusz and /metrics.json and folds the
// result into the cache — last-good retained on failure.
func (c *Coordinator) scrapeOne(ctx context.Context, worker string) {
	ctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
	defer cancel()
	var sz obs.Statusz
	var snap obs.Snapshot
	err := c.fetchJSON(ctx, worker+"/statusz", &sz)
	if err == nil {
		err = c.fetchJSON(ctx, worker+"/metrics.json", &snap)
	}

	f := c.fed
	f.mu.Lock()
	defer f.mu.Unlock()
	ws := f.cache[worker]
	if ws == nil {
		ws = &workerScrape{}
		f.cache[worker] = ws
	}
	if err != nil {
		obs.ClusterScrapeErrorsTotal.Inc()
		ws.Err = err.Error()
		ws.ErrAt = time.Now()
		return
	}
	ws.At = time.Now()
	ws.Statusz = sz
	ws.Snapshot = snap
	ws.Good = true
	ws.Err = ""
}

// fetchJSON GETs url and decodes the JSON body into v, bounded by ctx and
// maxScrapeBytes.
func (c *Coordinator) fetchJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxScrapeBytes)).Decode(v)
}

// ---------------------------------------------------------------------------
// Cluster statusz

// WorkerStatus is one worker's row in the fleet pane.
type WorkerStatus struct {
	Worker  string `json:"worker"`
	Healthy bool   `json:"healthy"` // in the routing ring right now
	// Stale means the data below is from an earlier successful scrape — the
	// latest attempt failed (Error says why). Never-scraped workers have
	// Stale true and zero data.
	Stale           bool                    `json:"stale"`
	ScrapeAgeSecs   float64                 `json:"scrape_age_seconds"`
	Error           string                  `json:"error,omitempty"`
	Build           obs.BuildInfo           `json:"build"`
	UptimeSeconds   float64                 `json:"uptime_seconds"`
	SLO             map[string]obs.SLOStats `json:"slo,omitempty"`
	RingShare       float64                 `json:"ring_share"`
	StoreEntries    int64                   `json:"store_entries"`
	StoreBytes      int64                   `json:"store_bytes"`
	GradesInflight  int64                   `json:"grades_inflight"`
	TracesRetained  int                     `json:"traces_retained"`
	HeapBytes       int64                   `json:"heap_bytes"`
	Goroutines      int64                   `json:"goroutines"`
	RequestsServed  int64                   `json:"requests_served"`
	RequestsShedded int64                   `json:"requests_shed"`
}

// ClusterStatusz is the GET /v1/cluster/statusz payload.
type ClusterStatusz struct {
	UptimeSeconds     float64                 `json:"uptime_seconds"` // coordinator's
	Build             obs.BuildInfo           `json:"build"`          // coordinator's
	RingGeneration    uint64                  `json:"ring_generation"`
	WorkersConfigured int                     `json:"workers_configured"`
	WorkersHealthy    int                     `json:"workers_healthy"`
	ScrapeErrorsTotal int64                   `json:"scrape_errors_total"`
	SLO               map[string]obs.SLOStats `json:"slo"`       // coordinator's (client-visible)
	FleetSLO          map[string]obs.SLOStats `json:"fleet_slo"` // merged across workers
	Workers           []WorkerStatus          `json:"workers"`
	EventCounts       map[string]int64        `json:"event_counts"`
	RecentEvents      []MemberEvent           `json:"recent_events"`
}

// handleClusterStatusz assembles the fleet pane: a concurrent scrape of every
// worker folded with membership health, ring shares and the flight recorder.
func (c *Coordinator) handleClusterStatusz(w http.ResponseWriter, req *http.Request) {
	scrapes := c.scrapeAll(req.Context())
	health := c.members.HealthSnapshot()
	shares := c.members.Ring().Shares()
	local := obs.TakeStatusz()

	out := ClusterStatusz{
		UptimeSeconds:     local.UptimeSeconds,
		Build:             local.Build,
		RingGeneration:    c.members.RingGeneration(),
		WorkersConfigured: len(c.members.Workers()),
		WorkersHealthy:    c.members.Ring().Size(),
		ScrapeErrorsTotal: obs.ClusterScrapeErrorsTotal.Value(),
		SLO:               local.SLO,
		EventCounts:       c.members.EventCounts(),
		RecentEvents:      c.members.Events(32),
	}

	var fleet1m, fleet5m []obs.SLOStats
	for _, worker := range c.members.Workers() {
		ws := scrapes[worker]
		row := WorkerStatus{
			Worker:        worker,
			Healthy:       health[worker],
			Stale:         !ws.Good || ws.Err != "",
			Error:         ws.Err,
			RingShare:     shares[worker],
			Build:         ws.Statusz.Build,
			UptimeSeconds: ws.Statusz.UptimeSeconds,
			SLO:           ws.Statusz.SLO,
		}
		if ws.Good {
			row.ScrapeAgeSecs = time.Since(ws.At).Seconds()
			g := ws.Statusz.Gauges
			row.StoreEntries = g["semfeed_store_disk_entries"]
			row.StoreBytes = g["semfeed_store_disk_bytes"]
			row.GradesInflight = g["semfeed_grades_inflight"]
			row.TracesRetained = ws.Statusz.Traces.Stored
			row.HeapBytes = ws.Statusz.Runtime.HeapBytes
			row.Goroutines = ws.Statusz.Runtime.Goroutines
			row.RequestsServed = ws.Snapshot.Counter("semfeed_server_requests_total")
			row.RequestsShedded = ws.Snapshot.Counter("semfeed_server_rejected_total")
			if s, ok := ws.Statusz.SLO["1m"]; ok {
				fleet1m = append(fleet1m, s)
			}
			if s, ok := ws.Statusz.SLO["5m"]; ok {
				fleet5m = append(fleet5m, s)
			}
		}
		out.Workers = append(out.Workers, row)
	}
	out.FleetSLO = map[string]obs.SLOStats{
		"1m": obs.MergeSLOStats(fleet1m),
		"5m": obs.MergeSLOStats(fleet5m),
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// ---------------------------------------------------------------------------
// Federated metrics

// ClusterMetrics is the GET /v1/cluster/metrics.json payload: the cluster-wide
// rollup over worker snapshots plus a per-worker breakdown — the "worker
// label" of the federation, bounded by maxWorkerSeries with the overflow
// folded into "_other".
type ClusterMetrics struct {
	Cluster obs.Snapshot            `json:"cluster"`
	Workers map[string]obs.Snapshot `json:"workers"`
	// Stale lists workers whose snapshot is a retained last-good (latest
	// scrape failed); Missing lists workers never scraped successfully.
	Stale   []string `json:"stale,omitempty"`
	Missing []string `json:"missing,omitempty"`
}

// handleClusterMetrics serves the federated snapshot.
func (c *Coordinator) handleClusterMetrics(w http.ResponseWriter, req *http.Request) {
	scrapes := c.scrapeAll(req.Context())
	workers := c.members.Workers()
	sort.Strings(workers)

	out := ClusterMetrics{Workers: map[string]obs.Snapshot{}}
	var parts []obs.Snapshot
	var overflow []obs.Snapshot
	for _, worker := range workers {
		ws := scrapes[worker]
		if !ws.Good {
			out.Missing = append(out.Missing, worker)
			continue
		}
		if ws.Err != "" {
			out.Stale = append(out.Stale, worker)
		}
		parts = append(parts, ws.Snapshot)
		if len(out.Workers) < maxWorkerSeries {
			out.Workers[worker] = ws.Snapshot
		} else {
			overflow = append(overflow, ws.Snapshot)
		}
	}
	if len(overflow) > 0 {
		out.Workers["_other"] = obs.MergeSnapshots(overflow)
	}
	out.Cluster = obs.MergeSnapshots(parts)
	server.WriteJSON(w, http.StatusOK, out)
}

// ---------------------------------------------------------------------------
// Flight recorder endpoint

// EventsResponse is the GET /v1/events payload.
type EventsResponse struct {
	RingGeneration uint64           `json:"ring_generation"`
	Counts         map[string]int64 `json:"counts"`
	Events         []MemberEvent    `json:"events"` // newest first
}

// handleEvents serves the membership flight recorder (?n= caps the tail;
// default everything retained).
func (c *Coordinator) handleEvents(w http.ResponseWriter, req *http.Request) {
	n := 0
	if s := req.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			server.WriteError(w, http.StatusBadRequest, "n must be a non-negative integer")
			return
		}
		n = v
	}
	server.WriteJSON(w, http.StatusOK, EventsResponse{
		RingGeneration: c.members.RingGeneration(),
		Counts:         c.members.EventCounts(),
		Events:         c.members.Events(n),
	})
}
