package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"semfeed/internal/core"
	"semfeed/internal/store"
)

const (
	// setupReps is how many times a run sets up, reporting the median.
	setupReps = 9
	// windowRequests is the window of the nominal phase over which a CPU
	// time per request and a peak heap are taken.
	windowRequests = 500
	// satPhases and satRequests shape the saturation measurement of a traced
	// run.
	satPhases   = 3
	satRequests = 3000
	// rungRequests is the number of requests of one ladder rung, enough for
	// its p99 to have more than ten samples beyond it.
	rungRequests = 1500
	// rungAttempts is how often a rung is measured before it counts as
	// failed: a single stall of the shared machine should not end the
	// ladder.
	rungAttempts = 3
	// checkShare is the part of requests whose 2xx report is re-graded in
	// process after the timed phase.
	checkShare = 0.02
	// tracedChunk is how many requests of a traced run go out between
	// switching the timing layers on and off.
	tracedChunk = 250
	// replaySources is how many sources a traced run replays layer by layer.
	replaySources = 400
	// allocSources is how many of those are replayed again to count
	// allocations.
	allocSources = 100
)

func runServe(r *run) error {
	shape := serveShapes[r.workload]
	senders := senderCount()
	inputs := inputsFor(r.workload, r.seed)

	var on atomic.Bool
	var sv *service
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := startService(senders, r.rec, &on)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			s.stop()
		} else {
			sv = s
		}
	}
	defer sv.stop()

	nominalN := int(shape.nominalRPS * r.seconds.Seconds())
	nominal := preparePhase(inputs, r.seed, 0, shape.nominalRPS, nominalN)
	grader := core.NewGrader(core.Options{})
	check := func(p phaseRun, outs []outcome, kept map[int][]byte) {
		for i, o := range outs {
			r.attempted++
			switch {
			case o.ok:
			case o.status == 0 || o.status == http.StatusTooManyRequests || o.status >= 500:
				r.failed++
			default:
				r.problem("request %s (broken=%v) got status %d, want %d", p.ids[i], p.subs[i].broken, o.status, expectedStatus(p.subs[i]))
			}
		}
		for i, body := range kept {
			if err := checkServed(grader, p.subs[i], body); err != nil {
				r.problem("request %s: %v", p.ids[i], err)
			}
		}
	}

	if r.traced {
		return serveTraced(r, sv, &on, nominal, inputs, check)
	}
	r.set("setup_s", median(setups), "s")

	// The nominal phase goes out in windows of windowRequests requests, each
	// measured for its CPU time per request and its peak heap.
	var cpus, heaps []float64
	for lo := 0; lo < len(nominal.subs); lo += windowRequests {
		hi := min(lo+windowRequests, len(nominal.subs))
		w := nominal.slice(lo, hi)
		r.heap.takePeakMB()
		cpu0 := cpuTime()
		outs, kept, _ := sv.openLoop(senders, w)
		cpu := cpuTime() - cpu0
		heaps = append(heaps, r.heap.takePeakMB())
		check(w, outs, kept)
		cpus = append(cpus, float64(cpu)/1e3/float64(len(outs)))
	}
	fmt.Printf("# nominal %g rps: %d requests in %d windows\n", shape.nominalRPS, len(nominal.subs), len(cpus))
	r.set("cpu_us_per_op", median(cpus), "us")
	r.set("peak_heap_mb", median(heaps), "MB")
	return nil
}

// tailLatency is the p99 of a phase's latencies in ms, the median over
// windows of 1000 requests.
func tailLatency(outs []outcome) (float64, error) {
	lat := make([]float64, len(outs))
	for i, o := range outs {
		lat[i] = o.latency() / 1e6
	}
	_, tails, beyond, err := perWindow(split(lat, 1000))
	if err != nil {
		return 0, err
	}
	fmt.Printf("# %d requests in %d windows; every window p99 has at least %d samples beyond it\n", len(outs), len(tails), beyond)
	return median(tails), nil
}

// saturation offers phases whose requests are all due at the start, so both
// connections stay busy, and returns the median rate of correct answers: the
// most the service sustains; a higher offered rate only grows the backlog.
func saturation(r *run, sv *service, inputs phaseInputs, check func(phaseRun, []outcome, map[int][]byte)) float64 {
	var rates []float64
	for k := 0; k < satPhases; k++ {
		p := preparePhase(inputs, r.seed, 1+k, math.Inf(1), satRequests)
		outs, kept, _ := sv.openLoop(senderCount(), p)
		check(p, outs, kept)
		rates = append(rates, summarizeRung(outs).goodput)
	}
	return median(rates)
}

// measureRung runs ladder rung k, retrying it with fresh requests until it
// passes or has failed rungAttempts times.
func measureRung(r *run, sv *service, inputs phaseInputs, k int, rate float64, check func(phaseRun, []outcome, map[int][]byte)) rungResult {
	var rr rungResult
	for attempt := 0; attempt < rungAttempts; attempt++ {
		p := preparePhase(inputs, r.seed, 1+satPhases+k*rungAttempts+attempt, rate, rungRequests)
		outs, kept, _ := sv.openLoop(senderCount(), p)
		check(p, outs, kept)
		rr = summarizeRung(outs)
		fmt.Printf("# rung %2d attempt %d: %6g rps, p99 %7.3f ms, growing=%v, backlog max %d, goodput %.1f/s\n",
			k, attempt, rate, float64(rr.p99)/1e6, rr.growing, backlogMax(outs), rr.goodput)
		if rr.passes() {
			break
		}
	}
	return rr
}

// servedResponse is the part of a response the traced run reads.
type servedResponse struct {
	Cached bool `json:"cached"`
	Report struct {
		Stats struct {
			TotalNS int64 `json:"total_ns"`
		} `json:"stats"`
	} `json:"report"`
}

// serveTraced replays the nominal phase in chunks with the timing layers
// alternately off and on, climbs the rate ladder, then replays part of the
// nominal phase's sources layer by layer.
func serveTraced(r *run, sv *service, on *atomic.Bool, nominal phaseRun, inputs phaseInputs, check func(phaseRun, []outcome, map[int][]byte)) error {
	reqHash := map[string]string{}
	for i, s := range nominal.subs {
		reqHash[nominal.ids[i]] = store.SourceHash(s.src)
	}
	keptCheck := map[int][]byte{}
	outs := make([]outcome, len(nominal.subs))
	traced := make([]bool, len(nominal.subs))
	resp := make(map[string]servedResponse)
	var tracedLat, plainLat, plainMids []float64
	var plainOuts []outcome
	backlog := 0
	mark := markRuntime()
	for lo, chunk := 0, 0; lo < len(nominal.subs); lo, chunk = lo+tracedChunk, chunk+1 {
		hi := min(lo+tracedChunk, len(nominal.subs))
		tr := chunk%2 == 1
		on.Store(tr)
		w := nominal.slice(lo, hi)
		for i := range w.keep {
			w.keep[i] = tr || w.keep[i]
		}
		o, kept, t0 := sv.openLoop(senderCount(), w)
		on.Store(false)
		backlog = max(backlog, backlogMax(o))
		if !tr {
			lat := make([]float64, len(o))
			for i, x := range o {
				lat[i] = x.latency() / 1e6
			}
			plainMids = append(plainMids, median(lat))
		}
		for i, x := range o {
			outs[lo+i] = x
			traced[lo+i] = tr
			if tr {
				tracedLat = append(tracedLat, x.latency())
				start := t0.Add(x.due)
				r.rec.record("loadgen.request", nominal.ids[lo+i], 0, start, t0.Add(x.done))
			} else {
				plainLat = append(plainLat, x.latency())
				plainOuts = append(plainOuts, x)
			}
		}
		for i, body := range kept {
			if nominal.keep[lo+i] {
				keptCheck[lo+i] = body
			}
			var sr servedResponse
			if tr && json.Unmarshal(body, &sr) == nil {
				resp[nominal.ids[lo+i]] = sr
			}
		}
	}
	mark.report(r, len(outs))

	// The output check covers the same seeded sample as the untraced run.
	check(nominal, outs, keptCheck)

	r.rec.link(reqHash)
	spans := r.rec.snapshot()
	self := selfTimes(spans)
	var handle, serverSelf, respBytes, getUS, putUS, transport []float64
	var gets, hits, status2xx, status422, status429, status5xx, cached int
	byReq := map[string]*span{}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "server.handle":
			byReq[s.ReqID] = s
			handle = append(handle, float64(s.dur())/1e3)
			respBytes = append(respBytes, float64(s.Attrs["bytes"]))
			st := s.Attrs["status"]
			switch {
			case st >= 200 && st < 300:
				status2xx++
			case st == 422:
				status422++
			case st == 429:
				status429++
			case st >= 500:
				status5xx++
			}
			if sr, ok := resp[s.ReqID]; ok {
				selfNS := float64(self[s.ID])
				if sr.Cached {
					cached++
				} else {
					selfNS -= float64(sr.Report.Stats.TotalNS)
				}
				serverSelf = append(serverSelf, selfNS/1e3)
			}
		case "store.get":
			gets++
			hits += int(s.Attrs["hit"])
			getUS = append(getUS, float64(s.dur())/1e3)
		case "store.put":
			putUS = append(putUS, float64(s.dur())/1e3)
		}
	}
	var late []float64
	for i, o := range outs {
		if !traced[i] {
			continue
		}
		late = append(late, float64(o.late())/1e6)
		if h, ok := byReq[nominal.ids[i]]; ok {
			transport = append(transport, float64(o.done-o.sent-h.dur())/1e3)
		}
	}
	p := func(xs []float64) float64 { v, _ := quantile(xs, 0.5); return v }
	lateP99, _ := quantile(late, 0.99)
	r.set("server.handle_us_p50", p(handle), "us")
	r.set("server.self_us", p(serverSelf), "us")
	r.set("server.cached_ratio", ratio(float64(cached), float64(status2xx)), "ratio")
	r.set("server.status_2xx", float64(status2xx), "count")
	r.set("server.status_422", float64(status422), "count")
	r.set("server.status_429", float64(status429), "count")
	r.set("server.status_5xx", float64(status5xx), "count")
	r.set("server.response_bytes_p50", p(respBytes), "bytes")
	r.set("store.get_us_p50", p(getUS), "us")
	r.set("store.put_us_p50", p(putUS), "us")
	r.set("store.hit_ratio", ratio(float64(hits), float64(gets)), "ratio")
	r.set("store.entries_end", float64(sv.store.Len()), "count")
	r.set("loadgen.late_ms_p99", lateP99, "ms")
	r.set("loadgen.backlog_max", float64(backlog), "count")
	r.set("loadgen.transport_us_p50", p(transport), "us")
	r.set("trace.overhead_ratio", ratio(median(tracedLat), median(plainLat)), "ratio")

	// The rate ladder: the highest rung whose p99 stays within latencyLimit
	// with no growing backlog.
	var rungs []rungResult
	for k, rate := range serveShapes[r.workload].rungs {
		rr := measureRung(r, sv, inputs, k, rate, check)
		rungs = append(rungs, rr)
		if !rr.passes() {
			break
		}
	}
	ladderMax := 0.0
	if i := highestPassing(rungs); i >= 0 {
		ladderMax = rungs[i].goodput
	}
	r.set("loadgen.ladder_max_rps", ladderMax, "1/s")
	p99, err := tailLatency(plainOuts)
	if err != nil {
		return err
	}
	r.set("latency.p50_ms", median(plainMids), "ms")
	r.set("latency.p99_ms", p99, "ms")
	r.set("throughput.ops_per_s", saturation(r, sv, inputs, check), "1/s")

	var subs []submission
	var ids []string
	for i := 0; i < len(nominal.subs) && len(subs) < replaySources; i++ {
		subs = append(subs, nominal.subs[i])
		ids = append(ids, nominal.ids[i])
	}
	replayLayers(r, subs, ids)
	return nil
}

// backlogMax is the largest number of requests that were due but not yet
// sent at any instant.
func backlogMax(outs []outcome) int {
	type ev struct {
		t time.Duration
		d int
	}
	evs := make([]ev, 0, 2*len(outs))
	for _, o := range outs {
		evs = append(evs, ev{o.due, 1}, ev{o.sent, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].d < evs[j].d
	})
	cur, peak := 0, 0
	for _, e := range evs {
		cur += e.d
		peak = max(peak, cur)
	}
	return peak
}
