package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"semfeed/internal/assignments"
	"semfeed/internal/core"
	"semfeed/internal/server"
	"semfeed/internal/store"
)

// Serving workloads: open-loop Poisson traffic against an in-process
// server.New on loopback, with the default server.Config.

// latencyLimit is the p99 a ladder rung must meet.
const latencyLimit = 10 * time.Millisecond

// storeEntries is the default result-store capacity (server.Config.CacheSize).
const storeEntries = 4096

// serveShape fixes a serving workload's load: the nominal rate at which
// latency is reported, and the rate ladder searched for the highest rate
// that meets latencyLimit. Both are constants, not derived at run time, so a
// faster program faces the same load.
type serveShape struct {
	nominalRPS float64
	rungs      []float64
}

var serveShapes = map[string]serveShape{
	"serve-cold":     {nominalRPS: 400, rungs: ladder(1200, 1.1, 24)},
	"serve-resubmit": {nominalRPS: 1000, rungs: ladder(4000, 1.1, 24)},
}

// ladder returns n geometric rates from lo.
func ladder(lo, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Round(lo * math.Pow(step, float64(i)))
	}
	return out
}

// phaseInputs returns the submissions of one phase of a serving workload.
// Phase 0 is the nominal-rate phase; the ladder rungs follow (see measureRung).
type phaseInputs func(phase, n int) []submission

func inputsFor(workload string, seed int64) phaseInputs {
	if workload == "serve-resubmit" {
		pool := resubmitPool(seed)
		return func(phase, n int) []submission { return resubmitPhase(pool, seed, phase, n) }
	}
	return func(phase, n int) []submission { return coldPhase(seed, phase, n) }
}

// service is one running in-process grading server plus its client.
type service struct {
	srv     *server.Server
	url     string
	client  *http.Client
	httpSrv *http.Server // traced runs serve the wrapped handler themselves
	store   store.Store  // the timing store of a traced run
	errc    <-chan error
}

// startService builds the registry and server exactly as semfeedd does with
// its defaults, starts it on loopback and warms it up: every assignment's
// reference is graded once and resubmitted once. With rec set, the handler
// and the result store are wrapped in the timing layers (inactive until on is
// set).
func startService(senders int, rec *recorder, on *atomic.Bool) (*service, error) {
	reg := server.NewRegistry("", nil)
	for _, a := range assignments.All() {
		reg.AddBuiltin(a.ID, a.Spec)
	}
	if err := reg.Load(); err != nil {
		return nil, fmt.Errorf("load registry: %w", err)
	}
	cfg := server.Config{Registry: reg}
	sv := &service{}
	if rec != nil {
		sv.store = timedStore{Store: store.NewMemory(storeEntries), rec: rec, on: on}
		cfg.Store = sv.store
	}
	sv.srv = server.New(cfg)
	if rec == nil {
		errc, err := sv.srv.Start("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		sv.errc = errc
		sv.url = "http://" + sv.srv.Addr() + "/v1/grade"
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		sv.httpSrv = &http.Server{Handler: timedHandler{next: sv.srv.Handler(), rec: rec, on: on}}
		errc := make(chan error, 1)
		go func() { errc <- sv.httpSrv.Serve(ln) }()
		sv.errc = errc
		sv.url = "http://" + ln.Addr().String() + "/v1/grade"
	}
	sv.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     senders,
			MaxIdleConnsPerHost: senders,
			DisableCompression:  true,
		},
	}
	for _, a := range assignments.All() {
		body, _ := json.Marshal(server.GradeRequest{Assignment: a.ID, Source: a.Reference()})
		for i := 0; i < 2; i++ {
			status, _, err := sv.post(body, "warmup")
			if err != nil || status != http.StatusOK {
				sv.stop()
				return nil, fmt.Errorf("warm-up %s: status %d, %v", a.ID, status, err)
			}
		}
	}
	return sv, nil
}

func (sv *service) post(body []byte, reqID string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, sv.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	resp, err := sv.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// stop drains the server and waits until its serving goroutine has ended.
func (sv *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if sv.httpSrv != nil {
		_ = sv.httpSrv.Shutdown(ctx)
	} else {
		_ = sv.srv.Shutdown(ctx)
	}
	<-sv.errc
	sv.client.CloseIdleConnections()
}

// outcome is one request of an open-loop phase. Times are offsets from the
// phase start.
type outcome struct {
	due, sent, done time.Duration
	status          int // 0 on a transport error
	ok              bool
}

// latency is the request's latency from its due send time; failed requests
// count as infinitely late.
func (o outcome) latency() float64 {
	if !o.ok {
		return math.Inf(1)
	}
	return float64(o.done - o.due)
}

func (o outcome) late() time.Duration { return o.sent - o.due }

// expectedStatus is the answer a submission must get.
func expectedStatus(s submission) int {
	if s.broken {
		return http.StatusUnprocessableEntity
	}
	return http.StatusOK
}

// openLoop sends p's request i at start+p.dues[i] from `senders` goroutines,
// each with its own keep-alive connection. A sender that is busy when a
// request falls due sends it as soon as it is free; the request's latency
// still runs from its due time. p.keep[i] retains the response body for the
// output check. It returns the outcomes, the kept bodies and the phase start.
func (sv *service) openLoop(senders int, p phaseRun) ([]outcome, map[int][]byte, time.Time) {
	out := make([]outcome, len(p.subs))
	kept := map[int][]byte{}
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sl, err := newSleeper()
			if err != nil {
				panic(err)
			}
			defer sl.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.subs) {
					return
				}
				s := p.subs[i]
				req, _ := json.Marshal(server.GradeRequest{Assignment: s.a.ID, Source: s.src}) // strings always encode
				if d := time.Until(start.Add(p.dues[i])); d > 0 {
					sl.sleep(d)
				}
				sent := time.Since(start)
				status, body, err := sv.post(req, p.ids[i])
				o := outcome{due: p.dues[i], sent: sent, done: time.Since(start), status: status}
				if err != nil {
					o.status = 0
				}
				o.ok = o.status == expectedStatus(s)
				out[i] = o
				if p.keep[i] && o.ok && o.status == http.StatusOK {
					mu.Lock()
					kept[i] = body
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return out, kept, start
}

// sleeper waits on a Linux timerfd read through the runtime's network
// poller. time.Sleep rounds short waits up to about a millisecond when the
// process is idle, which would add that much to every latency measured from
// the due time; a blocking nanosleep would hold a P that the server needs.
type sleeper struct {
	f  *os.File
	fd uintptr
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep waits d > 0.
func (s *sleeper) sleep(d time.Duration) {
	// struct itimerspec: it_interval {sec, nsec}, then it_value {sec, nsec}.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		panic(fmt.Sprintf("timerfd_settime: %v", errno))
	}
	var buf [8]byte
	if _, err := s.f.Read(buf[:]); err != nil {
		panic(fmt.Sprintf("timerfd read: %v", err))
	}
}

func (s *sleeper) close() { s.f.Close() }

// phaseRun is one prepared phase: inputs, request IDs and schedule. Request
// bodies are encoded as they go out, so the benchmark's own inputs stay a
// small part of the heap.
type phaseRun struct {
	subs []submission
	ids  []string
	dues []time.Duration
	keep []bool
}

// preparePhase generates a phase's inputs; about checkShare of its requests
// are kept for the output check. An infinite rate makes every request due
// at the phase start.
func preparePhase(inputs phaseInputs, seed int64, phase int, rate float64, n int) phaseRun {
	p := phaseRun{subs: inputs(phase, n), dues: poissonSchedule(seed, phase, rate, n)}
	p.ids = make([]string, n)
	p.keep = make([]bool, n)
	cr := newRand(seed, streamCheck, phase)
	for i := range p.subs {
		p.ids[i] = fmt.Sprintf("b%d-%d-%d", seed, phase, i)
		p.keep[i] = cr.Float64() < checkShare
	}
	return p
}

// slice returns requests [lo, hi) as a phase of their own, due times
// counted from the first of them.
func (p phaseRun) slice(lo, hi int) phaseRun {
	w := phaseRun{
		subs: p.subs[lo:hi], ids: p.ids[lo:hi],
		dues: make([]time.Duration, hi-lo), keep: append([]bool(nil), p.keep[lo:hi]...),
	}
	for i := range w.dues {
		w.dues[i] = p.dues[lo+i] - p.dues[lo]
	}
	return w
}

// rungResult summarises one ladder rung.
type rungResult struct {
	failed  int
	p99     time.Duration // failed requests count as over any limit
	growing bool          // the generator fell further behind during the rung
	goodput float64       // requests answered correctly per second of the rung
}

func (r rungResult) passes() bool {
	return r.failed == 0 && r.p99 <= latencyLimit && !r.growing
}

// summarizeRung computes a rung's verdict from its outcomes. The backlog
// grows when the median lateness of the rung's last quarter of requests
// exceeds that of its first quarter by more than a millisecond: below
// capacity lateness stays flat, above it every request waits longer than
// the one before.
func summarizeRung(outs []outcome) rungResult {
	var r rungResult
	lat := make([]float64, len(outs))
	var last time.Duration
	good := 0
	for i, o := range outs {
		lat[i] = o.latency()
		if o.ok {
			good++
		} else {
			r.failed++
		}
		last = max(last, o.done)
	}
	p99, _ := quantile(lat, 0.99)
	if math.IsInf(p99, 1) {
		r.p99 = time.Duration(math.MaxInt64)
	} else {
		r.p99 = time.Duration(p99)
	}
	q := len(outs) / 4
	if q > 0 {
		first := make([]float64, q)
		lastQ := make([]float64, q)
		for i := 0; i < q; i++ {
			first[i] = float64(outs[i].late())
			lastQ[i] = float64(outs[len(outs)-q+i].late())
		}
		r.growing = median(lastQ)-median(first) > float64(time.Millisecond)
	}
	if last > 0 {
		r.goodput = float64(good) / last.Seconds()
	}
	return r
}

// highestPassing returns the index of the last rung before the first failing
// one, or -1 when the first rung already fails.
func highestPassing(rungs []rungResult) int {
	for i, r := range rungs {
		if !r.passes() {
			return i - 1
		}
	}
	return len(rungs) - 1
}

// comparableReport is the part of a report the output check compares:
// comments, statuses and score. Timing fields and work counters are not
// compared.
type comparableReport struct {
	Assignment string
	Comments   []core.Comment
	Score      float64
	MaxScore   float64
	Matched    bool
	Bindings   map[string]string
}

// checkServed re-grades a kept response's source in process and compares.
func checkServed(g *core.Grader, s submission, body []byte) error {
	var resp server.GradeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	var got comparableReport
	if err := json.Unmarshal(resp.Report, &got); err != nil {
		return fmt.Errorf("decode served report: %w", err)
	}
	rep, err := g.Grade(s.src, s.a.Spec)
	if err != nil {
		return fmt.Errorf("in-process grade: %w", err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	var want comparableReport
	if err := json.Unmarshal(raw, &want); err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return errors.New("served report differs from the in-process grade")
	}
	return nil
}

// senderCount is the number of sender goroutines and connections.
func senderCount() int { return runtime.NumCPU() }
