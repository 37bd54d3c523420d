// Command semfeedbench is the repository's benchmark. It runs one workload
// against the grader built from this checkout and prints every metric by
// name with its unit; the last line of standard output is a JSON object with
// the keys correct, attempted, failed and metrics.
//
//	bash semfeedbench/run.sh --workload serve-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same workload with spans around the calls into each layer, replays the
// graded sources layer by layer, and reports the per-layer metrics. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// workloads maps each workload name to its run function.
var workloads = map[string]func(*run) error{
	"tableone":          runTableGrade,
	"tableone-functest": runTableFunctest,
	"serve-cold":        runServe,
	"serve-resubmit":    runServe,
}

// run is one invocation: its parameters, the metrics it produces and the
// outcome of its output checks.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool

	attempted, failed int
	problems          []string // failed output checks
	metrics           map[string]metricValue
	rec               *recorder // spans of a traced run
	heap              *heapWatch
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// problem records a failed output check.
func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		fmt.Println("CHECK FAILED:", msg)
	}
	r.problems = append(r.problems, msg)
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 0, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: semfeedbench --workload %s --seed N --seconds S --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		metrics:  map[string]metricValue{},
		heap:     watchHeap(),
	}
	if r.traced {
		r.rec = newRecorder()
	}
	meta := metadata(r)
	fmt.Println("#", meta.String())
	err := fn(r)
	r.heap.stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "semfeedbench:", err)
		os.Exit(1)
	}
	if r.traced {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
		if err := writeSpans(path, meta, r.rec.snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "semfeedbench: write spans:", err)
			os.Exit(1)
		}
		fmt.Println("# spans written to", path)
	}
	r.print()
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// print writes every metric by name with its unit, then the result line.
func (r *run) print() {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d, failed %d, output checks failed %d\n", r.attempted, r.failed, len(r.problems))
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(r.problems) == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "semfeedbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runMeta is the machine and run description recorded with every run.
type runMeta struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Load       string `json:"load,omitempty"`
}

func metadata(r *run) runMeta {
	m := runMeta{
		Workload: r.workload, Seed: r.seed, Seconds: int(r.seconds / time.Second), Trace: r.traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), CPU: cpuModel(),
	}
	if s, ok := serveShapes[r.workload]; ok {
		m.Load = fmt.Sprintf("open loop, %d senders, nominal %g rps, ladder %g..%g rps in %d rungs",
			senderCount(), s.nominalRPS, s.rungs[0], s.rungs[len(s.rungs)-1], len(s.rungs))
	} else {
		m.Load = fmt.Sprintf("closed loop, %d submissions per assignment per pass", tableSample)
	}
	return m
}

func (m runMeta) String() string {
	b, _ := json.Marshal(m)
	return string(b)
}

// cpuModel reads the processor name from /proc/cpuinfo, where there is one.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// heapWatch samples the bytes of live and not-yet-swept heap objects every
// few milliseconds and keeps the peak since the last takePeakMB.
type heapWatch struct {
	done chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.peak = max(h.peak, s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// takePeakMB returns the peak since the previous call, or since the start,
// and starts the next peak from the heap as it is now.
func (h *heapWatch) takePeakMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	now := s[0].Value.Uint64()
	h.mu.Lock()
	defer h.mu.Unlock()
	peak := max(h.peak, now)
	h.peak = now
	return float64(peak) / (1 << 20)
}

// stop ends the sampler and waits for it; calling it twice is harmless.
func (h *heapWatch) stop() {
	select {
	case <-h.done:
	default:
		close(h.done)
	}
	h.wg.Wait()
}
