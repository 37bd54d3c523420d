package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"time"

	"semfeed/internal/assignments"
	"semfeed/internal/core"
	"semfeed/internal/functest"
	"semfeed/internal/interp"
	"semfeed/internal/java/parser"
)

// Table I workloads: closed-loop sweeps over all twelve assignments, one
// pass after another until --seconds of passes have been measured. Pass p
// grades (or functionally tests) synth.SampleSeed samples of tableSample
// submissions per assignment, drawn with passSampleSeed(seed, p).

// tableOneD is the discrepancies column of BENCH_tableone.json: the number
// of seed-0 Table I sample submissions per assignment whose grade verdict
// (every comment Correct) differs from the functional-test verdict.
var tableOneD = map[string]int{
	"assignment1":       0,
	"esc-LAB-3-P1-V1":   9,
	"esc-LAB-3-P2-V1":   4,
	"esc-LAB-3-P2-V2":   6,
	"esc-LAB-3-P3-V1":   6,
	"esc-LAB-3-P3-V2":   1,
	"esc-LAB-3-P4-V1":   32,
	"esc-LAB-3-P4-V2":   0,
	"mitx-derivatives":  0,
	"mitx-polynomials":  0,
	"rit-all-g-medals":  15,
	"rit-medals-by-ath": 24,
}

// timedPasses runs pass(p) for p = 0, 1, ... until the passes' own measured
// time reaches d. Input generation happens outside the measured time.
func timedPasses(d time.Duration, pass func(p int) time.Duration) int {
	var measured time.Duration
	p := 0
	for ; measured < d; p++ {
		measured += pass(p)
	}
	return p
}

// gradePass batch-grades one pass, assignment by assignment, with the
// default pool size. It returns the reports in pass order and the summed
// wall time of the GradeAll calls.
func gradePass(bg *core.BatchGrader, srcs [][]tableSource, rec *recorder, root int64) ([][]core.BatchResult, time.Duration) {
	out := make([][]core.BatchResult, len(srcs))
	var wall time.Duration
	for i, group := range srcs {
		subs := make([]core.Submission, len(group))
		for j, s := range group {
			subs[j] = core.Submission{ID: fmt.Sprint(j), Src: s.src}
		}
		var sp *openSpan
		if rec != nil {
			sp = rec.begin("core.BatchGrader.GradeAll", group[0].a.ID, root)
		}
		t0 := time.Now()
		out[i], _ = bg.GradeAll(context.Background(), group[0].a.Spec, subs)
		wall += time.Since(t0)
		if sp != nil {
			sp.end()
		}
	}
	return out, wall
}

func runTableGrade(r *run) error {
	var bg *core.BatchGrader
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		bg = core.NewBatchGrader(core.NewGrader(core.Options{}), core.BatchOptions{})
		for _, a := range assignments.All() {
			res, _ := bg.GradeAll(context.Background(), a.Spec, []core.Submission{{Src: a.Reference()}})
			if res[0].Err != nil || !res[0].Report.AllCorrect() {
				return fmt.Errorf("warm-up: reference of %s does not grade all-correct", a.ID)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	grader := core.NewGrader(core.Options{})
	var plain passLog
	var tracedWalls []float64
	var busy, wallWorkers float64
	var mark runtimeMark
	if r.traced {
		mark = markRuntime()
	}
	passes := timedPasses(r.seconds, func(p int) time.Duration {
		srcs := tablePass(r.seed, p)
		traced := r.traced && p%2 == 1
		var rec *recorder
		var root *openSpan
		var rootID int64
		if traced {
			rec = r.rec
			root = rec.begin("pass", fmt.Sprintf("pass-%d", p), 0)
			rootID = root.id()
		}
		r.heap.takePeakMB()
		cpu0 := cpuTime()
		results, wall := gradePass(bg, srcs, rec, rootID)
		cpu := cpuTime() - cpu0
		heap := r.heap.takePeakMB()
		if root != nil {
			root.end()
		}
		n := 0
		var times []float64
		cr := newRand(r.seed, streamCheck, p)
		for i, group := range results {
			for j, res := range group {
				r.attempted++
				n++
				if res.Err != nil || res.Report == nil {
					r.failed++
					continue
				}
				rep := res.Report
				times = append(times, float64(rep.Elapsed)/1e6)
				busy += float64(rep.Elapsed)
				if cr.Float64() < checkShare {
					if err := sameGrade(grader, srcs[i][j], rep); err != nil {
						r.problem("pass %d %s #%d: %v", p, srcs[i][j].a.ID, j, err)
					}
				}
			}
		}
		if traced {
			tracedWalls = append(tracedWalls, wall.Seconds())
		} else {
			plain.window(times, n, cpu, heap)
			plain.pass(times, n, wall)
		}
		wallWorkers += float64(wall) * float64(runtime.GOMAXPROCS(0))
		return wall
	})
	fmt.Printf("# %d passes\n", passes)
	if r.traced {
		mark.report(r, r.attempted)
	}

	if err := plain.report(r, setups, "grade time"); err != nil {
		return err
	}
	checkTableD(r)
	if r.traced {
		r.set("core.batch_busy_ratio", ratio(busy, wallWorkers), "ratio")
		r.set("trace.overhead_ratio", ratio(median(tracedWalls), median(plain.walls)), "ratio")
		replayTable(r)
	}
	return nil
}

// passLog collects the figures of a Table I workload's untraced passes. The
// medians come from windows, the tails and rates from whole passes: a window
// is a pass on tableone and a run of functestWindow submissions of a pass on
// tableone-functest, whose passes are too long to give many per run.
type passLog struct {
	windows [][]float64 // per window: each operation's time, ms
	cpu     []float64   // per window: process CPU microseconds per operation
	heaps   []float64   // per window: peak MB of heap objects
	passes  [][]float64 // per pass: each operation's time, ms
	rates   []float64   // per pass: operations per second of measured time
	walls   []float64   // per pass: measured seconds
}

func (l *passLog) window(times []float64, n int, cpu time.Duration, heapMB float64) {
	l.windows = append(l.windows, append([]float64(nil), times...))
	l.cpu = append(l.cpu, float64(cpu)/1e3/float64(n))
	l.heaps = append(l.heaps, heapMB)
}

func (l *passLog) pass(times []float64, n int, wall time.Duration) {
	l.passes = append(l.passes, times)
	l.rates = append(l.rates, float64(n)/wall.Seconds())
	l.walls = append(l.walls, wall.Seconds())
}

// report sets the run's end-to-end metrics from the passes or, in a traced
// run, the latency and throughput figures recorded per layer.
func (l *passLog) report(r *run, setups []float64, what string) error {
	_, tails, beyond, err := perWindow(l.passes)
	if err != nil {
		return err
	}
	fmt.Printf("# %s: %d passes, %d windows; every pass p99 has at least %d samples beyond it\n", what, len(l.passes), len(l.windows), beyond)
	if r.traced {
		initLayerMetrics(r)
		mids := make([]float64, len(l.windows))
		for i, w := range l.windows {
			mids[i] = median(w)
		}
		r.set("latency.p50_ms", median(mids), "ms")
		r.set("latency.p99_ms", median(tails), "ms")
		r.set("throughput.ops_per_s", median(l.rates), "1/s")
		return nil
	}
	r.set("setup_s", median(setups), "s")
	r.set("cpu_us_per_op", median(l.cpu), "us")
	r.set("peak_heap_mb", median(l.heaps), "MB")
	return nil
}

// sameGrade compares a batch report with a serial in-process grade of the
// same source: comments, statuses and score.
func sameGrade(g *core.Grader, s tableSource, got *core.Report) error {
	want, err := g.Grade(s.src, s.a.Spec)
	if err != nil {
		return fmt.Errorf("serial grade: %w", err)
	}
	if !reflect.DeepEqual(got.Comments, want.Comments) || got.Score != want.Score || got.MaxScore != want.MaxScore || got.Matched != want.Matched {
		return fmt.Errorf("batch report differs from the serial grade")
	}
	return nil
}

func runTableFunctest(r *run) error {
	var cache *interp.Cache
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		cache = interp.NewCache(0)
		for _, a := range assignments.All() {
			unit, err := parser.Parse(a.Reference())
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", a.ID, err)
			}
			prog, _ := cache.CompileCached(a.Reference(), unit)
			if v := a.Tests.RunProgram(prog); !v.Pass {
				return fmt.Errorf("warm-up: reference of %s fails its tests", a.ID)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	stats0 := cache.Stats()

	var plain passLog
	var tracedWalls, compileUS, runNS []float64
	var steps, cases int64
	var mark runtimeMark
	if r.traced {
		mark = markRuntime()
	}
	passes := timedPasses(r.seconds, func(p int) time.Duration {
		srcs := tablePass(r.seed, p)
		traced := r.traced && p%2 == 1
		var root *openSpan
		if traced {
			root = r.rec.begin("pass", fmt.Sprintf("pass-%d", p), 0)
		}
		cr := newRand(r.seed, streamCheck, p)
		order := passOrder(srcs, newRand(r.seed, streamOrder, p))
		var wall time.Duration
		var times []float64
		var checks []tableSource
		var verdicts []functest.Verdict
		n := 0
		r.heap.takePeakMB()
		winStart, winN, winCPU := 0, 0, cpuTime()
		closeWindow := func() {
			cpu, heap := cpuTime()-winCPU, r.heap.takePeakMB()
			if !traced && winN > 0 {
				plain.window(times[winStart:], winN, cpu, heap)
			}
			winStart, winN, winCPU = len(times), 0, cpuTime()
		}
		for k, at := range order {
			if winN == functestWindow && len(order)-k >= functestWindow {
				closeWindow()
			}
			j, s := at[1], srcs[at[0]][at[1]]
			r.attempted++
			n++
			winN++
			var sp *openSpan
			if traced {
				sp = r.rec.begin("functest", fmt.Sprintf("%s-%d", s.a.ID, j), root.id())
			}
			t0 := time.Now()
			prog := cache.Lookup(s.src)
			var compiled time.Duration
			if prog == nil {
				unit, err := parser.Parse(s.src)
				if err != nil {
					r.failed++
					continue
				}
				c0 := time.Now()
				prog, _ = cache.CompileCached(s.src, unit)
				compiled = time.Since(c0)
			}
			x0 := time.Now()
			v := s.a.Tests.RunProgram(prog)
			end := time.Now()
			wall += end.Sub(t0)
			times = append(times, float64(end.Sub(t0))/1e6)
			if sp != nil {
				if compiled > 0 {
					r.rec.record("interp.Cache.CompileCached", sp.s.ReqID, sp.id(), x0.Add(-compiled), x0)
					compileUS = append(compileUS, float64(compiled)/1e3)
				}
				r.rec.record("functest.Suite.RunProgram", sp.s.ReqID, sp.id(), x0, end)
				sp.end()
				runNS = append(runNS, float64(end.Sub(x0)))
				steps += int64(v.Steps)
				cases += int64(v.Cases)
			}
			if cr.Float64() < checkShare {
				checks = append(checks, s)
				verdicts = append(verdicts, v)
			}
		}
		closeWindow()
		if root != nil {
			root.end()
			tracedWalls = append(tracedWalls, wall.Seconds())
		} else {
			plain.pass(times, n, wall)
		}
		for i, s := range checks {
			unit, _ := parser.Parse(s.src)
			if fresh := s.a.Tests.Run(unit); fresh.Pass != verdicts[i].Pass || len(fresh.Failures) != len(verdicts[i].Failures) {
				r.problem("pass %d %s: cached-program verdict differs from a fresh compile", p, s.a.ID)
			}
		}
		return wall
	})
	fmt.Printf("# %d passes\n", passes)
	if r.traced {
		mark.report(r, r.attempted)
	}

	if err := plain.report(r, setups, "functest time"); err != nil {
		return err
	}
	checkTableD(r)
	if r.traced {
		st := cache.Stats()
		hits, misses := st.Hits-stats0.Hits, st.Misses-stats0.Misses
		var runTotal float64
		for _, x := range runNS {
			runTotal += x
		}
		runs := float64(len(runNS))
		c50, _ := quantile(compileUS, 0.5)
		s50, _ := quantile(runNS, 0.5)
		r.set("interp.compile_us_p50", c50, "us")
		r.set("interp.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
		r.set("interp.steps_per_suite", ratio(float64(steps), runs), "count")
		r.set("interp.ns_per_step", ratio(runTotal, float64(steps)), "ns")
		r.set("functest.suite_us_p50", s50/1e3, "us")
		r.set("functest.cases_per_suite", ratio(float64(cases), runs), "count")
		r.set("interp.allocs_per_suite", functestAllocs(tablePass(r.seed, 0)), "count")
		r.set("trace.overhead_ratio", ratio(median(tracedWalls), median(plain.walls)), "ratio")
		replayTable(r)
	}
	return nil
}

// passOrder is the order in which tableone-functest tests a pass: a seeded
// shuffle of (assignment, submission) positions, so that every window of the
// pass mixes all twelve assignments.
func passOrder(srcs [][]tableSource, rnd *rand.Rand) [][2]int {
	var order [][2]int
	for i, g := range srcs {
		for j := range g {
			order = append(order, [2]int{i, j})
		}
	}
	rnd.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	return order
}
