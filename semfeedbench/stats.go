package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// quantile is a nearest-rank percentile of xs (q in (0, 1]). It also returns
// the number of samples strictly beyond the chosen rank. xs need not be
// sorted; it is sorted in place.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return xs[rank], len(xs) - 1 - rank
}

// tailQuantile is quantile for a reported tail percentile: it fails unless at
// least minBeyond samples lie beyond it.
func tailQuantile(xs []float64, q float64) (float64, int, error) {
	v, beyond := quantile(xs, q)
	if beyond < minBeyond {
		return v, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", q*100, len(xs), beyond, minBeyond)
	}
	return v, beyond, nil
}

// median is the middle value (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a ratio of no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perWindow returns each window's median and p99; every window's p99 must
// have at least minBeyond samples beyond it. It also returns the fewest
// samples beyond a window's p99.
func perWindow(windows [][]float64) (mids, tails []float64, beyond int, err error) {
	if len(windows) == 0 {
		return nil, nil, 0, fmt.Errorf("no samples")
	}
	beyond = math.MaxInt
	for _, w := range windows {
		m, _ := quantile(w, 0.5)
		t, n, err := tailQuantile(w, 0.99)
		if err != nil {
			return nil, nil, 0, err
		}
		mids = append(mids, m)
		tails = append(tails, t)
		beyond = min(beyond, n)
	}
	return mids, tails, beyond, nil
}

// split cuts xs into consecutive windows of n samples; the last window also
// takes the remainder.
func split(xs []float64, n int) [][]float64 {
	var out [][]float64
	for len(xs) >= 2*n {
		out = append(out, xs[:n])
		xs = xs[n:]
	}
	if len(xs) > 0 {
		out = append(out, xs)
	}
	return out
}

// runtimeMark is the Go runtime's allocation and CPU accounting at the start
// of a measured stretch of a run.
type runtimeMark struct {
	alloc     uint64
	gc, total float64
}

var cpuClasses = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readCPUClasses() (gc, total float64) {
	s := []metrics.Sample{{Name: cpuClasses[0]}, {Name: cpuClasses[1]}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func markRuntime() runtimeMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := runtimeMark{alloc: ms.TotalAlloc}
	m.gc, m.total = readCPUClasses()
	return m
}

// report sets the bytes allocated per operation and the share of CPU time
// spent in the garbage collector since the mark.
func (m runtimeMark) report(r *run, ops int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, total := readCPUClasses()
	r.set("runtime.alloc_bytes_per_op", ratio(float64(ms.TotalAlloc-m.alloc), float64(ops)), "bytes")
	r.set("runtime.gc_cpu_fraction", ratio(gc-m.gc, total-m.total), "ratio")
}

// cpuTime is the CPU time the process has used, user and system, across all
// its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
