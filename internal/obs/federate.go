package obs

// Metrics federation: merging per-process Snapshots into one cluster-wide
// rollup. The coordinator scrapes each worker's /metrics.json — the Snapshot
// this package exposes — and folds them here: counters and gauges sum
// per name, histograms merge bucketwise when their bounds agree (the merged
// buckets give real cluster-wide percentiles; mismatched bounds degrade to
// count/sum only, never a wrong quantile).

// MergeSnapshots folds per-process snapshots into one rollup. Counter and
// gauge families sum across parts (summing is exact for counters; for gauges
// it is the fleet total, which is what occupancy/inflight gauges mean).
// Histogram families with identical bounds across every contributing part
// merge bucketwise and report interpolated cluster-wide quantiles; families
// whose bounds disagree keep only the summed count and sum, with quantiles
// zeroed rather than fabricated.
func MergeSnapshots(parts []Snapshot) Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	type histAcc struct {
		count     int64
		sum       float64
		bounds    []float64
		buckets   []int64
		mergeable bool
	}
	hists := map[string]*histAcc{}
	for _, p := range parts {
		for name, v := range p.Counters {
			out.Counters[name] += v
		}
		for name, v := range p.Gauges {
			out.Gauges[name] += v
		}
		for name, h := range p.Histograms {
			acc, ok := hists[name]
			if !ok {
				acc = &histAcc{mergeable: len(h.Bounds) > 0}
				if acc.mergeable {
					acc.bounds = h.Bounds
					acc.buckets = make([]int64, len(h.Bounds)+1)
				}
				hists[name] = acc
			}
			acc.count += h.Count
			acc.sum += h.Sum
			if acc.mergeable && sameBounds(acc.bounds, h.Bounds) && len(h.Buckets) == len(acc.buckets) {
				for i, n := range h.Buckets {
					acc.buckets[i] += n
				}
			} else {
				acc.mergeable = false
			}
		}
	}
	for name, acc := range hists {
		hs := HistogramSnapshot{Count: acc.count, Sum: acc.sum}
		if acc.mergeable {
			hs.Bounds = acc.bounds
			hs.Buckets = acc.buckets
			hs.P50 = bucketQuantile(acc.bounds, acc.buckets, 0.50)
			hs.P95 = bucketQuantile(acc.bounds, acc.buckets, 0.95)
			hs.P99 = bucketQuantile(acc.bounds, acc.buckets, 0.99)
		}
		out.Histograms[name] = hs
	}
	return out
}

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// MergeSLOStats folds per-process SLO window aggregates: requests, errors and
// sheds sum; rates are recomputed from the sums; percentiles cannot be merged
// without the underlying buckets, so the merged P50/P99 are the
// request-weighted averages — a fleet-level approximation, flagged as such in
// DESIGN §12.
func MergeSLOStats(parts []SLOStats) SLOStats {
	var out SLOStats
	var wp50, wp99 float64
	for _, p := range parts {
		if out.WindowSeconds == 0 {
			out.WindowSeconds = p.WindowSeconds
		}
		out.Requests += p.Requests
		out.Errors += p.Errors
		out.Sheds += p.Sheds
		wp50 += p.P50MS * float64(p.Requests)
		wp99 += p.P99MS * float64(p.Requests)
	}
	if out.Requests > 0 {
		out.ErrorRate = float64(out.Errors) / float64(out.Requests)
		out.ShedRate = float64(out.Sheds) / float64(out.Requests)
		out.P50MS = wp50 / float64(out.Requests)
		out.P99MS = wp99 / float64(out.Requests)
	}
	return out
}
