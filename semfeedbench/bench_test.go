package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"semfeed/internal/core"
	"semfeed/internal/java/parser"
)

func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(coldPhase(7, 3, 200), coldPhase(7, 3, 200)) {
		t.Error("serve-cold sources differ for the same seed")
	}
	if reflect.DeepEqual(coldPhase(7, 3, 200), coldPhase(8, 3, 200)) {
		t.Error("serve-cold sources do not depend on the seed")
	}
	pool := resubmitPool(7)
	if !reflect.DeepEqual(pool, resubmitPool(7)) {
		t.Error("serve-resubmit pool differs for the same seed")
	}
	if !reflect.DeepEqual(resubmitPhase(pool, 7, 2, 500), resubmitPhase(resubmitPool(7), 7, 2, 500)) {
		t.Error("serve-resubmit draws differ for the same seed")
	}
	if !reflect.DeepEqual(poissonSchedule(7, 1, 800, 500), poissonSchedule(7, 1, 800, 500)) {
		t.Error("arrival schedule differs for the same seed")
	}
	if reflect.DeepEqual(poissonSchedule(7, 1, 800, 500), poissonSchedule(8, 1, 800, 500)) {
		t.Error("arrival schedule does not depend on the seed")
	}
	if !reflect.DeepEqual(tablePass(7, 2), tablePass(7, 2)) {
		t.Error("Table I pass differs for the same seed")
	}
	srcs := tablePass(7, 2)
	order := passOrder(srcs, newRand(7, streamOrder, 2))
	if !reflect.DeepEqual(order, passOrder(srcs, newRand(7, streamOrder, 2))) {
		t.Error("tableone-functest order differs for the same seed")
	}
	seen, total := map[[2]int]bool{}, 0
	for _, at := range order {
		seen[at] = true
	}
	for _, g := range srcs {
		total += len(g)
	}
	if len(seen) != len(order) || len(order) != total {
		t.Errorf("tableone-functest order has %d distinct of %d positions, want each of %d once", len(seen), len(order), total)
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	dues := poissonSchedule(1, 0, 1000, 20000)
	for i := 1; i < len(dues); i++ {
		if dues[i] < dues[i-1] {
			t.Fatalf("due times not sorted at %d", i)
		}
	}
	if got := float64(len(dues)) / dues[len(dues)-1].Seconds(); math.Abs(got-1000) > 30 {
		t.Errorf("schedule rate %.1f/s, want about 1000/s", got)
	}
}

func TestResubmitPoolFitsTheStore(t *testing.T) {
	if poolSize >= storeEntries {
		t.Fatalf("pool of %d sources does not fit the %d-entry store", poolSize, storeEntries)
	}
	seen := map[string]bool{}
	draws := resubmitPhase(resubmitPool(3), 3, 0, 20000)
	for _, s := range draws {
		seen[s.src] = true
	}
	if share := 1 - float64(len(seen))/float64(len(draws)); share < 0.9 {
		t.Errorf("repeat share %.3f, want at least 0.9", share)
	}
}

func TestColdSourcesAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range coldPhase(5, 0, 5000) {
		if seen[s.src] {
			t.Fatal("serve-cold repeated a source")
		}
		seen[s.src] = true
	}
}

func TestBrokenSourcesFailToParse(t *testing.T) {
	broken := 0
	for seed := int64(0); seed < 4; seed++ {
		for _, s := range coldPhase(seed, 0, 2000) {
			_, err := parser.Parse(s.src)
			if s.broken {
				broken++
				if err == nil {
					t.Errorf("broken %s source parses:\n%s", s.a.ID, s.src)
				}
			} else if err != nil {
				t.Errorf("%s source does not parse: %v", s.a.ID, err)
			}
		}
	}
	if share := float64(broken) / 8000; math.Abs(share-brokenShare) > 0.01 {
		t.Errorf("broken share %.3f, want about %.2f", share, brokenShare)
	}
}

func TestLatencyRunsFromDueTime(t *testing.T) {
	o := outcome{due: time.Millisecond, sent: 3 * time.Millisecond, done: 4 * time.Millisecond, ok: true}
	if got := time.Duration(o.latency()); got != 3*time.Millisecond {
		t.Errorf("latency %v, want 3ms (from the due time, not the send time)", got)
	}
	if !math.IsInf(outcome{}.latency(), 1) {
		t.Error("a failed request must count as infinitely late")
	}

	// One sender against a server that takes 20ms: the second request, due
	// 1ms after the first, waits for the sender, and that wait is latency.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(20 * time.Millisecond)
	}))
	defer ts.Close()
	sv := &service{url: ts.URL, client: ts.Client()}
	subs := coldPhase(1, 0, 2)
	subs[0].broken, subs[1].broken = false, false
	outs, _, _ := sv.openLoop(1, phaseRun{subs: subs, ids: []string{"a", "b"},
		dues: []time.Duration{0, time.Millisecond}, keep: []bool{false, false}})
	if outs[1].late() < 15*time.Millisecond {
		t.Errorf("second request sent %v late, want about 20ms", outs[1].late())
	}
	if got := time.Duration(outs[1].latency()); got < 35*time.Millisecond {
		t.Errorf("second request latency %v, want at least 35ms measured from its due time", got)
	}
}

func flatRung(n int, late, took time.Duration) []outcome {
	outs := make([]outcome, n)
	for i := range outs {
		due := time.Duration(i) * time.Millisecond
		outs[i] = outcome{due: due, sent: due + late, done: due + late + took, status: 200, ok: true}
	}
	return outs
}

func TestLadderStopsAtFirstFailingRung(t *testing.T) {
	ok := summarizeRung(flatRung(1000, 0, time.Millisecond))
	if !ok.passes() {
		t.Fatalf("flat 1ms rung fails: %+v", ok)
	}
	slow := summarizeRung(flatRung(1000, 0, 11*time.Millisecond))
	if slow.passes() || slow.growing {
		t.Fatalf("11ms rung: %+v, want a p99 failure without backlog growth", slow)
	}
	// Lateness rising through the rung: the generator falls behind.
	grow := flatRung(1000, 0, time.Millisecond)
	for i := range grow {
		grow[i].sent += time.Duration(i) * 8 * time.Microsecond
		grow[i].done += time.Duration(i) * 8 * time.Microsecond
	}
	g := summarizeRung(grow)
	if !g.growing || g.passes() {
		t.Fatalf("growing rung: %+v, want growing and failing", g)
	}
	if g.p99 > latencyLimit {
		t.Fatalf("growing rung p99 %v: the test wants backlog growth alone to fail it", g.p99)
	}
	failed := flatRung(1000, 0, time.Millisecond)
	failed[3].ok = false
	if f := summarizeRung(failed); f.passes() || f.failed != 1 {
		t.Fatalf("rung with a failed request: %+v", f)
	}

	cases := []struct {
		rungs []rungResult
		want  int
	}{
		{[]rungResult{ok, ok, slow, ok}, 1},
		{[]rungResult{ok, g, ok}, 0},
		{[]rungResult{slow, ok}, -1},
		{[]rungResult{ok, ok, ok}, 2},
	}
	for i, c := range cases {
		if got := highestPassing(c.rungs); got != c.want {
			t.Errorf("case %d: highest passing rung %d, want %d", i, got, c.want)
		}
	}
}

func TestTailQuantileWantsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, beyond, err := tailQuantile(append([]float64(nil), xs...), 0.99)
	if err != nil || v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond (%v), want 990 with 10 beyond", v, beyond, err)
	}
	if _, beyond, err := tailQuantile(xs[:999], 0.99); err == nil {
		t.Errorf("p99 of 999 samples has %d beyond it and was accepted", beyond)
	}
	if v, _ := quantile([]float64{3, 1, 2}, 0.5); v != 2 {
		t.Errorf("median of 1,2,3 = %v", v)
	}
	mids, tails, beyond, err := perWindow(split(append([]float64(nil), xs...), 1000))
	if err != nil || len(mids) != 1 || tails[0] != 990 || beyond != 10 {
		t.Errorf("one window of 1000: mids %v tails %v beyond %d (%v)", mids, tails, beyond, err)
	}
	if _, _, _, err := perWindow(split(xs, 500)); err == nil {
		t.Error("windows of 500 samples have fewer than ten beyond their p99 and were accepted")
	}
}

func TestSplit(t *testing.T) {
	xs := make([]float64, 2500)
	var sizes []int
	for _, w := range split(xs, 1000) {
		sizes = append(sizes, len(w))
	}
	if !reflect.DeepEqual(sizes, []int{1000, 1500}) {
		t.Errorf("split 2500 by 1000: %v", sizes)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 90, End: 120},
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestBacklogMax(t *testing.T) {
	outs := []outcome{
		{due: 0, sent: 5},
		{due: 1, sent: 6},
		{due: 2, sent: 7},
		{due: 10, sent: 10},
	}
	if got := backlogMax(outs); got != 3 {
		t.Errorf("backlog max %d, want 3", got)
	}
}

func TestTableOneDMatchesBenchFile(t *testing.T) {
	b, err := os.ReadFile("../BENCH_tableone.json")
	if err != nil {
		t.Skip("BENCH_tableone.json not found:", err)
	}
	var f struct {
		Seed int64 `json:"seed"`
		Rows []struct {
			Assignment string `json:"assignment"`
			Evaluated  int    `json:"evaluated"`
			D          int    `json:"discrepancies"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if f.Seed != 0 || len(f.Rows) != len(tableOneD) {
		t.Fatalf("BENCH_tableone.json: seed %d, %d rows", f.Seed, len(f.Rows))
	}
	for _, row := range f.Rows {
		if d, ok := tableOneD[row.Assignment]; !ok || d != row.D {
			t.Errorf("%s: tableOneD %d, BENCH_tableone.json %d", row.Assignment, d, row.D)
		}
		if row.Evaluated > tableSample {
			t.Errorf("%s evaluated %d > %d", row.Assignment, row.Evaluated, tableSample)
		}
	}
}

func TestReplayWorkEqualsReportStats(t *testing.T) {
	g := core.NewGrader(core.Options{})
	for i, s := range coldPhase(11, 0, 300) {
		ls := replaySource(s.a.Spec, s.src, layerCost{rec: newRecorder(), reqID: "t"})
		rep, err := g.Grade(s.src, s.a.Spec)
		if err := replayCheck(ls, rep, err); err != nil {
			t.Fatalf("source %d (%s): %v", i, s.a.ID, err)
		}
	}
}

func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var f struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"tableone", "tableone-functest", "serve-cold", "serve-resubmit"}) {
		t.Errorf("workloads %v", names)
	}
	for _, w := range names {
		if workloads[w] == nil {
			t.Errorf("workload %s has no run function", w)
		}
	}
	want := map[string]string{"setup_s": "s", "peak_heap_mb": "MB", "cpu_us_per_op": "us"}
	if len(f.EndToEnd) != len(want) {
		t.Errorf("%d end-to-end metrics, want %d", len(f.EndToEnd), len(want))
	}
	for _, m := range f.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %s %s is not reported", m.Name, m.Unit)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d reported", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s %s, reported %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
