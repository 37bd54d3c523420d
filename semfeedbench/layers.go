package main

import (
	"context"
	"fmt"
	"runtime"

	"semfeed/internal/assignments"
	"semfeed/internal/core"
	"semfeed/internal/interp"
	"semfeed/internal/java/parser"
)

// perLayer lists every per-layer metric of a traced run with its unit. A
// layer that a workload does not exercise reads 0 there (the serving layers
// on the Table I workloads, the interpreter on the others).
var perLayer = []struct{ name, unit string }{
	{"parser.parse_us_p50", "us"},
	{"parser.allocs_per_call", "count"},
	{"parser.reject_ratio", "ratio"},
	{"pdg.build_us_p50", "us"},
	{"pdg.nodes_per_grade", "count"},
	{"pdg.edges_per_grade", "count"},
	{"pdg.allocs_per_call", "count"},
	{"match.find_us_p50", "us"},
	{"match.share_of_grade", "ratio"},
	{"match.calls_per_grade", "count"},
	{"match.steps_per_grade", "count"},
	{"match.backtracks_per_grade", "count"},
	{"match.waste_ratio", "ratio"},
	{"match.embeddings_per_grade", "count"},
	{"match.allocs_per_grade", "count"},
	{"constraint.check_us_p50", "us"},
	{"constraint.checks_per_grade", "count"},
	{"constraint.combos_per_grade", "count"},
	{"core.grade_us_p50", "us"},
	{"core.self_us", "us"},
	{"core.batch_busy_ratio", "ratio"},
	{"core.method_combos_per_grade", "count"},
	{"core.match_cache_hit_ratio", "ratio"},
	{"interp.compile_us_p50", "us"},
	{"interp.cache_hit_ratio", "ratio"},
	{"interp.steps_per_suite", "count"},
	{"interp.ns_per_step", "ns"},
	{"interp.allocs_per_suite", "count"},
	{"functest.suite_us_p50", "us"},
	{"functest.cases_per_suite", "count"},
	{"server.handle_us_p50", "us"},
	{"server.self_us", "us"},
	{"server.cached_ratio", "ratio"},
	{"server.status_2xx", "count"},
	{"server.status_422", "count"},
	{"server.status_429", "count"},
	{"server.status_5xx", "count"},
	{"server.response_bytes_p50", "bytes"},
	{"store.get_us_p50", "us"},
	{"store.put_us_p50", "us"},
	{"store.hit_ratio", "ratio"},
	{"store.entries_end", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.backlog_max", "count"},
	{"loadgen.transport_us_p50", "us"},
	{"loadgen.ladder_max_rps", "1/s"},
	{"latency.p50_ms", "ms"},
	{"latency.p99_ms", "ms"},
	{"throughput.ops_per_s", "1/s"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// initLayerMetrics sets every per-layer metric to 0 before the run fills in
// the ones its workload exercises.
func initLayerMetrics(r *run) {
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, 0, m.unit)
		}
	}
}

// replayTable replays a spread of pass-0 sources layer by layer.
func replayTable(r *run) {
	var flat []tableSource
	for _, group := range tablePass(r.seed, 0) {
		flat = append(flat, group...)
	}
	var subs []submission
	var ids []string
	step := max(1, len(flat)/replaySources)
	for i := 0; i < len(flat); i += step {
		subs = append(subs, submission{a: flat[i].a, src: flat[i].src})
		ids = append(ids, fmt.Sprintf("replay-%d", i))
	}
	replayLayers(r, subs, ids)
}

// replayLayers replays sources through the layers with spans, checks each
// replay's work against core.Grader.Grade's Report.Stats, counts the
// allocations of each layer on the first allocSources sources, and sets the
// parser, pdg, match, constraint and core metrics.
func replayLayers(r *run, subs []submission, ids []string) {
	initLayerMetrics(r)
	grader := core.NewGrader(core.Options{})
	var parseUS, buildUS, findUS, checkUS, gradeUS, selfUS []float64
	var rejected, grades, mismatched int
	var work replayWork
	var matchNS, totalNS, cacheHits, cacheLookups float64
	for i, s := range subs {
		root := r.rec.begin("replay", ids[i], 0)
		ls := replaySource(s.a.Spec, s.src, layerCost{rec: r.rec, reqID: ids[i], parent: root.id()})
		root.end()
		sp := r.rec.begin("core.Grader.Grade", ids[i], 0)
		rep, err := grader.Grade(s.src, s.a.Spec)
		sp.end()
		if err := replayCheck(ls, rep, err); err != nil {
			r.problem("replay %s (%s): %v", ids[i], s.a.ID, err)
			mismatched++
			continue
		}
		parseUS = append(parseUS, float64(ls.parse)/1e3)
		if ls.rejected {
			rejected++
			continue
		}
		grades++
		buildUS = append(buildUS, float64(ls.build)/1e3)
		for _, ns := range ls.find {
			findUS = append(findUS, float64(ns)/1e3)
		}
		for _, ns := range ls.check {
			checkUS = append(checkUS, float64(ns)/1e3)
		}
		w := ls.work
		work.Nodes += w.Nodes
		work.Edges += w.Edges
		work.MatchCalls += w.MatchCalls
		work.MatchSteps += w.MatchSteps
		work.MatchBacktracks += w.MatchBacktracks
		work.Embeddings += w.Embeddings
		work.ConstraintChecks += w.ConstraintChecks
		work.ConstraintCombos += w.ConstraintCombos
		work.MethodCombos += w.MethodCombos
		st := rep.Stats
		matchNS += float64(st.MatchTime)
		totalNS += float64(st.TotalTime)
		cacheHits += float64(st.MatchCacheHits)
		cacheLookups += float64(st.MatchCacheHits + st.MatchCacheMisses)
		gradeUS = append(gradeUS, float64(st.TotalTime)/1e3)
		selfUS = append(selfUS, float64(st.TotalTime-st.ParseTime-st.BuildTime-st.MatchTime-st.ConstraintTime)/1e3)
	}

	var parseAllocs, buildAllocs, findAllocs float64
	var allocParses, allocGrades int
	for i := 0; i < len(subs) && i < allocSources; i++ {
		ls := replaySource(subs[i].a.Spec, subs[i].src, layerCost{})
		parseAllocs += float64(ls.parse)
		allocParses++
		if ls.rejected {
			continue
		}
		allocGrades++
		buildAllocs += float64(ls.build)
		for _, n := range ls.find {
			findAllocs += float64(n)
		}
	}

	p50 := func(xs []float64) float64 { v, _ := quantile(xs, 0.5); return v }
	g := float64(grades)
	r.set("parser.parse_us_p50", p50(parseUS), "us")
	r.set("parser.allocs_per_call", ratio(parseAllocs, float64(allocParses)), "count")
	r.set("parser.reject_ratio", ratio(float64(rejected), float64(len(parseUS))), "ratio")
	r.set("pdg.build_us_p50", p50(buildUS), "us")
	r.set("pdg.nodes_per_grade", ratio(float64(work.Nodes), g), "count")
	r.set("pdg.edges_per_grade", ratio(float64(work.Edges), g), "count")
	r.set("pdg.allocs_per_call", ratio(buildAllocs, float64(allocGrades)), "count")
	r.set("match.find_us_p50", p50(findUS), "us")
	r.set("match.share_of_grade", ratio(matchNS, totalNS), "ratio")
	r.set("match.calls_per_grade", ratio(float64(work.MatchCalls), g), "count")
	r.set("match.steps_per_grade", ratio(float64(work.MatchSteps), g), "count")
	r.set("match.backtracks_per_grade", ratio(float64(work.MatchBacktracks), g), "count")
	r.set("match.waste_ratio", ratio(float64(work.MatchBacktracks), float64(work.MatchSteps)), "ratio")
	r.set("match.embeddings_per_grade", ratio(float64(work.Embeddings), g), "count")
	r.set("match.allocs_per_grade", ratio(findAllocs, float64(allocGrades)), "count")
	r.set("constraint.check_us_p50", p50(checkUS), "us")
	r.set("constraint.checks_per_grade", ratio(float64(work.ConstraintChecks), g), "count")
	r.set("constraint.combos_per_grade", ratio(float64(work.ConstraintCombos), g), "count")
	r.set("core.grade_us_p50", p50(gradeUS), "us")
	r.set("core.self_us", p50(selfUS), "us")
	r.set("core.method_combos_per_grade", ratio(float64(work.MethodCombos), g), "count")
	r.set("core.match_cache_hit_ratio", ratio(cacheHits, cacheLookups), "ratio")
	fmt.Printf("# replayed %d sources (%d rejected by the parser); work counters differ from Report.Stats on %d\n", len(subs), rejected, mismatched)
}

// functestAllocs is the mean number of heap allocations of one
// functional-test suite run, over about allocSources sources of a pass spread
// across the assignments.
func functestAllocs(srcs [][]tableSource) float64 {
	var total float64
	n := 0
	for _, group := range srcs {
		for _, s := range group[:min(len(group), allocSources/len(srcs)+1)] {
			unit, err := parser.Parse(s.src)
			if err != nil {
				continue
			}
			prog := interp.Compile(unit)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.a.Tests.RunProgram(prog)
			runtime.ReadMemStats(&after)
			total += float64(after.Mallocs - before.Mallocs)
			n++
		}
	}
	return ratio(total, float64(n))
}

// tableD grades and functionally tests one Table I sample and returns the
// discrepancy count per assignment.
func tableD(seed int64) map[string]int {
	bg := core.NewBatchGrader(core.NewGrader(core.Options{}), core.BatchOptions{})
	cache := interp.NewCache(0)
	d := map[string]int{}
	for _, group := range tablePass(seed, 0) {
		a := group[0].a
		subs := make([]core.Submission, len(group))
		for j, s := range group {
			subs[j] = core.Submission{Src: s.src}
		}
		results, _ := bg.GradeAll(context.Background(), a.Spec, subs)
		d[a.ID] = 0
		for j, res := range results {
			if res.Err != nil {
				continue
			}
			unit, err := parser.Parse(group[j].src)
			if err != nil {
				continue
			}
			prog, _ := cache.CompileCached(group[j].src, unit)
			if a.Tests.RunProgram(prog).Pass != res.Report.AllCorrect() {
				d[a.ID]++
			}
		}
	}
	return d
}

// checkTableD prints D for the run's seed and checks D of the seed-0 Table I
// sample against tableOneD, row by row.
func checkTableD(r *run) {
	seeds := []int64{0}
	if r.seed != 0 {
		seeds = []int64{r.seed, 0}
	}
	for _, seed := range seeds {
		d := tableD(seed)
		for _, a := range assignments.All() {
			line := fmt.Sprintf("# D seed %d %-18s %3d", seed, a.ID, d[a.ID])
			if seed == 0 {
				line += fmt.Sprintf("  (BENCH_tableone.json: %d)", tableOneD[a.ID])
				if d[a.ID] != tableOneD[a.ID] {
					r.problem("seed-0 D of %s is %d, BENCH_tableone.json has %d", a.ID, d[a.ID], tableOneD[a.ID])
				}
			}
			fmt.Println(line)
		}
	}
}
