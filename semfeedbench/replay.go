package main

import (
	"fmt"
	"runtime"
	"sort"

	"semfeed/internal/core"
	"semfeed/internal/java/ast"
	"semfeed/internal/java/parser"
	"semfeed/internal/match"
	"semfeed/internal/pattern"
	"semfeed/internal/pdg"
)

// The traced replay re-runs the grading pipeline of one source layer by
// layer through each module's public functions — parser.Parse, pdg.BuildAll,
// match.FindOpts and constraint.Compiled.Check — on the AssignmentSpec's
// public patterns, groups and constraints, the way core.Grader does with its
// default options. Its work counters must equal the Report.Stats of
// core.Grader.Grade on the same source, so the per-layer numbers measure the
// grader's real work.

// replayWork is the work one replay did, in Report.Stats terms.
type replayWork struct {
	Nodes, Edges     int
	MethodCombos     int
	MatchCalls       int64
	MatchSteps       int64
	MatchBacktracks  int64
	Embeddings       int64
	ConstraintChecks int64
	ConstraintCombos int64
}

func statsWork(st *core.Stats) replayWork {
	return replayWork{
		Nodes: st.EPDGNodes, Edges: st.EPDGEdges, MethodCombos: st.MethodCombos,
		MatchCalls: st.MatchCalls, MatchSteps: st.MatchSteps, MatchBacktracks: st.MatchBacktracks,
		Embeddings: st.Embeddings, ConstraintChecks: st.ConstraintChecks, ConstraintCombos: st.ConstraintCombos,
	}
}

// layerCost measures one call into a layer: with spans it returns the call's
// nanoseconds, with allocation counting the heap objects it allocated.
type layerCost struct {
	rec    *recorder // nil: count allocations instead
	reqID  string
	parent int64
}

func (c layerCost) measure(name string, f func()) int64 {
	if c.rec != nil {
		sp := c.rec.begin(name, c.reqID, c.parent)
		f()
		return int64(sp.end())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs - before.Mallocs)
}

// layerSample is one replayed source's per-layer costs (nanoseconds or
// allocations, see layerCost) and work.
type layerSample struct {
	rejected bool
	parse    int64
	build    int64
	find     []int64 // one per match.FindOpts call
	check    []int64 // one per constraint.Compiled.Check call
	work     replayWork
}

// replaySource replays one source through the layers.
func replaySource(spec *core.AssignmentSpec, src string, cost layerCost) layerSample {
	var ls layerSample
	var (
		cu  *ast.CompilationUnit
		err error
	)
	ls.parse = cost.measure("parser.Parse", func() { cu, err = parser.Parse(src) })
	if err != nil {
		ls.rejected = true
		return ls
	}
	var graphs map[string]*pdg.Graph
	ls.build = cost.measure("pdg.BuildAll", func() { graphs = pdg.BuildAll(cu) })
	for _, g := range graphs {
		ls.work.Nodes += len(g.Nodes)
		ls.work.Edges += len(g.Edges)
	}
	if len(graphs) == 0 {
		return ls
	}

	names := make([]string, 0, len(graphs))
	for n := range graphs {
		names = append(names, n)
	}
	sort.Strings(names)

	// One search per (pattern, graph) pair per grade, as the grader's
	// per-grade match cache does.
	type pair struct {
		p *pattern.Compiled
		g *pdg.Graph
	}
	found := map[pair][]match.Embedding{}
	work := &match.Work{}
	find := func(p *pattern.Compiled, g *pdg.Graph) []match.Embedding {
		k := pair{p, g}
		if embs, ok := found[k]; ok {
			return embs
		}
		var embs []match.Embedding
		ls.find = append(ls.find, cost.measure("match.FindOpts", func() {
			embs = match.FindOpts(p, g, match.Options{Work: work})
		}))
		found[k] = embs
		return embs
	}

	for _, binding := range bindings(spec, names) {
		ls.work.MethodCombos++
		for _, m := range spec.Methods {
			g := graphs[binding[m.Name]]
			if g == nil {
				continue
			}
			embs := map[string][]match.Embedding{}
			statuses := map[string]core.Status{}
			for _, use := range m.Patterns {
				e := find(use.Pattern, g)
				embs[use.Pattern.Name()] = e
				statuses[use.Pattern.Name()] = patternStatus(use.Count, e)
			}
			for _, gu := range m.Groups {
				var best core.Status
				var bestEmbs []match.Embedding
				var bestName string
				for i, member := range gu.Group.Members {
					e := find(member, g)
					st := patternStatus(gu.Count, e)
					if i == 0 || st.Lambda() > best.Lambda() {
						best, bestEmbs, bestName = st, e, member.Name()
					}
				}
				embs[bestName] = bestEmbs
				statuses[gu.Group.Name] = best
			}
			for _, con := range m.Constraints {
				ls.work.ConstraintChecks++
				skip := false
				for _, p := range con.Patterns() {
					if st, ok := statuses[p]; ok && st == core.NotExpected {
						skip = true
					}
				}
				if skip {
					continue
				}
				var combos int
				ls.check = append(ls.check, cost.measure("constraint.Check", func() {
					combos = con.Check(g, embs).Combos
				}))
				ls.work.ConstraintCombos += int64(combos)
			}
		}
	}
	ls.work.MatchCalls = work.Calls
	ls.work.MatchSteps = work.Steps
	ls.work.MatchBacktracks = work.Backtracks
	ls.work.Embeddings = work.Embeddings
	return ls
}

// patternStatus is Algorithm 2's verdict on a pattern expected count times.
func patternStatus(count int, embs []match.Embedding) core.Status {
	if len(embs) != count {
		return core.NotExpected
	}
	for i := range embs {
		if !embs[i].AllCorrect() {
			return core.Incorrect
		}
	}
	return core.Correct
}

// maxBindings is core.Options' default cap on method bindings.
const maxBindings = 720

// bindings enumerates expected→submission method bindings in the grader's
// order: the identity binding alone when every expected method is present,
// else the injective mappings, capped at maxBindings.
func bindings(spec *core.AssignmentSpec, methods []string) []map[string]string {
	expected := make([]string, len(spec.Methods))
	for i, m := range spec.Methods {
		expected[i] = m.Name
	}
	if len(expected) > len(methods) {
		return nil
	}
	have := map[string]bool{}
	for _, m := range methods {
		have[m] = true
	}
	identity := true
	for _, q := range expected {
		identity = identity && have[q]
	}
	if identity {
		b := map[string]string{}
		for _, q := range expected {
			b[q] = q
		}
		return []map[string]string{b}
	}
	var out []map[string]string
	used := make([]bool, len(methods))
	cur := map[string]string{}
	var rec func(i int)
	rec = func(i int) {
		if len(out) >= maxBindings {
			return
		}
		if i == len(expected) {
			b := make(map[string]string, len(cur))
			for k, v := range cur {
				b[k] = v
			}
			out = append(out, b)
			return
		}
		for j, h := range methods {
			if used[j] {
				continue
			}
			used[j] = true
			cur[expected[i]] = h
			rec(i + 1)
			delete(cur, expected[i])
			used[j] = false
		}
	}
	rec(0)
	return out
}

// replayCheck compares a replay's work with the grader's own accounting.
func replayCheck(ls layerSample, rep *core.Report, gradeErr error) error {
	if ls.rejected != (gradeErr != nil) {
		return fmt.Errorf("replay parse rejected=%v but grade error=%v", ls.rejected, gradeErr)
	}
	if ls.rejected {
		return nil
	}
	if got, want := ls.work, statsWork(rep.Stats); got != want {
		return fmt.Errorf("replay work %+v != Report.Stats %+v", got, want)
	}
	return nil
}
