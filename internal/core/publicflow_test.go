package core_test

import (
	"strings"
	"testing"

	"semfeed/internal/constraint"
	"semfeed/internal/core"
	"semfeed/internal/functest"
	"semfeed/internal/interp"
	"semfeed/internal/java/parser"
	"semfeed/internal/match"
	"semfeed/internal/pattern"
	"semfeed/internal/pdg"
)

// TestPublicFlowEndToEnd exercises the library the way a downstream course
// platform would: define a pattern and a constraint, grade a submission,
// cross-check with functional testing, and inspect the EPDG.
func TestPublicFlowEndToEnd(t *testing.T) {
	maxPat := pattern.MustCompile(&pattern.Pattern{
		Name: "running-max",
		Vars: []string{"m", "arr", "i"},
		Nodes: []pattern.Node{
			{ID: "seed", Type: "Assign", Exact: []string{"m = arr[0]"}, Approx: []string{"m ="},
				Feedback: pattern.NodeFeedback{
					Correct:   "{m} is seeded with the first element",
					Incorrect: "Seed {m} with {arr}[0], not a constant — all-negative arrays break otherwise",
				}},
			{ID: "guard", Type: "Cond", Exact: []string{"arr[i] > m", "m < arr[i]"}},
			{ID: "update", Type: "Assign", Exact: []string{"m = arr[i]"}},
		},
		Edges: []pattern.Edge{
			{From: "seed", To: "guard", Type: "Data"},
			{From: "guard", To: "update", Type: "Ctrl"},
		},
		Present: "You track the running maximum in {m}",
		Missing: "No running-maximum found: compare each element against the best so far",
	})
	printPat := pattern.MustCompile(&pattern.Pattern{
		Name: "max-printed",
		Vars: []string{"d"},
		Nodes: []pattern.Node{
			{ID: "calc", Type: "Assign", Exact: []string{"d"}},
			{ID: "out", Type: "Call", Exact: []string{`re:System\.out\.println\(.*\b${d}\b.*\)`}},
		},
		Edges:   []pattern.Edge{{From: "calc", To: "out", Type: "Data"}},
		Present: "The maximum is printed",
		Missing: "The maximum is never printed",
	})
	con, err := constraint.Compile(&constraint.Constraint{
		Name: "max-is-printed-value", Kind: constraint.EdgeExistence,
		Pi: "running-max", Ui: "update", Pj: "max-printed", Uj: "out", EdgeType: "Data",
		Feedback: constraint.Feedback{
			Satisfied: "You print the tracked maximum",
			Violated:  "The printed value is not the tracked maximum",
		},
	}, map[string]*pattern.Compiled{"running-max": maxPat, "max-printed": printPat})
	if err != nil {
		t.Fatal(err)
	}
	spec := &core.AssignmentSpec{
		Name: "find-max",
		Methods: []core.MethodSpec{{
			Name: "findMax",
			Patterns: []core.PatternUse{
				{Pattern: maxPat, Count: 1},
				{Pattern: printPat, Count: 1},
			},
			Constraints: []*constraint.Compiled{con},
		}},
	}

	buggy := `void findMax(int[] v) {
	  int best = 0;
	  for (int k = 0; k < v.length; k++)
	    if (v[k] > best)
	      best = v[k];
	  System.out.println(best);
	}`

	report, err := core.NewGrader(core.Options{}).Grade(buggy, spec)
	if err != nil {
		t.Fatal(err)
	}
	if report.AllCorrect() {
		t.Fatal("the zero seed must be flagged")
	}
	if !strings.Contains(report.String(), "Seed best with v[0]") {
		t.Errorf("feedback should name the student's variables:\n%s", report)
	}

	// Functional cross-check: the zero seed is exactly the bug an
	// all-negative input exposes.
	negatives := func() interp.Value {
		return &interp.Array{Elem: "int", Elems: []interp.Value{int64(-5), int64(-2), int64(-9)}}
	}
	suite := &functest.Suite{
		Entry: "findMax",
		Cases: []functest.Case{{
			Name: "all-negative",
			Args: []interp.Value{negatives()},
			Want: "-2",
		}},
	}
	verdict, err := suite.RunSource(buggy)
	if err != nil {
		t.Fatal(err)
	}
	if verdict.Pass {
		t.Error("functional tests should also catch the zero seed")
	}
	unit, err := parser.Parse(buggy)
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(unit, "findMax", []interp.Value{negatives()}, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(res.Stdout) != "0" {
		t.Errorf("the zero-seed bug should surface on all-negative input, got %q", res.Stdout)
	}

	// EPDG inspection.
	g := pdg.BuildAll(unit)["findMax"]
	if g == nil || len(g.Nodes) == 0 {
		t.Fatal("no EPDG built")
	}
	if embs := match.Find(maxPat, g); len(embs) != 1 || embs[0].AllCorrect() {
		t.Errorf("expected one approximate embedding, got %v", embs)
	}
}
