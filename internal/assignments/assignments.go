// Package assignments defines the twelve real-world assignments of Table I:
// for each one, a reference solution, the synthetic submission space (choice
// points encoding the error model), the functional-test suite used as ground
// truth, and the pattern/constraint selection from the knowledge base.
package assignments

import (
	"fmt"
	"sort"

	"semfeed/internal/constraint"
	"semfeed/internal/core"
	"semfeed/internal/functest"
	"semfeed/internal/kb"
	"semfeed/internal/synth"
)

// PaperRow records the Table I row published for the assignment, used by the
// benchmark harness to print paper-vs-measured comparisons. T and M are
// seconds.
type PaperRow struct {
	S    int64
	L    float64
	T    float64
	P, C int
	M    float64
	D    int
}

// Assignment bundles everything needed to reproduce one Table I row.
type Assignment struct {
	ID          string
	Course      string
	Description string
	Entry       string
	Synth       *synth.Spec
	Tests       *functest.Suite
	Spec        *core.AssignmentSpec
	Paper       PaperRow
}

// Reference renders the canonical correct solution.
func (a *Assignment) Reference() string { return a.Synth.Reference() }

var registry = map[string]*Assignment{}
var order []string

func register(a *Assignment) {
	if _, dup := registry[a.ID]; dup {
		panic("assignments: duplicate " + a.ID)
	}
	if err := a.Synth.Validate(); err != nil {
		panic(err)
	}
	if err := a.Tests.FillExpected(a.Reference()); err != nil {
		panic(fmt.Sprintf("%s: %v", a.ID, err))
	}
	registry[a.ID] = a
	order = append(order, a.ID)
}

// All returns every assignment in Table I order.
func All() []*Assignment {
	sorted := append([]string(nil), order...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return tableOrder(sorted[i]) < tableOrder(sorted[j])
	})
	out := make([]*Assignment, len(sorted))
	for i, id := range sorted {
		out[i] = registry[id]
	}
	return out
}

// Get returns an assignment by ID, or nil.
func Get(id string) *Assignment { return registry[id] }

var tableIOrder = []string{
	"assignment1",
	"esc-LAB-3-P1-V1",
	"esc-LAB-3-P2-V1",
	"esc-LAB-3-P2-V2",
	"esc-LAB-3-P3-V1",
	"esc-LAB-3-P3-V2",
	"esc-LAB-3-P4-V1",
	"esc-LAB-3-P4-V2",
	"mitx-derivatives",
	"mitx-polynomials",
	"rit-all-g-medals",
	"rit-medals-by-ath",
}

func tableOrder(id string) int {
	for i, v := range tableIOrder {
		if v == id {
			return i
		}
	}
	return len(tableIOrder)
}

// use builds a core.PatternUse from the knowledge base.
func use(name string, count int) core.PatternUse {
	return core.PatternUse{Pattern: kb.Pattern(name), Count: count}
}

// con compiles a constraint against the knowledge base registry.
func con(c *constraint.Constraint) *constraint.Compiled {
	return constraint.MustCompile(c, kb.Registry())
}
