package semfeed_test

import (
	"net/http/httptest"
	"strings"
	"testing"

	"semfeed/internal/assignments"
	"semfeed/internal/core"
	"semfeed/internal/obs"
)

// TestObservabilitySurface checks that an embedding platform can read one
// grade through every exposition: the report's stats block, the snapshot,
// the Prometheus text, the span tree and the /metrics endpoint of obs.Mux.
func TestObservabilitySurface(t *testing.T) {
	obs.Enable()
	obs.EnableTracing()
	defer obs.Disable()
	defer obs.DisableTracing()

	a := assignments.Get("assignment1")
	rep, err := core.NewGrader(core.Options{}).Grade(a.Reference(), a.Spec)
	if err != nil {
		t.Fatal(err)
	}
	var st *core.Stats = rep.Stats
	if st == nil || st.MatchSteps == 0 {
		t.Fatalf("report stats not populated: %+v", st)
	}

	snap := obs.TakeSnapshot()
	if snap.Counter("semfeed_grades_total") == 0 {
		t.Error("grades_total not collected")
	}
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) < 15 {
		t.Errorf("metrics surface names %d metrics, want >= 15", len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms))
	}

	var sb strings.Builder
	if err := obs.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "semfeed_match_steps_total") {
		t.Error("Prometheus exposition missing matcher counters")
	}

	tr := obs.LastTrace()
	if tr == nil || !strings.Contains(tr.Tree(), "grade/assignment1") {
		t.Errorf("span tree not recorded: %v", tr)
	}

	rec := httptest.NewRecorder()
	obs.Mux().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "semfeed_grade_seconds") {
		t.Error("/metrics endpoint missing histogram series")
	}
}
