package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// withExporter installs e process-wide for the test and restores the previous
// exporter afterwards.
func withExporter(t *testing.T, e SpanExporter) {
	t.Helper()
	prev := SetSpanExporter(e)
	t.Cleanup(func() { SetSpanExporter(prev) })
}

func TestRingExporterEvictsOldest(t *testing.T) {
	r := NewRingExporter(2)
	for i := 0; i < 3; i++ {
		r.ExportTrace(&TraceData{ID: fmt.Sprintf("t%d", i)})
	}
	got := r.Traces()
	if len(got) != 2 || got[0].ID != "t1" || got[1].ID != "t2" {
		t.Errorf("ring = %v, want [t1 t2] oldest-first", got)
	}
}

func TestExportOnSpanEnd(t *testing.T) {
	withCollection(t, func() {
		withStoreDefaults(t, 16, time.Hour)
		ring := NewRingExporter(8)
		withExporter(t, ring)
		before := TraceExportsTotal.Value()

		root := StartTrace("grade/export")
		root.SetTraceID("exp-1")
		root.Child("build_epdg").End()
		root.End()

		traces := ring.Traces()
		if len(traces) != 1 {
			t.Fatalf("exported %d traces, want 1", len(traces))
		}
		td := traces[0]
		// The exporter must see the post-retention trace: ID stamped, spans
		// complete, Retained classified.
		if td.ID != "exp-1" || len(td.Spans) != 2 || td.Retained == "" {
			t.Errorf("exported trace = id %q, %d spans, retained %q", td.ID, len(td.Spans), td.Retained)
		}
		if got := TraceExportsTotal.Value() - before; got != 1 {
			t.Errorf("semfeed_trace_exports_total moved by %d, want 1", got)
		}
	})
}

func TestJSONLExporterPersists(t *testing.T) {
	// The restart-survival contract: traces written by one exporter instance
	// are readable after Close, and a second instance appends to the same file
	// (a process restart must not erase history).
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	exp, err := NewJSONLExporter(path)
	if err != nil {
		t.Fatal(err)
	}
	exp.ExportTrace(&TraceData{ID: "gen1-a", Name: "grade/x"})
	exp.ExportTrace(&TraceData{ID: "gen1-b", Name: "grade/y"})
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}

	exp2, err := NewJSONLExporter(path)
	if err != nil {
		t.Fatal(err)
	}
	exp2.ExportTrace(&TraceData{ID: "gen2-a", Name: "grade/z"})
	if err := exp2.Close(); err != nil {
		t.Fatal(err)
	}

	ids := readTraceIDs(t, path)
	want := []string{"gen1-a", "gen1-b", "gen2-a"}
	if len(ids) != len(want) {
		t.Fatalf("file holds %d traces %v, want %v", len(ids), ids, want)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("line %d = %q, want %q", i, ids[i], id)
		}
	}
}

func TestJSONLExporterRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "traces.jsonl")
	exp, err := NewJSONLExporter(path)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if exp.maxBytes != 64<<20 {
		t.Fatalf("rotation threshold = %d bytes, want 64 MiB", exp.maxBytes)
	}
	exp.maxBytes = 100 // small enough that the second trace forces rotation
	exp.ExportTrace(&TraceData{ID: "old", Name: "grade/rotate-me-with-some-padding-to-fill-bytes"})
	exp.ExportTrace(&TraceData{ID: "new", Name: "grade/rotate-me-with-some-padding-to-fill-bytes"})

	if ids := readTraceIDs(t, path); len(ids) != 1 || ids[0] != "new" {
		t.Errorf("live file = %v, want [new]", ids)
	}
	if ids := readTraceIDs(t, path+".1"); len(ids) != 1 || ids[0] != "old" {
		t.Errorf("rotated generation = %v, want [old]", ids)
	}
}

func TestJSONLExporterFallbackOnWriteError(t *testing.T) {
	// Point the exporter at a path whose parent vanishes: writes fail, traces
	// land in the fallback ring, errors are counted — never silent loss.
	dir := filepath.Join(t.TempDir(), "sub")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "traces.jsonl")
	exp, err := NewJSONLExporter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	withCollection(t, func() {
		before := TraceExportErrorsTotal.Value()
		exp.ExportTrace(&TraceData{ID: "lost-to-disk"})
		if got := TraceExportErrorsTotal.Value() - before; got == 0 {
			t.Error("write failure not counted in semfeed_trace_export_errors_total")
		}
	})
	fb := exp.Fallback().Traces()
	if len(fb) != 1 || fb[0].ID != "lost-to-disk" {
		t.Errorf("fallback ring = %v, want the failed trace", fb)
	}
}

func TestSetSpanExporterReturnsPrevious(t *testing.T) {
	a, b := NewRingExporter(1), NewRingExporter(1)
	orig := SetSpanExporter(a)
	defer SetSpanExporter(orig)
	if prev := SetSpanExporter(b); prev != a {
		t.Errorf("SetSpanExporter returned %v, want the previous exporter", prev)
	}
	if prev := SetSpanExporter(nil); prev != b {
		t.Errorf("uninstall returned %v, want b", prev)
	}
}

// readTraceIDs parses a JSONL trace file into its trace IDs, in file order.
func readTraceIDs(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("opening %s: %v", path, err)
	}
	defer f.Close()
	var ids []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var td TraceData
		if err := json.Unmarshal(sc.Bytes(), &td); err != nil {
			t.Fatalf("line %d of %s is not a trace: %v", len(ids), path, err)
		}
		ids = append(ids, td.ID)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return ids
}
