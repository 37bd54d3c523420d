package obs

// Trace export: the retention store in trace.go answers "what happened
// recently in THIS process", but it is a ring — a restart or capacity
// pressure erases history. A SpanExporter receives every completed trace
// (after the store has stamped its fallback ID and retention class) and can
// persist it. The built-in JSONLExporter appends one JSON document per line
// to a file with size-based rotation, so `grep <request-id> traces.jsonl`
// works across semfeedd restarts; on write failure it degrades to an
// in-memory ring instead of dropping traces silently.

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// SpanExporter receives every completed trace. Implementations must be
// safe for concurrent use; ExportTrace runs on the goroutine that ended the
// root span, so it should be fast (the JSONL exporter is one buffered write).
type SpanExporter interface {
	ExportTrace(td *TraceData)
}

var (
	// TraceExportsTotal counts traces handed to the configured exporter.
	TraceExportsTotal = NewCounter("semfeed_trace_exports_total", "Completed traces handed to the span exporter.")
	// TraceExportErrorsTotal counts exporter write failures (the JSONL
	// exporter falls back to its in-memory ring on these).
	TraceExportErrorsTotal = NewCounter("semfeed_trace_export_errors_total", "Span-exporter write failures.")
)

// exporter holds the process-wide SpanExporter (nil when none configured).
var exporter atomic.Pointer[exporterBox]

// exporterBox wraps the interface so atomic.Pointer has a concrete type.
type exporterBox struct{ e SpanExporter }

// SetSpanExporter installs the process-wide trace exporter (nil uninstalls).
// Returns the previous exporter, so tests can restore it.
func SetSpanExporter(e SpanExporter) SpanExporter {
	var prev *exporterBox
	if e == nil {
		prev = exporter.Swap(nil)
	} else {
		prev = exporter.Swap(&exporterBox{e: e})
	}
	if prev == nil {
		return nil
	}
	return prev.e
}

// exportTrace hands td to the configured exporter, if any.
func exportTrace(td *TraceData) {
	box := exporter.Load()
	if box == nil {
		return
	}
	TraceExportsTotal.Inc()
	box.e.ExportTrace(td)
}

// ---------------------------------------------------------------------------
// RingExporter

// RingExporter keeps the last N exported traces in memory. It is the
// fallback target of the JSONL exporter and a standalone exporter for tests.
type RingExporter struct {
	mu   sync.Mutex
	cap  int
	ring []*TraceData
}

// NewRingExporter returns a ring keeping the most recent capacity traces
// (minimum 1).
func NewRingExporter(capacity int) *RingExporter {
	if capacity < 1 {
		capacity = 1
	}
	return &RingExporter{cap: capacity}
}

// ExportTrace appends td, evicting the oldest entry at capacity.
func (r *RingExporter) ExportTrace(td *TraceData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring = append(r.ring, td)
	if len(r.ring) > r.cap {
		r.ring = r.ring[1:]
	}
}

// Traces returns the buffered traces, oldest first.
func (r *RingExporter) Traces() []*TraceData {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*TraceData(nil), r.ring...)
}

// ---------------------------------------------------------------------------
// JSONLExporter

// exportMaxBytes rotates the JSONL file at 64 MiB: roughly 20k traces at the
// typical 2–3 KiB per grade trace, a few days of moderate load.
const exportMaxBytes = 64 << 20

// JSONLExporter persists traces as one JSON document per line, rotating
// path -> path+".1" when the file would exceed 64 MiB (one previous
// generation is kept). Failed writes fall back to an in-memory ring and are
// counted in TraceExportErrorsTotal.
type JSONLExporter struct {
	mu       sync.Mutex
	path     string
	maxBytes int64 // exportMaxBytes; tests lower it to force rotation
	f        *os.File
	size     int64
	fallback *RingExporter
}

// NewJSONLExporter opens (appending) the JSONL trace file at path.
func NewJSONLExporter(path string) (*JSONLExporter, error) {
	e := &JSONLExporter{path: path, maxBytes: exportMaxBytes, fallback: NewRingExporter(64)}
	if err := e.open(); err != nil {
		return nil, err
	}
	return e, nil
}

// open (re)opens the append handle and learns the current size. Caller holds
// e.mu (or is the constructor).
func (e *JSONLExporter) open() error {
	f, err := os.OpenFile(e.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	e.f, e.size = f, st.Size()
	return nil
}

// ExportTrace appends one line, rotating first if it would overflow.
func (e *JSONLExporter) ExportTrace(td *TraceData) {
	line, err := json.Marshal(td)
	if err != nil {
		TraceExportErrorsTotal.Inc()
		e.fallback.ExportTrace(td)
		return
	}
	line = append(line, '\n')
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.f == nil {
		if err := e.open(); err != nil {
			TraceExportErrorsTotal.Inc()
			e.fallback.ExportTrace(td)
			return
		}
	}
	if e.size+int64(len(line)) > e.maxBytes && e.size > 0 {
		e.rotateLocked()
	}
	n, err := e.f.Write(line)
	e.size += int64(n)
	if err != nil {
		TraceExportErrorsTotal.Inc()
		e.fallback.ExportTrace(td)
		e.f.Close()
		e.f = nil // reopen on the next export
	}
}

// rotateLocked moves the live file to path+".1" (replacing any previous
// generation) and starts a fresh file. Rotation failure is not fatal: the
// exporter keeps appending to the oversized file rather than losing traces.
func (e *JSONLExporter) rotateLocked() {
	e.f.Close()
	e.f = nil
	if err := os.Rename(e.path, e.path+".1"); err != nil {
		TraceExportErrorsTotal.Inc()
	}
	if err := e.open(); err != nil {
		TraceExportErrorsTotal.Inc()
	}
}

// Fallback exposes the in-memory ring that captured traces during write
// failures (for draining into logs or tests).
func (e *JSONLExporter) Fallback() *RingExporter { return e.fallback }

// Path returns the live file path.
func (e *JSONLExporter) Path() string { return e.path }

// Close flushes and closes the file handle. Further exports reopen it.
func (e *JSONLExporter) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.f == nil {
		return nil
	}
	err := e.f.Close()
	e.f = nil
	if err != nil {
		return fmt.Errorf("closing trace export file: %w", err)
	}
	return nil
}
