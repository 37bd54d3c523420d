package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"semfeed/internal/store"
)

// Spans of the traced run. They are recorded only by the benchmark's own
// code, around its calls into the program's public functions, kept in memory
// and written out once the run ends.

// span is one recorded interval. Start and End are nanoseconds since the
// recorder was created; Parent 0 marks a root.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Name   string           `json:"name"`
	ReqID  string           `json:"req"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder collects spans. It is safe for concurrent use.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	rec *recorder
	s   span
}

// begin starts a span; parent is the ID of the enclosing span, or 0.
func (r *recorder) begin(name, reqID string, parent int64) *openSpan {
	return &openSpan{rec: r, s: span{
		ID: r.ids.Add(1), Parent: parent, Name: name, ReqID: reqID,
		Start: int64(time.Since(r.t0)),
	}}
}

func (o *openSpan) id() int64 { return o.s.ID }

func (o *openSpan) attr(k string, v int64) {
	if o.s.Attrs == nil {
		o.s.Attrs = map[string]int64{}
	}
	o.s.Attrs[k] = v
}

// end records the span and returns its duration.
func (o *openSpan) end() time.Duration {
	o.s.End = int64(time.Since(o.rec.t0))
	o.rec.mu.Lock()
	o.rec.spans = append(o.rec.spans, o.s)
	o.rec.mu.Unlock()
	return o.s.dur()
}

// record adds a span whose times were taken elsewhere.
func (r *recorder) record(name, reqID string, parent int64, start, end time.Time) {
	s := span{
		ID: r.ids.Add(1), Parent: parent, Name: name, ReqID: reqID,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)),
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// link sets the parents the serving layers could not know when they
// recorded: each server.handle span hangs under the loadgen.request span of
// its request ID, and each store span under a server.handle span of a
// request for the same source (reqHash maps request IDs to source hashes)
// whose interval contains it.
func (r *recorder) link(reqHash map[string]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	handles := map[string][]int{}
	requests := map[string]int64{}
	for i, s := range r.spans {
		switch s.Name {
		case "server.handle":
			handles[reqHash[s.ReqID]] = append(handles[reqHash[s.ReqID]], i)
		case "loadgen.request":
			requests[s.ReqID] = s.ID
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		switch s.Name {
		case "server.handle":
			s.Parent = requests[s.ReqID]
		case "store.get", "store.put":
			for _, j := range handles[s.ReqID] {
				if h := r.spans[j]; h.Start <= s.Start && s.End <= h.End {
					s.Parent = h.ID
					break
				}
			}
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - time.Duration(covered(s.Start, s.End, kids[s.ID]))
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeSpans writes the spans as JSON lines, after one header line.
func writeSpans(path string, header any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// timedHandler wraps Server.Handler(): while on is set, each request gets a
// server.handle span carrying the client's X-Request-ID, the status and the
// response size.
type timedHandler struct {
	next http.Handler
	rec  *recorder
	on   *atomic.Bool
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, req)
		return
	}
	sp := h.rec.begin("server.handle", req.Header.Get("X-Request-ID"), 0)
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(cw, req)
	sp.attr("status", int64(cw.status))
	sp.attr("bytes", cw.n)
	sp.end()
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// timedStore wraps the result store: while on is set, each Get and Put gets
// a store.get / store.put span whose request ID is the key's source hash
// (the store sees no request). Spans are linked to their server.handle
// parent after the run, by source hash and time containment.
type timedStore struct {
	store.Store
	rec *recorder
	on  *atomic.Bool
}

func (s timedStore) Get(k store.Key) ([]byte, bool) {
	if !s.on.Load() {
		return s.Store.Get(k)
	}
	sp := s.rec.begin("store.get", k.SourceHash, 0)
	body, ok := s.Store.Get(k)
	if ok {
		sp.attr("hit", 1)
	} else {
		sp.attr("hit", 0)
	}
	sp.end()
	return body, ok
}

func (s timedStore) Put(k store.Key, body []byte) {
	if !s.on.Load() {
		s.Store.Put(k, body)
		return
	}
	sp := s.rec.begin("store.put", k.SourceHash, 0)
	s.Store.Put(k, body)
	sp.end()
}
