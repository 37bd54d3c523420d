package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"semfeed/internal/assignments"
	"semfeed/internal/server"
)

// TestCacheFlagDisables pins the -cache flag through the daemon's own store
// wiring: -cache 0 and -cache -1 turn result caching off, so an identical
// resubmission is graded again ("cached": false), while the default size
// serves it from the cache.
func TestCacheFlagDisables(t *testing.T) {
	a := assignments.Get("assignment1")
	reg := server.NewRegistry("", nil)
	reg.AddBuiltin(a.ID, a.Spec)
	if err := reg.Load(); err != nil {
		t.Fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	body, _ := json.Marshal(server.GradeRequest{Assignment: a.ID, Source: a.Reference()})

	for _, c := range []struct {
		cache      int
		wantCached bool
	}{{-1, false}, {0, false}, {server.DefaultCacheSize, true}} {
		cfg := server.Config{Registry: reg}
		if err := configureStore(&cfg, logger, "memory", "", 0, c.cache, "", nil); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(cfg).Handler())
		var cached bool
		for i := 0; i < 2; i++ {
			resp, err := ts.Client().Post(ts.URL+"/v1/grade", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var gr server.GradeResponse
			err = json.NewDecoder(resp.Body).Decode(&gr)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("-cache %d: status %d, decode error %v", c.cache, resp.StatusCode, err)
			}
			cached = gr.Cached
		}
		ts.Close()
		if cached != c.wantCached {
			t.Errorf("-cache %d: resubmission cached = %v, want %v", c.cache, cached, c.wantCached)
		}
	}
}
