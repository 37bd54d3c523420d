package obs

import (
	"context"
	"strings"
	"testing"
)

const (
	tpTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	tpSpan  = "00f067aa0ba902b7"
)

func TestParseTraceparentValid(t *testing.T) {
	for _, tt := range []struct {
		header  string
		sampled bool
	}{
		{"00-" + tpTrace + "-" + tpSpan + "-01", true},
		{"00-" + tpTrace + "-" + tpSpan + "-00", false},
		{"  00-" + tpTrace + "-" + tpSpan + "-01  ", true},              // surrounding whitespace
		{"00-" + strings.ToUpper(tpTrace) + "-" + tpSpan + "-01", true}, // uppercase IDs normalize
		{"cc-" + tpTrace + "-" + tpSpan + "-01-extra-fields", true},     // future version, longer form
	} {
		tc, ok := ParseTraceparent(tt.header)
		if !ok {
			t.Errorf("ParseTraceparent(%q) rejected a valid header", tt.header)
			continue
		}
		if tc.TraceID != tpTrace || tc.SpanID != tpSpan || tc.Sampled != tt.sampled {
			t.Errorf("ParseTraceparent(%q) = %+v", tt.header, tc)
		}
	}
}

func TestParseTraceparentInvalid(t *testing.T) {
	for _, h := range []string{
		"",
		"garbage",
		"00-" + tpTrace + "-" + tpSpan, // missing flags
		"00-" + tpTrace + "-" + tpSpan + "-01-extra",                         // version 00 must be exactly 4 parts
		"ff-" + tpTrace + "-" + tpSpan + "-01",                               // reserved version
		"0-" + tpTrace + "-" + tpSpan + "-01",                                // short version
		"00-" + strings.Repeat("0", 32) + "-" + tpSpan + "-01",               // all-zero trace ID
		"00-" + tpTrace + "-" + strings.Repeat("0", 16) + "-01",              // all-zero span ID
		"00-" + tpTrace[:31] + "-" + tpSpan + "-01",                          // short trace ID
		"00-" + tpTrace + "-" + tpSpan + "-zz",                               // non-hex flags
		"00-" + strings.Replace(tpTrace, "4", "g", 1) + "-" + tpSpan + "-01", // non-hex trace ID
	} {
		if tc, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted: %+v", h, tc)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: tpTrace, SpanID: tpSpan, Sampled: true}
	h := tc.Traceparent()
	if h != "00-"+tpTrace+"-"+tpSpan+"-01" {
		t.Fatalf("Traceparent() = %q", h)
	}
	back, ok := ParseTraceparent(h)
	if !ok || back != tc {
		t.Errorf("round trip = %+v, ok=%v", back, ok)
	}
}

func TestNewTraceContext(t *testing.T) {
	a, b := NewTraceContext(), NewTraceContext()
	if !a.Valid() || !b.Valid() {
		t.Fatalf("minted contexts invalid: %+v / %+v", a, b)
	}
	if !a.Sampled {
		t.Error("minted context not sampled")
	}
	if a.TraceID == b.TraceID {
		t.Error("two minted contexts share a trace ID")
	}
}

func TestTraceContextThroughContext(t *testing.T) {
	tc := TraceContext{TraceID: tpTrace, SpanID: tpSpan, Sampled: true}
	ctx := WithTraceContext(context.Background(), tc)
	got, ok := TraceContextFrom(ctx)
	if !ok || got != tc {
		t.Errorf("TraceContextFrom = %+v, ok=%v", got, ok)
	}
	if _, ok := TraceContextFrom(context.Background()); ok {
		t.Error("bare context reported a trace context")
	}
}

func TestOutboundTraceparent(t *testing.T) {
	// Under an inbound context: same trace ID, fresh span ID.
	tc := TraceContext{TraceID: tpTrace, SpanID: tpSpan, Sampled: true}
	out, ok := ParseTraceparent(OutboundTraceparent(WithTraceContext(context.Background(), tc)))
	if !ok {
		t.Fatal("outbound header does not parse")
	}
	if out.TraceID != tpTrace {
		t.Errorf("outbound trace ID = %q, want the inbound %q", out.TraceID, tpTrace)
	}
	if out.SpanID == tpSpan {
		t.Error("outbound call reused the inbound span ID")
	}
	// Without one: a freshly minted valid identity.
	minted, ok := ParseTraceparent(OutboundTraceparent(context.Background()))
	if !ok || !minted.Valid() {
		t.Errorf("minted outbound header invalid: %+v, ok=%v", minted, ok)
	}
}

func TestSpanAdoptsRemoteParent(t *testing.T) {
	withCollection(t, func() {
		withStoreDefaults(t, 16, 0) // every trace is a tail trace
		tc := TraceContext{TraceID: tpTrace, SpanID: tpSpan, Sampled: true}
		root := StartTrace("grade/remote")
		root.SetRemoteParent(tc.Traceparent())
		root.End()

		td := LastTrace()
		if td == nil {
			t.Fatal("no trace recorded")
		}
		if td.TraceParent != tc.Traceparent() {
			t.Errorf("trace parent = %q, want %q", td.TraceParent, tc.Traceparent())
		}
		if !strings.Contains(td.Tree(), "traceparent="+tc.Traceparent()) {
			t.Errorf("text tree does not show the remote parent:\n%s", td.Tree())
		}
	})
}
