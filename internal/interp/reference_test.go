package interp_test

import (
	"testing"

	"semfeed/internal/assignments"
	"semfeed/internal/functest"
	"semfeed/internal/interp"
	"semfeed/internal/java/parser"
)

// cloneArg deep-copies an argument array, so a reference that mutates its
// input hands each engine the same values.
func cloneArg(v interp.Value) interp.Value {
	arr, ok := v.(*interp.Array)
	if !ok || arr == nil {
		return v
	}
	cp := &interp.Array{Elem: arr.Elem, Elems: make([]interp.Value, len(arr.Elems))}
	for i, e := range arr.Elems {
		cp.Elems[i] = cloneArg(e)
	}
	return cp
}

func cloneArgs(args []interp.Value) []interp.Value {
	out := make([]interp.Value, len(args))
	for i, a := range args {
		out[i] = cloneArg(a)
	}
	return out
}

// TestReferenceParity runs every Table I reference solution over its
// functional-test suite on both engines. Each case must give identical
// stdout, return snapshot, error text, step count and trace stream, and the
// reference must pass its own suite on the tree-walker too.
func TestReferenceParity(t *testing.T) {
	all := assignments.All()
	if len(all) != 12 {
		t.Fatalf("%d assignments, want the 12 Table I rows", len(all))
	}
	for _, a := range all {
		t.Run(a.ID, func(t *testing.T) {
			unit, err := parser.Parse(a.Reference())
			if err != nil {
				t.Fatalf("reference does not parse: %v", err)
			}
			prog := interp.Compile(unit)
			s := a.Tests
			if len(s.Cases) == 0 {
				t.Fatal("empty suite")
			}
			for _, c := range s.Cases {
				ct, wt := &recordingTracer{}, &recordingTracer{}
				cfg := interp.Config{Stdin: c.Stdin, Files: c.Files, MaxSteps: s.MaxSteps}
				ccfg, wcfg := cfg, cfg
				ccfg.Tracer, wcfg.Tracer = ct, wt
				got, gotErr := prog.Run(s.Entry, cloneArgs(c.Args), ccfg)
				want, wantErr := interp.RunTreeWalk(unit, s.Entry, cloneArgs(c.Args), wcfg)
				if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
					t.Fatalf("case %s: error divergence: compiled %v, tree-walk %v", c.Name, gotErr, wantErr)
				}
				if wantErr != nil {
					t.Fatalf("case %s: reference fails: %v", c.Name, wantErr)
				}
				if normalizePtrs(got.Stdout) != normalizePtrs(want.Stdout) {
					t.Fatalf("case %s: stdout divergence:\ncompiled:  %q\ntree-walk: %q", c.Name, got.Stdout, want.Stdout)
				}
				if interp.Snapshot(got.Return) != interp.Snapshot(want.Return) {
					t.Fatalf("case %s: return divergence: compiled %s, tree-walk %s",
						c.Name, interp.Snapshot(got.Return), interp.Snapshot(want.Return))
				}
				if got.Steps != want.Steps {
					t.Fatalf("case %s: step divergence: compiled %d, tree-walk %d", c.Name, got.Steps, want.Steps)
				}
				if len(ct.events) != len(wt.events) {
					t.Fatalf("case %s: trace length divergence: compiled %d, tree-walk %d", c.Name, len(ct.events), len(wt.events))
				}
				for i := range ct.events {
					if ct.events[i] != wt.events[i] {
						t.Fatalf("case %s: trace divergence at %d: compiled %q, tree-walk %q", c.Name, i, ct.events[i], wt.events[i])
					}
				}
				if !functest.OutputEqual(want.Stdout, c.Want) {
					t.Fatalf("case %s: tree-walk output %q, want %q", c.Name, want.Stdout, c.Want)
				}
				if c.CompareReturn && !interp.DeepEqual(want.Return, c.WantReturn) {
					t.Fatalf("case %s: tree-walk returns %s, want %s", c.Name, interp.Snapshot(want.Return), interp.Snapshot(c.WantReturn))
				}
			}
		})
	}
}
