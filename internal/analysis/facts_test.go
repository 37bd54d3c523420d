package analysis

import (
	"testing"

	"semfeed/internal/java/parser"
	"semfeed/internal/pdg"
)

func buildMethod(t *testing.T, src string) *pdg.Graph {
	t.Helper()
	m, err := parser.ParseMethod(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return pdg.Build(m)
}

func nodeByContent(t *testing.T, g *pdg.Graph, content string) *pdg.Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Content == content {
			return n
		}
	}
	t.Fatalf("no node with content %q in\n%s", content, g)
	return nil
}

func TestCFGLoopBackEdge(t *testing.T) {
	g := buildMethod(t, `int sum(int n) {
		int s = 0;
		int i = 0;
		while (i < n) {
			s = s + i;
			i = i + 1;
		}
		return s;
	}`)
	cfg := BuildCFG(g)
	cond := nodeByContent(t, g, "i < n")
	inc := nodeByContent(t, g, "i = i + 1")
	ret := nodeByContent(t, g, "return s")

	hasSucc := func(from, to int) bool {
		for _, s := range cfg.Succ(from) {
			if s == to {
				return true
			}
		}
		return false
	}
	if !hasSucc(inc.ID, cond.ID) {
		t.Errorf("missing loop back edge v%d -> v%d", inc.ID, cond.ID)
	}
	if !hasSucc(cond.ID, ret.ID) {
		t.Errorf("missing loop exit edge v%d -> v%d", cond.ID, ret.ID)
	}
	if !hasSucc(ret.ID, cfg.Exit) {
		t.Errorf("return should edge to Exit")
	}
	if len(cfg.FallOff) != 0 {
		t.Errorf("method ends in return; FallOff = %v", cfg.FallOff)
	}

	// The loop condition dominates the body and the return; the increment
	// does not dominate the return (the zero-iteration path skips it).
	p := NewPass(g.Method, g)
	if !p.Dominates(cond.ID, inc.ID) || !p.Dominates(cond.ID, ret.ID) {
		t.Errorf("loop condition should dominate body and return")
	}
	if p.Dominates(inc.ID, ret.ID) {
		t.Errorf("loop body must not dominate the post-loop return")
	}

	// Reaching definitions: both "int i = 0" and "i = i + 1" reach the loop
	// condition (back edge), but only the increment kills the initializer
	// inside the body after it.
	decl := nodeByContent(t, g, "int i = 0")
	defs := p.ReachingDefs().In(cond.ID, "i")
	if len(defs) != 2 || defs[0] != decl.ID || defs[1] != inc.ID {
		t.Errorf("defs of i at loop condition = %v, want [%d %d]", defs, decl.ID, inc.ID)
	}
}

func TestCFGBranchJoin(t *testing.T) {
	g := buildMethod(t, `int abs(int x) {
		if (x < 0) {
			x = -x;
		}
		return x;
	}`)
	cfg := BuildCFG(g)
	cond := nodeByContent(t, g, "x < 0")
	neg := nodeByContent(t, g, "x = -x")
	ret := nodeByContent(t, g, "return x")
	// Both the then arm and the condition's false path join at the return.
	preds := cfg.Pred(ret.ID)
	if len(preds) != 2 {
		t.Fatalf("return preds = %v, want the negation and the condition", preds)
	}
	p := NewPass(g.Method, g)
	defs := p.ReachingDefs().In(ret.ID, "x")
	if len(defs) != 2 {
		t.Errorf("defs of x at return = %v, want param and negation", defs)
	}
	if !p.Dominates(cond.ID, ret.ID) || p.Dominates(neg.ID, ret.ID) {
		t.Errorf("condition dominates join, then-arm does not")
	}
}

func TestRegistryEnableDisable(t *testing.T) {
	reg := Default()
	if got := len(reg.Names()); got != 6 {
		t.Fatalf("default registry has %d analyzers, want 6", got)
	}
	d, err := reg.Driver([]string{"deadstore", "unreachable"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if names := d.Names(); len(names) != 2 || names[0] != "deadstore" || names[1] != "unreachable" {
		t.Errorf("enabled names = %v", names)
	}
	d, err = reg.Driver(nil, []string{"constcond"})
	if err != nil {
		t.Fatal(err)
	}
	if names := d.Names(); len(names) != 5 {
		t.Errorf("disable left %v", names)
	}
	if _, err := reg.Driver([]string{"nope"}, nil); err == nil {
		t.Error("unknown enable name should error")
	}
	if _, err := reg.Driver(nil, []string{"nope"}); err == nil {
		t.Error("unknown disable name should error")
	}

	// ParseDriver is the -analyzers flag of feedback and semfeedd.
	if d, err := ParseDriver("all"); err != nil || len(d.Names()) != 6 {
		t.Errorf(`ParseDriver("all") = %v, %v; want all 6 analyzers`, d, err)
	}
	for _, sel := range []string{"none", ""} {
		if d, err := ParseDriver(sel); d != nil || err != nil {
			t.Errorf("ParseDriver(%q) = %v, %v; want a nil driver", sel, d, err)
		}
	}
	if d, err := ParseDriver("deadstore,unreachable"); err != nil || len(d.Names()) != 2 {
		t.Errorf("ParseDriver(list) = %v, %v; want 2 analyzers", d, err)
	}
	if _, err := ParseDriver("nope"); err == nil {
		t.Error("ParseDriver of an unknown name should error")
	}
}

func TestDriverRunSortedAndCounted(t *testing.T) {
	src := `class T {
		static int bad(int n) {
			int x = n * 2;
			x = 1;
			return x;
		}
	}`
	unit, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	diags := DefaultDriver().Run(pdg.BuildAll(unit))
	if len(diags) != 1 || diags[0].Analyzer != "deadstore" {
		t.Fatalf("diags = %v, want one deadstore", diags)
	}
	d := diags[0]
	if d.Method != "bad" || d.Severity != Warning || d.Line != 3 {
		t.Errorf("diagnostic fields = %+v", d)
	}
	counts := Counts(diags)
	if counts["deadstore"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if Counts(nil) != nil {
		t.Error("Counts(nil) should be nil")
	}
}

func TestSeverityJSON(t *testing.T) {
	for _, s := range []Severity{Info, Warning, Error} {
		b, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Severity
		if err := back.UnmarshalJSON(b); err != nil || back != s {
			t.Errorf("round trip %v: got %v, err %v", s, back, err)
		}
	}
	var s Severity
	if err := s.UnmarshalJSON([]byte(`"fatal"`)); err == nil {
		t.Error("unknown severity should fail to unmarshal")
	}
}
