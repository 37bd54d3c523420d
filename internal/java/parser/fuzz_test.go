package parser_test

import (
	"strings"
	"testing"

	"semfeed/internal/java/parser"
	"semfeed/internal/java/pretty"
	"semfeed/internal/pdg"
)

// FuzzParse drives the whole static front half — lexer, parser, canonical
// printer and EPDG builder — with arbitrary inputs. Nothing may panic or
// hang; valid inputs must canonicalize to a fixpoint.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"void f() {}",
		"void assignment1(int[] a) { int odd = 0; for (int i = 0; i <= a.length; i++) if (i % 2 == 1) odd += a[i]; System.out.println(odd); }",
		"int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }",
		"class C { static int x = 1; void m() { switch (x) { case 1: break; default: x++; } } }",
		"void f() { do { x--; } while (x > 0); }",
		"void f() { Scanner s = new Scanner(new File(\"x\")); while (s.hasNext()) s.next(); }",
		"void f() { int[][] m = new int[2][3]; m[0][1] = 5; }",
		"void broken( {",
		"}}}}((((",
		"void f() { for (;;) break; }",
		// Deep nesting: just inside and just past parser.MaxNesting. The
		// inside cases also drive the recursive downstream walkers at
		// their deepest.
		"void f() { int x = " + strings.Repeat("(", parser.MaxNesting-10) + "1" + strings.Repeat(")", parser.MaxNesting-10) + "; }",
		"void f() { int x = " + strings.Repeat("(", parser.MaxNesting) + "1" + strings.Repeat(")", parser.MaxNesting) + "; }",
		"void f() " + strings.Repeat("{", parser.MaxNesting-10) + strings.Repeat("}", parser.MaxNesting-10),
		strings.Repeat("{", parser.MaxNesting+1),
		"void f() { boolean b = " + strings.Repeat("!", parser.MaxNesting-10) + "true; }",
		"void f() { int x = " + strings.Repeat("- ", parser.MaxNesting+1) + "1; }",
		// Flat chains the parser folds in a loop: each fold is one AST
		// level, so they are charged against the same budget.
		"void f() { int x = 1" + strings.Repeat("+1", parser.MaxNesting-10) + "; }",
		"void f() { int x = 1" + strings.Repeat("+1", parser.MaxNesting) + "; }",
		"void f() { int x = 1" + strings.Repeat("-1", parser.MaxNesting-10) + "; }",
		"void f() { int x = 1" + strings.Repeat("-1", parser.MaxNesting) + "; }",
		"void f(int[] a) { int x = a" + strings.Repeat("[0]", parser.MaxNesting-10) + "; }",
		"void f(int[] a) { int x = a" + strings.Repeat("[0]", parser.MaxNesting) + "; }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		unit, err := parser.Parse(src)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		for _, m := range unit.AllMethods() {
			if m.Body == nil {
				continue
			}
			g := pdg.Build(m)
			for _, n := range g.Nodes {
				_ = n.Renderings()
			}
			_ = g.DOT()
		}
		// Canonicalization fixpoint on every statement rendering.
		for _, m := range unit.AllMethods() {
			if m.Body == nil {
				continue
			}
			for _, s := range m.Body.Stmts {
				_ = pretty.Stmt(s)
			}
		}
	})
}
