package parser_test

import (
	"errors"
	"strings"
	"testing"

	"semfeed/internal/java/ast"
	"semfeed/internal/java/parser"
	"semfeed/internal/java/pretty"
	"semfeed/internal/java/token"
)

func mustExpr(t *testing.T, src string) ast.Expr {
	t.Helper()
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func TestExprPrecedence(t *testing.T) {
	cases := map[string]string{
		"1 + 2 * 3":           "1 + 2 * 3",
		"(1 + 2) * 3":         "(1 + 2) * 3",
		"a || b && c":         "a || b && c",
		"(a || b) && c":       "(a || b) && c",
		"-x * y":              "-x * y",
		"!(a == b)":           "!(a == b)",
		"a == b == true":      "a == b == true",
		"i % 2 == 1":          "i % 2 == 1",
		"x << 2 + 1":          "x << 2 + 1",
		"a ? b : c ? d : e":   "a ? b : c ? d : e",
		"x = y = z":           "x = y = z",
		"a[i + 1]":            "a[i + 1]",
		"m(1, x + 2)":         "m(1, x + 2)",
		"a.b.c(d)":            "a.b.c(d)",
		"new int[n + 1]":      "new int[n + 1]",
		"(double) x / 2":      "(double) x / 2",
		"x++ + ++y":           "x++ + ++y",
		"s.length() - 1":      "s.length() - 1",
		"arr.length":          "arr.length",
		"x instanceof String": "x instanceof String",
	}
	for src, want := range cases {
		got := pretty.Expr(mustExpr(t, src))
		if got != want {
			t.Errorf("%q: canonical %q, want %q", src, got, want)
		}
	}
}

func TestCanonicalDropsRedundantParens(t *testing.T) {
	cases := map[string]string{
		"((x))":               "x",
		"(x + y) + z":         "x + y + z",
		"x + (y + z)":         "x + (y + z)", // right-nesting preserved: not assumed associative
		"f * ((n + 1))":       "f * (n + 1)",
		"(i % 2) == 1":        "i % 2 == 1",
		"(a[i])":              "a[i]",
		"((a != null)) && ok": "a != null && ok",
	}
	for src, want := range cases {
		got := pretty.Expr(mustExpr(t, src))
		if got != want {
			t.Errorf("%q: canonical %q, want %q", src, got, want)
		}
	}
}

func TestParseMethodShapes(t *testing.T) {
	srcs := []string{
		"void f() {}",
		"int f(int a, double b) { return a; }",
		"public static void main(String[] args) { }",
		"int[] f(int[][] grid, int n) { return grid[n]; }",
		"void f(int... xs) {}",
		"long f(int k) throws Exception { return k; }",
	}
	for _, src := range srcs {
		if _, err := parser.ParseMethod(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

func TestParseClassForms(t *testing.T) {
	src := `package edu.example;
	import java.util.Scanner;
	import java.io.*;

	public class Solution extends Base implements Runnable {
	  static int calls = 0;
	  private final double rate = 1.5, bonus = 2;

	  public static void main(String[] args) {
	    System.out.println("hi");
	  }

	  int helper(int x) { return x + 1; }
	}`
	unit, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if unit.Package != "edu.example" {
		t.Errorf("package = %q", unit.Package)
	}
	if len(unit.Imports) != 2 || unit.Imports[1] != "java.io.*" {
		t.Errorf("imports = %v", unit.Imports)
	}
	if len(unit.Classes) != 1 {
		t.Fatalf("classes = %d", len(unit.Classes))
	}
	cls := unit.Classes[0]
	if len(cls.Methods) != 2 || len(cls.Fields) != 2 {
		t.Errorf("methods = %d fields = %d", len(cls.Methods), len(cls.Fields))
	}
	if unit.FindMethod("helper") == nil {
		t.Error("FindMethod(helper) = nil")
	}
}

func TestStatements(t *testing.T) {
	src := `void f(int n) {
	  int a = 0, b[] = null;
	  if (n > 0) a++; else a--;
	  while (a < n) a += 2;
	  do { a--; } while (a > 0);
	  for (int i = 0, j = 1; i < n; i++, j--) b = null;
	  for (;;) break;
	  for (int v : new int[]{1, 2}) a += v;
	  switch (n) {
	  case 1:
	  case 2:
	    a = 5;
	    break;
	  default:
	    a = 9;
	  }
	  outer:
	  while (true) { continue; }
	  int[] c = {1, 2, 3};
	  ;
	  return;
	}`
	m, err := parser.ParseMethod(src)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, s := range m.Body.Stmts {
		kinds = append(kinds, strings.TrimPrefix(strings.TrimPrefix(typeName(s), "*ast."), "ast."))
	}
	want := []string{"LocalVarDecl", "If", "While", "DoWhile", "For", "For", "ForEach",
		"Switch", "While", "LocalVarDecl", "Empty", "Return"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Errorf("statement kinds\n got %v\nwant %v", kinds, want)
	}
}

func typeName(v any) string {
	switch v.(type) {
	case *ast.LocalVarDecl:
		return "LocalVarDecl"
	case *ast.If:
		return "If"
	case *ast.While:
		return "While"
	case *ast.DoWhile:
		return "DoWhile"
	case *ast.For:
		return "For"
	case *ast.ForEach:
		return "ForEach"
	case *ast.Switch:
		return "Switch"
	case *ast.Empty:
		return "Empty"
	case *ast.Return:
		return "Return"
	case *ast.ExprStmt:
		return "ExprStmt"
	case *ast.Block:
		return "Block"
	}
	return "?"
}

func TestTryCatchGradesBody(t *testing.T) {
	src := `void f() {
	  try {
	    int x = 1;
	  } catch (Exception e) {
	    int y = 2;
	  } finally {
	    int z = 3;
	  }
	}`
	m, err := parser.ParseMethod(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Body.Stmts) != 1 {
		t.Fatalf("want 1 top statement, got %d", len(m.Body.Stmts))
	}
	blk, ok := m.Body.Stmts[0].(*ast.Block)
	if !ok || len(blk.Stmts) != 2 { // try body + finally body
		t.Errorf("try lowering wrong: %T with %d stmts", m.Body.Stmts[0], len(blk.Stmts))
	}
}

func TestScannerDeclDisambiguation(t *testing.T) {
	src := `void f() {
	  Scanner s = new Scanner(System.in);
	  s.close();
	  foo(s);
	}`
	m, err := parser.ParseMethod(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Body.Stmts[0].(*ast.LocalVarDecl); !ok {
		t.Errorf("first statement should be a declaration, got %T", m.Body.Stmts[0])
	}
	if _, ok := m.Body.Stmts[1].(*ast.ExprStmt); !ok {
		t.Errorf("second statement should be an expression, got %T", m.Body.Stmts[1])
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"void f( {}",
		"void f() { int = 5; }",
		"void f() { if (x { y(); } }",
		"void f() { return",
		"class {}",
	}
	for _, src := range bad {
		if _, err := parser.Parse(src); err == nil {
			t.Errorf("%q: expected a syntax error", src)
		}
	}
}

func TestErrorsDoNotPanicOrHang(t *testing.T) {
	nasty := []string{
		strings.Repeat("{", 200),
		strings.Repeat("(", 200),
		"void f() { " + strings.Repeat("x ", 500) + "}",
		"@#$%^&*",
		"void f() { for (;;;;;) {} }",
		"int int int",
	}
	for _, src := range nasty {
		// Must terminate without panicking, including past 100 errors.
		_, _ = parser.Parse(src)
		_, _ = parser.ParseExpr(src)
		_, _ = parser.ParseStmt(src)
	}
}

// nested wraps body in n copies of open and close.
func nested(n int, open, body, close string) string {
	return strings.Repeat(open, n) + body + strings.Repeat(close, n)
}

// TestNestingBudget pins MaxNesting: deep parentheses, blocks, unary chains
// and flat operator or postfix chains inside the budget parse, and past it
// they fail with an ordinary syntax error instead of exhausting the stack
// (or, for the flat chains, building an AST deep enough to exhaust it in a
// recursive walker downstream).
func TestNestingBudget(t *testing.T) {
	method := func(body string) string { return "void f() { " + body + " }" }
	ok := []struct{ name, src string }{
		{"parens", method("int x = " + nested(parser.MaxNesting-10, "(", "1", ")") + ";")},
		{"blocks", method(nested(parser.MaxNesting-10, "{", "", "}"))},
		{"unary", method("int x = " + strings.Repeat("- ", parser.MaxNesting-10) + "1;")},
		{"not", method("boolean b = " + strings.Repeat("!", parser.MaxNesting-10) + "true;")},
		{"sum-chain", method("int x = 1" + strings.Repeat("+1", parser.MaxNesting-10) + ";")},
		{"difference-chain", method("int x = 1" + strings.Repeat("-1", parser.MaxNesting-10) + ";")},
		{"subscript-chain", method("int x = a" + strings.Repeat("[0]", parser.MaxNesting-10) + ";")},
	}
	for _, c := range ok {
		if _, err := parser.Parse(c.src); err != nil {
			t.Errorf("%s within the budget: %v", c.name, err)
		}
	}
	deep := []struct{ name, src string }{
		{"parens", method("int x = " + nested(parser.MaxNesting, "(", "1", ")") + ";")},
		{"blocks", method(nested(parser.MaxNesting+1, "{", "", "}"))},
		{"unary", method("int x = " + strings.Repeat("- ", parser.MaxNesting+1) + "1;")},
		{"casts", method("int x = " + strings.Repeat("(int) ", parser.MaxNesting+1) + "1;")},
		{"ternaries", method("int x = " + strings.Repeat("c ? 1 : ", parser.MaxNesting+1) + "0;")},
		{"assignments", method(strings.Repeat("x = ", parser.MaxNesting+1) + "0;")},
		{"array-literal", method("int[] a = " + nested(parser.MaxNesting+1, "{", "1", "}") + ";")},
		{"if-chain", method(strings.Repeat("if (c) ", parser.MaxNesting+1) + "x++;")},
		{"sum-chain", method("int x = 1" + strings.Repeat("+1", parser.MaxNesting) + ";")},
		{"difference-chain", method("int x = 1" + strings.Repeat("-1", parser.MaxNesting) + ";")},
		{"subscript-chain", method("int x = a" + strings.Repeat("[0]", parser.MaxNesting) + ";")},
		{"call-chain", method("s" + strings.Repeat(".f()", parser.MaxNesting) + ";")},
		{"field-chain", method("int x = s" + strings.Repeat(".f", parser.MaxNesting) + ";")},
		{"instanceof-chain", method("boolean b = s" + strings.Repeat(" instanceof T == b", parser.MaxNesting) + ";")},
		// The shapes that used to kill the process: 3 MB bodies of nested
		// parentheses, of a flat sum, of a flat difference and of a flat
		// subscript chain.
		{"3MB-parens", method("int x = " + nested(1_500_000, "(", "1", ")") + ";")},
		{"3MB-sum-chain", method("int x = 1" + strings.Repeat("+1", 1_500_000) + ";")},
		{"3MB-difference-chain", method("int x = 1" + strings.Repeat("-1", 1_500_000) + ";")},
		{"3MB-subscript-chain", method("int x = a" + strings.Repeat("[0]", 1_000_000) + ";")},
	}
	for _, c := range deep {
		_, err := parser.Parse(c.src)
		if !errors.Is(err, parser.ErrSyntax) || !strings.Contains(err.Error(), "nesting deeper than") {
			t.Errorf("%s past the budget: got %v, want a nesting syntax error", c.name, err)
		}
	}
	if _, err := parser.ParseExpr(nested(parser.MaxNesting, "(", "1", ")")); !errors.Is(err, parser.ErrSyntax) {
		t.Errorf("ParseExpr past the budget: got %v, want a syntax error", err)
	}
	if _, err := parser.ParseStmt(nested(parser.MaxNesting+1, "{", "", "}")); !errors.Is(err, parser.ErrSyntax) {
		t.Errorf("ParseStmt past the budget: got %v, want a syntax error", err)
	}
}

func TestBareMethodsAndWrappedClassesEquivalent(t *testing.T) {
	bare := "int f(int x) { return x * 2; }"
	wrapped := "public class S { public static int f(int x) { return x * 2; } }"
	u1, err1 := parser.Parse(bare)
	u2, err2 := parser.Parse(wrapped)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	m1, m2 := u1.FindMethod("f"), u2.FindMethod("f")
	if m1 == nil || m2 == nil {
		t.Fatal("method not found")
	}
	if pretty.Stmt(m1.Body.Stmts[0]) != pretty.Stmt(m2.Body.Stmts[0]) {
		t.Error("bodies should canonicalize identically")
	}
}

func TestAssignKinds(t *testing.T) {
	for _, op := range []string{"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="} {
		e := mustExpr(t, "x "+op+" 2")
		a, ok := e.(*ast.Assign)
		if !ok {
			t.Fatalf("%q: not an assignment", op)
		}
		if a.Op.String() != op {
			t.Errorf("op = %v, want %s", a.Op, op)
		}
	}
}

func TestLiteralKinds(t *testing.T) {
	cases := map[string]token.Kind{
		"42":    token.INT,
		"4.2":   token.FLOAT,
		`"s"`:   token.STRING,
		"'c'":   token.CHAR,
		"true":  token.TRUE,
		"false": token.FALSE,
		"null":  token.NULL,
	}
	for src, want := range cases {
		lit, ok := mustExpr(t, src).(*ast.Literal)
		if !ok || lit.Kind != want {
			t.Errorf("%q: got %v", src, lit)
		}
	}
}
