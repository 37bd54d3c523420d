package interp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"semfeed/internal/java/parser"
)

var foldCases = []struct {
	src  string
	want Value
	ok   bool
}{
	{"1 + 1 == 2", true, true},
	{"2 > 3", false, true},
	{"(1 + 2) * 3", int64(9), true},
	{"!false", true, true},
	{"true && false", false, true},
	{"1 < 2 ? 10 : 20", int64(10), true},
	{"x + 1", nil, false},         // free variable
	{"f()", nil, false},           // call
	{"a[0]", nil, false},          // index
	{"1 / 0", nil, false},         // folds but faults: not a constant
	{"\"a\" + \"b\"", "ab", true}, // string concatenation
	{"1 % 0", nil, false},
	{"5 / 2", int64(2), true},
	{"1.0 / 0", math.Inf(1), true},
	{"-(3)", int64(-3), true},
	{"~5", int64(-6), true},
	{"1 << 3", int64(8), true},
	{"++1", nil, false}, // not an lvalue
	{"1 + true", nil, false},
	{"false && 1 / 0 == 0", false, true}, // short circuit skips the fault
	{"true && 1 / 0 == 0", nil, false},
	// Casts.
	{"(int) 3.9", int64(3), true},
	{"(double) 1 / 2", 0.5, true},
	{"(char) 65", Char('A'), true},
	{"(int) 'a'", int64(97), true},
	{"(long) 7", int64(7), true},
	{"(boolean) 1", int64(1), true}, // non-numeric cast targets pass the value through
	// char, long and String operands.
	{"'a' + 1", int64(98), true},
	{"'a' == 97", true, true},
	{"'b' > 'a'", true, true},
	{"10L * 3", int64(30), true},
	{"\"n=\" + 1 + 2", "n=12", true},
	{"1 + 2 + \"s\"", "3s", true},
	{"\"c\" + 'd'", "cd", true},
	{"\"a\" == \"a\"", false, true}, // distinct String objects
	{"\"a\" - 1", nil, false},
	// Ternaries.
	{"1 > 2 ? \"x\" : \"y\"", "y", true},
	{"true ? 1 : 2.0", int64(1), true},
	{"1 ? 2 : 3", nil, false}, // non-boolean condition
	{"false ? 1 / 0 : 4", int64(4), true},
	// The 1024-step budget: 401 terms take 801 steps, 600 terms 1199.
	{strings.Repeat("1 + ", 400) + "1", int64(401), true},
	{strings.Repeat("1 + ", 599) + "1", nil, false},
}

// sameConst compares two fold results by dynamic type and value; %#v keeps
// NaN, infinities and negative zero distinguishable and comparable.
func sameConst(a, b Value) bool {
	return fmt.Sprintf("%T %#v", a, a) == fmt.Sprintf("%T %#v", b, b)
}

func TestFoldConst(t *testing.T) {
	for _, c := range foldCases {
		e, err := parser.ParseExpr(c.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.src, err)
		}
		got, ok := FoldConst(e)
		if ok != c.ok {
			t.Errorf("FoldConst(%s) ok = %v, want %v", c.src, ok, c.ok)
			continue
		}
		if ok && !sameConst(got, c.want) {
			t.Errorf("FoldConst(%s) = %v (%T), want %v (%T)", c.src, got, got, c.want, c.want)
		}
	}
	if _, ok := FoldConst(nil); ok {
		t.Error("FoldConst(nil) should not fold")
	}
}

// checkFoldParity requires the compiled FoldConst and the tree-walking
// oracle to agree on ok, dynamic type and value.
func checkFoldParity(t *testing.T, src string) {
	t.Helper()
	e, err := parser.ParseExpr(src)
	if err != nil {
		return
	}
	got, gotOK := FoldConst(e)
	want, wantOK := foldConstTreeWalk(e)
	if gotOK != wantOK {
		t.Fatalf("FoldConst(%s): compiled ok=%v (%v), tree-walk ok=%v (%v)", src, gotOK, got, wantOK, want)
	}
	if !sameConst(got, want) {
		t.Fatalf("FoldConst(%s): compiled %T %#v, tree-walk %T %#v", src, got, got, want, want)
	}
}

func TestFoldConstParity(t *testing.T) {
	for _, c := range foldCases {
		checkFoldParity(t, c.src)
	}
}

// FuzzFoldConst is a differential fuzzer for constant folding: arbitrary
// expressions fold on the compiled engine and on the tree-walking oracle,
// which must agree on whether the expression is a constant and on its value.
func FuzzFoldConst(f *testing.F) {
	for _, c := range foldCases {
		f.Add(c.src)
	}
	f.Fuzz(checkFoldParity)
}
