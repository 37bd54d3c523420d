package interp

import "semfeed/internal/java/ast"

// foldSteps is the step budget of one constant fold. Closed expressions are
// small; the budget only stops a pathological one from costing much.
const foldSteps = 1024

// FoldConst evaluates a closed expression — one built purely from literals,
// arithmetic/logical operators, parentheses, casts and ternaries — to its
// constant value. The static-analysis layer uses it to detect conditions
// that fold to true or false at compile time ("constant condition").
//
// ok is false when the expression mentions a variable, call, allocation or
// any other non-constant construct, or when evaluation itself fails (e.g.
// division by zero): such expressions are simply not constants, never an
// error.
//
// The expression is lowered and run on the compiled engine exactly as a
// class-field initializer is: a bare exprFn over emptyFrame, with no locals
// and no globals to resolve.
func FoldConst(e ast.Expr) (Value, bool) {
	if e == nil || !closedExpr(e) {
		return nil, false
	}
	c := &compiler{p: &Program{}, fn: &compiledMethod{name: "<fold>"}}
	v, err := c.expr(e)(&vm{budget: foldSteps}, emptyFrame)
	if err != nil {
		return nil, false
	}
	return v, true
}

// closedExpr reports whether e is built only from constant-foldable node
// kinds. Idents, calls, indexing, allocations and assignments all make the
// expression depend on runtime state.
func closedExpr(e ast.Expr) bool {
	ok := true
	ast.Inspect(e, func(x ast.Expr) bool {
		switch x.(type) {
		case *ast.Literal, *ast.Paren, *ast.Unary, *ast.Binary, *ast.Cast, *ast.Ternary:
			return ok
		default:
			ok = false
			return false
		}
	})
	return ok
}
