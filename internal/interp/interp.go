package interp

import (
	"errors"
	"fmt"

	"semfeed/internal/java/ast"
)

// Default execution limits. Exported so tests and callers can reason about
// the budget they inherit when Config leaves the fields zero.
const (
	// DefaultMaxSteps is the step budget of a run when Config.MaxSteps is 0.
	DefaultMaxSteps = 2_000_000
	// DefaultMaxDepth is the call-depth limit when Config.MaxDepth is 0.
	DefaultMaxDepth = 2_000
	// stepPollMask: the Done channel is polled every stepPollMask+1 steps,
	// keeping cancellation a cheap counter test in the dispatch loop.
	stepPollMask = 1023
)

// ErrStepLimit is returned when execution exceeds the step budget; in the
// grading harness it diagnoses infinite loops. The returned error is a
// *RuntimeError carrying the line of the last executed node and unwraps to
// this sentinel, so errors.Is(err, ErrStepLimit) keeps working.
var ErrStepLimit = errors.New("step limit exceeded (possible infinite loop)")

// ErrCanceled is returned when Config.Done is closed mid-run. Like
// ErrStepLimit it surfaces as a *RuntimeError that unwraps to this sentinel.
var ErrCanceled = errors.New("execution canceled")

// RuntimeError is a Java runtime failure (division by zero, array index out
// of bounds, null dereference, missing input, ...).
type RuntimeError struct {
	Msg  string
	Line int
	Err  error // optional sentinel cause (ErrStepLimit, ErrCanceled)
}

// Error renders the failure with its source line.
func (e *RuntimeError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("runtime error at line %d: %s", e.Line, e.Msg)
	}
	return "runtime error: " + e.Msg
}

// Unwrap exposes the sentinel cause so errors.Is matches ErrStepLimit and
// ErrCanceled through the line-carrying wrapper.
func (e *RuntimeError) Unwrap() error { return e.Err }

// stepLimitErr reports fuel exhaustion at the line of the last executed node.
func stepLimitErr(line int) error {
	return &RuntimeError{Msg: ErrStepLimit.Error(), Line: line, Err: ErrStepLimit}
}

// canceledErr reports a Done-channel cancellation at the current node.
func canceledErr(line int) error {
	return &RuntimeError{Msg: ErrCanceled.Error(), Line: line, Err: ErrCanceled}
}

// Tracer observes variable writes during execution; the CLARA-style baseline
// uses it to collect variable traces.
type Tracer interface {
	// OnAssign is invoked after each variable write with the method, source
	// line, variable name and new value.
	OnAssign(method string, line int, name string, v Value)
}

// Config configures a run. The zero value reads empty input, has no virtual
// files and uses the default step budget.
type Config struct {
	Stdin    string
	Files    map[string]string // virtual file system for new Scanner(new File(...))
	MaxSteps int               // default DefaultMaxSteps
	MaxDepth int               // default DefaultMaxDepth frames
	Tracer   Tracer
	// Done, when non-nil, cancels the run: the dispatch loop polls it every
	// stepPollMask+1 steps and aborts with ErrCanceled. Wire ctx.Done() here
	// to give interpreter runs the same deadline behavior as the matcher.
	Done <-chan struct{}
}

func (c Config) maxSteps() int {
	if c.MaxSteps > 0 {
		return c.MaxSteps
	}
	return DefaultMaxSteps
}

func (c Config) maxDepth() int {
	if c.MaxDepth > 0 {
		return c.MaxDepth
	}
	return DefaultMaxDepth
}

// Result is the outcome of a successful run.
type Result struct {
	Stdout string
	Return Value
	Steps  int
}

// Run executes the entry method of the unit with the given arguments on the
// compiled engine: the AST is lowered to closure code (see Compile) and then
// dispatched. Callers that execute the same unit many times should Compile
// once (or use a Cache) and call Program.Run per execution.
func Run(unit *ast.CompilationUnit, entry string, args []Value, cfg Config) (*Result, error) {
	return Compile(unit).Run(entry, args, cfg)
}

func errAt(line int, format string, args ...any) error {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...), Line: line}
}

// iterableArray converts a for-each iterable value to an array: arrays pass
// through, strings iterate as char arrays, everything else is an error.
func iterableArray(it Value, line int) (*Array, error) {
	if arr, ok := it.(*Array); ok {
		return arr, nil
	}
	if s, isStr := it.(string); isStr {
		arr := &Array{Elem: "char"}
		for _, r := range s {
			arr.Elems = append(arr.Elems, Char(r))
		}
		return arr, nil
	}
	return nil, errAt(line, "for-each over non-array %s", valueType(it))
}

func coerceElem(v Value, typeName string) Value {
	switch typeName {
	case "double", "float":
		if fv, ok := AsFloat(v); ok {
			return fv
		}
	case "int", "long", "byte", "short":
		if iv, ok := AsInt(v); ok {
			return iv
		}
	case "char":
		if iv, ok := AsInt(v); ok {
			return Char(iv)
		}
	}
	return v
}

func looseEqual(a, b Value) bool {
	if af, aok := AsFloat(a); aok {
		if bf, bok := AsFloat(b); bok {
			return af == bf
		}
	}
	return a == b
}

// refEqual implements Java's == operator: numeric comparison for primitives,
// reference comparison otherwise. Two distinct runtime String values are
// never == (they are not interned), which is exactly the classic student bug
// the string-field-compare pattern teaches about.
func refEqual(a, b Value) bool {
	if af, aok := AsFloat(a); aok {
		if bf, bok := AsFloat(b); bok {
			return af == bf
		}
		return false
	}
	if ab, aok := a.(bool); aok {
		bb, bok := b.(bool)
		return bok && ab == bb
	}
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if _, aok := a.(string); aok {
		if _, bok := b.(string); bok {
			return false // distinct String objects; use .equals
		}
		return false
	}
	return a == b
}
