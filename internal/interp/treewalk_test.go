package interp

import (
	"errors"
	"fmt"
	"strings"

	"semfeed/internal/java/ast"
	"semfeed/internal/java/token"
	"semfeed/internal/obs"
)

// This file is the tree-walking evaluator, the interpreter's test oracle. It
// walks the AST directly over per-scope maps, with no compilation step, and
// dispatches into the same value-level helpers as the compiled engine
// (binaryOp, mathCall, stringCall, ...). The differential tests
// (TestCompiledParity, FuzzRun, FuzzFoldConst, the Table I reference parity
// test) require both engines to agree on value, output, error text and exact
// step count; nothing outside the tests runs it.

// runTreeWalk executes the entry method on the tree-walking evaluator.
func runTreeWalk(unit *ast.CompilationUnit, entry string, args []Value, cfg Config) (res *Result, err error) {
	obs.InterpRunsTotal.Inc()
	m := &machine{
		cfg:     cfg,
		budget:  cfg.maxSteps(),
		done:    cfg.Done,
		methods: map[string]*ast.Method{},
		globals: map[string]Value{},
	}
	defer func() {
		obs.InterpStepsTotal.Add(int64(m.steps))
		if errors.Is(err, ErrStepLimit) {
			obs.InterpStepLimitTotal.Inc()
		}
	}()
	for _, meth := range unit.AllMethods() {
		if _, dup := m.methods[meth.Name]; !dup && meth.Body != nil {
			m.methods[meth.Name] = meth
		}
	}
	// Initialize class fields as globals, in declaration order.
	for _, cls := range unit.Classes {
		for _, f := range cls.Fields {
			for _, d := range f.Decl.Decls {
				var v Value
				if d.Init != nil {
					fr := &frame{machine: m, method: "<init>"}
					fr.push()
					var err error
					v, err = m.eval(d.Init, fr)
					if err != nil {
						return nil, err
					}
				} else {
					v = zeroValue(f.Decl.Type.Name, f.Decl.Type.Dims+d.ExtraDims)
				}
				m.globals[d.Name] = v
			}
		}
	}
	target, ok := m.methods[entry]
	if !ok {
		return nil, &RuntimeError{Msg: fmt.Sprintf("no method %q", entry)}
	}
	ret, err := m.invoke(target, args, 0)
	if err != nil {
		return nil, err
	}
	return &Result{Stdout: m.out.String(), Return: ret, Steps: m.steps}, nil
}

type machine struct {
	cfg     Config
	budget  int
	done    <-chan struct{}
	methods map[string]*ast.Method
	globals map[string]Value
	out     strings.Builder
	steps   int
}

func (m *machine) step(line int) error {
	m.steps++
	if m.steps > m.budget {
		return stepLimitErr(line)
	}
	if m.done != nil && m.steps&stepPollMask == 0 {
		select {
		case <-m.done:
			return canceledErr(line)
		default:
		}
	}
	return nil
}

// frame is one activation record with a stack of block scopes.
type frame struct {
	machine *machine
	method  string
	depth   int
	scopes  []map[string]Value
}

func (f *frame) push() { f.scopes = append(f.scopes, map[string]Value{}) }

func (f *frame) pop() { f.scopes = f.scopes[:len(f.scopes)-1] }

func (f *frame) define(name string, v Value) {
	f.scopes[len(f.scopes)-1][name] = v
}

func (f *frame) lookup(name string) (Value, bool) {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if v, ok := f.scopes[i][name]; ok {
			return v, true
		}
	}
	v, ok := f.machine.globals[name]
	return v, ok
}

func (f *frame) assign(name string, v Value, line int) error {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if _, ok := f.scopes[i][name]; ok {
			f.scopes[i][name] = v
			f.trace(line, name, v)
			return nil
		}
	}
	if _, ok := f.machine.globals[name]; ok {
		f.machine.globals[name] = v
		f.trace(line, name, v)
		return nil
	}
	return errAt(line, "cannot resolve variable %s", name)
}

func (f *frame) trace(line int, name string, v Value) {
	if f.machine.cfg.Tracer != nil {
		f.machine.cfg.Tracer.OnAssign(f.method, line, name, v)
	}
}

// invoke runs a method body in a fresh frame.
func (m *machine) invoke(meth *ast.Method, args []Value, depth int) (Value, error) {
	if depth > m.cfg.maxDepth() {
		return nil, &RuntimeError{Msg: "stack overflow", Line: meth.P.Line}
	}
	if len(args) != len(meth.Params) {
		return nil, errAt(meth.P.Line, "method %s expects %d arguments, got %d", meth.Name, len(meth.Params), len(args))
	}
	f := &frame{machine: m, method: meth.Name, depth: depth}
	f.push()
	for i, p := range meth.Params {
		f.define(p.Name, args[i])
		f.trace(p.P.Line, p.Name, args[i])
	}
	sig, ret, err := m.execStmt(meth.Body, f)
	if err != nil {
		return nil, err
	}
	if sig == sigReturn {
		return ret, nil
	}
	return nil, nil
}

type signal int

const (
	sigNone signal = iota
	sigBreak
	sigContinue
	sigReturn
)

func (m *machine) execStmt(s ast.Stmt, f *frame) (signal, Value, error) {
	if err := m.step(s.Pos().Line); err != nil {
		return sigNone, nil, err
	}
	switch x := s.(type) {
	case *ast.Block:
		f.push()
		defer f.pop()
		for _, st := range x.Stmts {
			sig, v, err := m.execStmt(st, f)
			if err != nil || sig != sigNone {
				return sig, v, err
			}
		}
		return sigNone, nil, nil

	case *ast.Empty:
		return sigNone, nil, nil

	case *ast.LocalVarDecl:
		for _, d := range x.Decls {
			var v Value
			if d.Init != nil {
				var err error
				v, err = m.evalInit(d.Init, x.Type, d, f)
				if err != nil {
					return sigNone, nil, err
				}
				v = coerceDecl(v, x.Type, d)
			} else {
				v = zeroValue(x.Type.Name, x.Type.Dims+d.ExtraDims)
			}
			f.define(d.Name, v)
			f.trace(d.P.Line, d.Name, v)
		}
		return sigNone, nil, nil

	case *ast.ExprStmt:
		_, err := m.eval(x.X, f)
		return sigNone, nil, err

	case *ast.If:
		c, err := m.evalBool(x.Cond, f)
		if err != nil {
			return sigNone, nil, err
		}
		if c {
			return m.execStmt(x.Then, f)
		}
		if x.Else != nil {
			return m.execStmt(x.Else, f)
		}
		return sigNone, nil, nil

	case *ast.While:
		for {
			c, err := m.evalBool(x.Cond, f)
			if err != nil {
				return sigNone, nil, err
			}
			if !c {
				return sigNone, nil, nil
			}
			sig, v, err := m.execStmt(x.Body, f)
			if err != nil {
				return sigNone, nil, err
			}
			switch sig {
			case sigBreak:
				return sigNone, nil, nil
			case sigReturn:
				return sig, v, nil
			}
		}

	case *ast.DoWhile:
		for {
			sig, v, err := m.execStmt(x.Body, f)
			if err != nil {
				return sigNone, nil, err
			}
			switch sig {
			case sigBreak:
				return sigNone, nil, nil
			case sigReturn:
				return sig, v, nil
			}
			c, err := m.evalBool(x.Cond, f)
			if err != nil {
				return sigNone, nil, err
			}
			if !c {
				return sigNone, nil, nil
			}
		}

	case *ast.For:
		f.push()
		defer f.pop()
		for _, init := range x.Init {
			if sig, v, err := m.execStmt(init, f); err != nil || sig != sigNone {
				return sig, v, err
			}
		}
		for {
			if x.Cond != nil {
				c, err := m.evalBool(x.Cond, f)
				if err != nil {
					return sigNone, nil, err
				}
				if !c {
					return sigNone, nil, nil
				}
			}
			sig, v, err := m.execStmt(x.Body, f)
			if err != nil {
				return sigNone, nil, err
			}
			if sig == sigBreak {
				return sigNone, nil, nil
			}
			if sig == sigReturn {
				return sig, v, nil
			}
			for _, u := range x.Update {
				if err := m.step(x.P.Line); err != nil {
					return sigNone, nil, err
				}
				if _, err := m.eval(u, f); err != nil {
					return sigNone, nil, err
				}
			}
		}

	case *ast.ForEach:
		it, err := m.eval(x.Iterable, f)
		if err != nil {
			return sigNone, nil, err
		}
		arr, err := iterableArray(it, x.P.Line)
		if err != nil {
			return sigNone, nil, err
		}
		f.push()
		defer f.pop()
		f.define(x.Name, zeroValue(x.ElemType.Name, x.ElemType.Dims))
		for _, el := range arr.Elems {
			if err := f.assign(x.Name, el, x.P.Line); err != nil {
				return sigNone, nil, err
			}
			sig, v, err := m.execStmt(x.Body, f)
			if err != nil {
				return sigNone, nil, err
			}
			if sig == sigBreak {
				return sigNone, nil, nil
			}
			if sig == sigReturn {
				return sig, v, nil
			}
		}
		return sigNone, nil, nil

	case *ast.Switch:
		tag, err := m.eval(x.Tag, f)
		if err != nil {
			return sigNone, nil, err
		}
		matched := false
		for _, c := range x.Cases {
			if !matched {
				if c.Exprs == nil {
					matched = true
				} else {
					for _, ce := range c.Exprs {
						cv, err := m.eval(ce, f)
						if err != nil {
							return sigNone, nil, err
						}
						if looseEqual(tag, cv) {
							matched = true
							break
						}
					}
				}
			}
			if matched { // fall through until break
				for _, st := range c.Stmts {
					sig, v, err := m.execStmt(st, f)
					if err != nil {
						return sigNone, nil, err
					}
					if sig == sigBreak {
						return sigNone, nil, nil
					}
					if sig != sigNone {
						return sig, v, nil
					}
				}
			}
		}
		return sigNone, nil, nil

	case *ast.Break:
		if x.Label != "" {
			// Labeled jumps are outside the subset; fail loudly rather than
			// silently breaking the innermost loop only.
			return sigNone, nil, errAt(x.P.Line, "labeled break is not supported")
		}
		return sigBreak, nil, nil
	case *ast.Continue:
		if x.Label != "" {
			return sigNone, nil, errAt(x.P.Line, "labeled continue is not supported")
		}
		return sigContinue, nil, nil
	case *ast.Return:
		if x.X == nil {
			return sigReturn, nil, nil
		}
		v, err := m.eval(x.X, f)
		return sigReturn, v, err
	case *ast.Throw:
		v, err := m.eval(x.X, f)
		if err != nil {
			return sigNone, nil, err
		}
		return sigNone, nil, errAt(x.P.Line, "exception thrown: %s", Format(v))
	}
	return sigNone, nil, errAt(s.Pos().Line, "unsupported statement %T", s)
}

// evalInit evaluates a declarator initializer, allowing bare array literals.
func (m *machine) evalInit(init ast.Expr, t ast.Type, d ast.Declarator, f *frame) (Value, error) {
	if lit, ok := init.(*ast.ArrayLit); ok {
		return m.evalArrayLit(lit, t.Name, f)
	}
	return m.eval(init, f)
}

func (m *machine) evalArrayLit(lit *ast.ArrayLit, elem string, f *frame) (Value, error) {
	arr := &Array{Elem: elem}
	for _, el := range lit.Elems {
		var v Value
		var err error
		if inner, ok := el.(*ast.ArrayLit); ok {
			v, err = m.evalArrayLit(inner, elem, f)
		} else {
			v, err = m.eval(el, f)
		}
		if err != nil {
			return nil, err
		}
		arr.Elems = append(arr.Elems, coerceElem(v, elem))
	}
	return arr, nil
}

// coerceDecl applies Java's implicit widening/narrowing at declarations:
// double d = 1 stores 1.0; int i = 'a' stores 97.
func coerceDecl(v Value, t ast.Type, d ast.Declarator) Value {
	if t.Dims+d.ExtraDims > 0 {
		return v
	}
	return coerceElem(v, t.Name)
}

func (m *machine) evalBool(e ast.Expr, f *frame) (bool, error) {
	v, err := m.eval(e, f)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, errAt(e.Pos().Line, "condition is %s, not boolean", valueType(v))
	}
	return b, nil
}

func (m *machine) eval(e ast.Expr, f *frame) (Value, error) {
	if err := m.step(e.Pos().Line); err != nil {
		return nil, err
	}
	switch x := e.(type) {
	case *ast.Literal:
		return evalLiteral(x)

	case *ast.Ident:
		if v, ok := f.lookup(x.Name); ok {
			return v, nil
		}
		return nil, errAt(x.P.Line, "cannot resolve variable %s", x.Name)

	case *ast.Paren:
		return m.eval(x.X, f)

	case *ast.Binary:
		return m.evalBinary(x, f)

	case *ast.Unary:
		return m.evalUnary(x, f)

	case *ast.Assign:
		return m.evalAssign(x, f)

	case *ast.Ternary:
		c, err := m.evalBool(x.Cond, f)
		if err != nil {
			return nil, err
		}
		if c {
			return m.eval(x.Then, f)
		}
		return m.eval(x.Else, f)

	case *ast.Call:
		return m.evalCall(x, f)

	case *ast.FieldAccess:
		return m.evalField(x, f)

	case *ast.Index:
		arrv, err := m.eval(x.X, f)
		if err != nil {
			return nil, err
		}
		arr, ok := arrv.(*Array)
		if !ok || arr == nil {
			return nil, errAt(x.P.Line, "array access on %s", valueType(arrv))
		}
		idx, err := m.evalIndex(x.Idx, len(arr.Elems), f)
		if err != nil {
			return nil, err
		}
		return arr.Elems[idx], nil

	case *ast.NewArray:
		return m.evalNewArray(x, f)

	case *ast.ArrayLit:
		return m.evalArrayLit(x, "int", f)

	case *ast.NewObject:
		return m.evalNewObject(x, f)

	case *ast.Cast:
		v, err := m.eval(x.X, f)
		if err != nil {
			return nil, err
		}
		return castValue(v, x.To, x.P.Line)

	case *ast.InstanceOf:
		v, err := m.eval(x.X, f)
		if err != nil {
			return nil, err
		}
		return v != nil, nil
	}
	return nil, errAt(e.Pos().Line, "unsupported expression %T", e)
}

func (m *machine) evalIndex(e ast.Expr, length int, f *frame) (int, error) {
	v, err := m.eval(e, f)
	if err != nil {
		return 0, err
	}
	return checkIndex(v, length, e.Pos().Line)
}

func (m *machine) evalBinary(x *ast.Binary, f *frame) (Value, error) {
	// Short-circuit operators first.
	switch x.Op {
	case token.LAND:
		l, err := m.evalBool(x.L, f)
		if err != nil || !l {
			return false, err
		}
		return m.evalBool(x.R, f)
	case token.LOR:
		l, err := m.evalBool(x.L, f)
		if err != nil || l {
			return l, err
		}
		return m.evalBool(x.R, f)
	}
	l, err := m.eval(x.L, f)
	if err != nil {
		return nil, err
	}
	r, err := m.eval(x.R, f)
	if err != nil {
		return nil, err
	}
	return binaryOp(x.Op, l, r, x.P.Line)
}

func (m *machine) evalUnary(x *ast.Unary, f *frame) (Value, error) {
	if x.Op == token.INC || x.Op == token.DEC {
		return m.evalIncDec(x, f)
	}
	v, err := m.eval(x.X, f)
	if err != nil {
		return nil, err
	}
	return unaryOp(x.Op, v, x.P.Line)
}

func (m *machine) evalIncDec(x *ast.Unary, f *frame) (Value, error) {
	delta := int64(1)
	if x.Op == token.DEC {
		delta = -1
	}
	old, err := m.eval(x.X, f)
	if err != nil {
		return nil, err
	}
	nv, err := incDecValue(x.Op, old, delta, x.P.Line)
	if err != nil {
		return nil, err
	}
	if err := m.store(x.X, nv, f); err != nil {
		return nil, err
	}
	if x.Postfix {
		return old, nil
	}
	return nv, nil
}

func (m *machine) evalAssign(x *ast.Assign, f *frame) (Value, error) {
	var v Value
	var err error
	if lit, ok := x.Value.(*ast.ArrayLit); ok {
		v, err = m.evalArrayLit(lit, "int", f)
	} else {
		v, err = m.eval(x.Value, f)
	}
	if err != nil {
		return nil, err
	}
	if x.Op != token.ASSIGN {
		old, err := m.eval(x.Target, f)
		if err != nil {
			return nil, err
		}
		binOp, ok := compoundOp(x.Op)
		if !ok {
			return nil, errAt(x.P.Line, "unsupported compound assignment %s", x.Op)
		}
		v, err = binaryOp(binOp, old, v, x.P.Line)
		if err != nil {
			return nil, err
		}
		v = narrowCompound(old, v)
	}
	if err := m.store(x.Target, v, f); err != nil {
		return nil, err
	}
	return v, nil
}

// store writes v into an lvalue expression.
func (m *machine) store(target ast.Expr, v Value, f *frame) error {
	switch t := target.(type) {
	case *ast.Paren:
		return m.store(t.X, v, f)
	case *ast.Ident:
		return f.assign(t.Name, v, t.P.Line)
	case *ast.Index:
		arrv, err := m.eval(t.X, f)
		if err != nil {
			return err
		}
		arr, ok := arrv.(*Array)
		if !ok || arr == nil {
			return errAt(t.P.Line, "array store on %s", valueType(arrv))
		}
		idx, err := m.evalIndex(t.Idx, len(arr.Elems), f)
		if err != nil {
			return err
		}
		arr.Elems[idx] = coerceElem(v, arr.Elem)
		if root, ok := t.X.(*ast.Ident); ok {
			f.trace(t.P.Line, root.Name, arr)
		}
		return nil
	}
	return errAt(target.Pos().Line, "invalid assignment target %T", target)
}

func (m *machine) evalNewArray(x *ast.NewArray, f *frame) (Value, error) {
	if x.Init != nil {
		lit := &ast.ArrayLit{Elems: x.Init, P: x.P}
		return m.evalArrayLit(lit, x.Elem.Name, f)
	}
	if len(x.Dims) == 0 {
		return nil, errAt(x.P.Line, "new array without dimensions")
	}
	sizes := make([]int, len(x.Dims))
	for i, d := range x.Dims {
		v, err := m.eval(d, f)
		if err != nil {
			return nil, err
		}
		n, err := checkArrayDim(v, x.P.Line)
		if err != nil {
			return nil, err
		}
		sizes[i] = n
	}
	return buildArray(x.Elem.Name, sizes, 0), nil
}

// evalCall dispatches method invocations: System.out printing, Math,
// Integer/Long/Double/Character/String statics, Scanner and String instance
// methods, and user-defined methods.
func (m *machine) evalCall(x *ast.Call, f *frame) (Value, error) {
	// System.out.print family.
	if fa, ok := x.Recv.(*ast.FieldAccess); ok {
		if root, ok2 := fa.X.(*ast.Ident); ok2 && root.Name == "System" && (fa.Name == "out" || fa.Name == "err") {
			return m.evalPrint(x, f)
		}
	}
	if recv, ok := x.Recv.(*ast.Ident); ok {
		switch recv.Name {
		case "Math":
			args, err := m.evalArgs(x.Args, f)
			if err != nil {
				return nil, err
			}
			return mathCall(x.Name, args, x.P.Line)
		case "Integer", "Long":
			args, err := m.evalArgs(x.Args, f)
			if err != nil {
				return nil, err
			}
			return integerStaticCall(x.Name, args, x.P.Line)
		case "Double":
			args, err := m.evalArgs(x.Args, f)
			if err != nil {
				return nil, err
			}
			return doubleStaticCall(x.Name, args, x.P.Line)
		case "String":
			args, err := m.evalArgs(x.Args, f)
			if err != nil {
				return nil, err
			}
			return stringStaticCall(x.Name, args, x.P.Line)
		case "Character":
			args, err := m.evalArgs(x.Args, f)
			if err != nil {
				return nil, err
			}
			return characterStaticCall(x.Name, args, x.P.Line)
		case "Arrays":
			args, err := m.evalArgs(x.Args, f)
			if err != nil {
				return nil, err
			}
			return arraysStaticCall(x.Name, args, x.P.Line)
		case "System":
			if x.Name == "exit" {
				return nil, errAt(x.P.Line, "System.exit called")
			}
		}
	}
	if x.Recv == nil {
		meth, ok := m.methods[x.Name]
		if !ok {
			return nil, errAt(x.P.Line, "cannot resolve method %s", x.Name)
		}
		args, err := m.evalArgs(x.Args, f)
		if err != nil {
			return nil, err
		}
		return m.invoke(meth, args, f.depth+1)
	}
	// Instance method: evaluate the receiver.
	recv, err := m.eval(x.Recv, f)
	if err != nil {
		return nil, err
	}
	switch r := recv.(type) {
	case *Scanner:
		return scannerCall(r, x.Name, x.P.Line)
	case string:
		args, err := m.evalArgs(x.Args, f)
		if err != nil {
			return nil, err
		}
		return stringCall(r, x.Name, args, x.P.Line)
	case *Array:
		return nil, errAt(x.P.Line, "arrays have no method %s", x.Name)
	case nil:
		return nil, errAt(x.P.Line, "NullPointerException: calling %s on null", x.Name)
	}
	return nil, errAt(x.P.Line, "cannot call %s on %s", x.Name, valueType(recv))
}

func (m *machine) evalArgs(exprs []ast.Expr, f *frame) ([]Value, error) {
	args := make([]Value, len(exprs))
	for i, a := range exprs {
		v, err := m.eval(a, f)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return args, nil
}

func (m *machine) evalPrint(x *ast.Call, f *frame) (Value, error) {
	switch x.Name {
	case "print", "println":
		var text string
		if len(x.Args) > 1 {
			return nil, errAt(x.P.Line, "%s takes at most one argument", x.Name)
		}
		if len(x.Args) == 1 {
			v, err := m.eval(x.Args[0], f)
			if err != nil {
				return nil, err
			}
			text = Format(v)
		}
		m.out.WriteString(text)
		if x.Name == "println" {
			m.out.WriteByte('\n')
		}
		return nil, nil
	case "printf", "format":
		if len(x.Args) == 0 {
			return nil, errAt(x.P.Line, "printf needs a format string")
		}
		args, err := m.evalArgs(x.Args, f)
		if err != nil {
			return nil, err
		}
		s, err := printfText(args, x.P.Line)
		if err != nil {
			return nil, err
		}
		m.out.WriteString(s)
		return nil, nil
	}
	return nil, errAt(x.P.Line, "System.out has no method %s", x.Name)
}

// evalField handles array .length, Integer/Double constants, Math constants
// and System.in (as a marker consumed by new Scanner(...)).
func (m *machine) evalField(x *ast.FieldAccess, f *frame) (Value, error) {
	if root, ok := x.X.(*ast.Ident); ok {
		if _, isVar := f.lookup(root.Name); !isVar {
			return staticFieldValue(root.Name, x.Name, x.P.Line)
		}
	}
	v, err := m.eval(x.X, f)
	if err != nil {
		return nil, err
	}
	return fieldOn(v, x.Name, x.P.Line)
}

func (m *machine) evalNewObject(x *ast.NewObject, f *frame) (Value, error) {
	switch x.Class {
	case "Scanner", "java.util.Scanner":
		if len(x.Args) != 1 {
			return nil, errAt(x.P.Line, "new Scanner expects 1 argument")
		}
		v, err := m.eval(x.Args[0], f)
		if err != nil {
			return nil, err
		}
		return scannerFromValue(v, x.P.Line, m.cfg.Stdin, m.cfg.Files)
	case "File", "java.io.File":
		if len(x.Args) != 1 {
			return nil, errAt(x.P.Line, "new File expects 1 argument")
		}
		v, err := m.eval(x.Args[0], f)
		if err != nil {
			return nil, err
		}
		return fileFromValue(v, x.P.Line)
	case "String":
		if len(x.Args) == 0 {
			return "", nil
		}
		v, err := m.eval(x.Args[0], f)
		if err != nil {
			return nil, err
		}
		return Format(v), nil
	case "StringBuilder", "StringBuffer":
		// Modeled as immutable strings; append returns a new value, which is
		// enough for the expression shapes in the corpus.
		if len(x.Args) == 1 {
			v, err := m.eval(x.Args[0], f)
			if err != nil {
				return nil, err
			}
			return Format(v), nil
		}
		return "", nil
	}
	return nil, errAt(x.P.Line, "cannot instantiate %s", x.Class)
}

// foldConstTreeWalk is FoldConst on the tree-walker: the same closedExpr
// prescreen and 1024-step budget, evaluated in a fresh scope.
func foldConstTreeWalk(e ast.Expr) (Value, bool) {
	if e == nil || !closedExpr(e) {
		return nil, false
	}
	m := &machine{
		cfg:     Config{MaxSteps: foldSteps},
		budget:  foldSteps,
		methods: map[string]*ast.Method{},
		globals: map[string]Value{},
	}
	f := &frame{machine: m, method: "<fold>"}
	f.push()
	v, err := m.eval(e, f)
	if err != nil {
		return nil, false
	}
	return v, true
}
