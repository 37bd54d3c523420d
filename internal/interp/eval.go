package interp

import (
	"math"
	"strconv"

	"semfeed/internal/java/ast"
	"semfeed/internal/java/token"
)

func evalLiteral(x *ast.Literal) (Value, error) {
	switch x.Kind {
	case token.INT, token.LONG:
		v, err := strconv.ParseInt(x.Text, 0, 64)
		if err != nil {
			// Out-of-range literals overflow like Java ints would.
			u, uerr := strconv.ParseUint(x.Text, 0, 64)
			if uerr != nil {
				return nil, errAt(x.P.Line, "bad integer literal %q", x.Text)
			}
			return int64(u), nil
		}
		return v, nil
	case token.FLOAT:
		v, err := strconv.ParseFloat(x.Text, 64)
		if err != nil {
			return nil, errAt(x.P.Line, "bad float literal %q", x.Text)
		}
		return v, nil
	case token.CHAR:
		if x.Text == "" {
			return Char(0), nil
		}
		return Char([]rune(x.Text)[0]), nil
	case token.STRING:
		return x.Text, nil
	case token.TRUE:
		return true, nil
	case token.FALSE:
		return false, nil
	case token.NULL:
		return nil, nil
	}
	return nil, errAt(x.P.Line, "bad literal kind %s", x.Kind)
}

// checkIndex validates an array subscript value against the array length,
// shared by the tree-walk and compiled engines.
func checkIndex(v Value, length int, line int) (int, error) {
	i, ok := AsInt(v)
	if !ok {
		return 0, errAt(line, "array index is %s, not int", valueType(v))
	}
	if i < 0 || int(i) >= length {
		return 0, errAt(line, "ArrayIndexOutOfBoundsException: index %d, length %d", i, length)
	}
	return int(i), nil
}

func binaryOp(op token.Kind, l, r Value, line int) (Value, error) {
	// String concatenation.
	if op == token.ADD {
		if _, ok := l.(string); ok {
			return l.(string) + Format(r), nil
		}
		if _, ok := r.(string); ok {
			return Format(l) + r.(string), nil
		}
	}
	switch op {
	case token.EQL:
		return refEqual(l, r), nil
	case token.NEQ:
		return !refEqual(l, r), nil
	}
	// Boolean bitwise operators.
	if lb, ok := l.(bool); ok {
		rb, ok2 := r.(bool)
		if !ok2 {
			return nil, errAt(line, "operator %s on boolean and %s", op, valueType(r))
		}
		switch op {
		case token.AND:
			return lb && rb, nil
		case token.OR:
			return lb || rb, nil
		case token.XOR:
			return lb != rb, nil
		}
		return nil, errAt(line, "operator %s on booleans", op)
	}
	// Numeric promotion: double wins.
	lf, lIsF := l.(float64)
	rf, rIsF := r.(float64)
	if lIsF || rIsF {
		var lv, rv float64
		var ok bool
		if lv, ok = AsFloat(l); !ok {
			return nil, errAt(line, "operator %s on %s and %s", op, valueType(l), valueType(r))
		}
		if rv, ok = AsFloat(r); !ok {
			return nil, errAt(line, "operator %s on %s and %s", op, valueType(l), valueType(r))
		}
		_ = lf
		_ = rf
		switch op {
		case token.ADD:
			return lv + rv, nil
		case token.SUB:
			return lv - rv, nil
		case token.MUL:
			return lv * rv, nil
		case token.QUO:
			return lv / rv, nil
		case token.REM:
			return math.Mod(lv, rv), nil
		case token.LSS:
			return lv < rv, nil
		case token.LEQ:
			return lv <= rv, nil
		case token.GTR:
			return lv > rv, nil
		case token.GEQ:
			return lv >= rv, nil
		}
		return nil, errAt(line, "operator %s on doubles", op)
	}
	li, lok := AsInt(l)
	ri, rok := AsInt(r)
	if !lok || !rok {
		// String comparison via compareTo is a method; == handled above.
		return nil, errAt(line, "operator %s on %s and %s", op, valueType(l), valueType(r))
	}
	switch op {
	case token.ADD:
		return li + ri, nil
	case token.SUB:
		return li - ri, nil
	case token.MUL:
		return li * ri, nil
	case token.QUO:
		if ri == 0 {
			return nil, errAt(line, "ArithmeticException: / by zero")
		}
		return li / ri, nil
	case token.REM:
		if ri == 0 {
			return nil, errAt(line, "ArithmeticException: / by zero")
		}
		return li % ri, nil
	case token.LSS:
		return li < ri, nil
	case token.LEQ:
		return li <= ri, nil
	case token.GTR:
		return li > ri, nil
	case token.GEQ:
		return li >= ri, nil
	case token.AND:
		return li & ri, nil
	case token.OR:
		return li | ri, nil
	case token.XOR:
		return li ^ ri, nil
	case token.SHL:
		return li << uint(ri&63), nil
	case token.SHR:
		return li >> uint(ri&63), nil
	case token.USHR:
		return int64(uint64(li) >> uint(ri&63)), nil
	}
	return nil, errAt(line, "unsupported operator %s", op)
}

// unaryOp applies a non-inc/dec prefix operator, shared by both engines.
func unaryOp(op token.Kind, v Value, line int) (Value, error) {
	switch op {
	case token.NOT:
		b, ok := v.(bool)
		if !ok {
			return nil, errAt(line, "! on %s", valueType(v))
		}
		return !b, nil
	case token.SUB:
		if fv, ok := v.(float64); ok {
			return -fv, nil
		}
		if iv, ok := AsInt(v); ok {
			return -iv, nil
		}
		return nil, errAt(line, "- on %s", valueType(v))
	case token.ADD:
		if IsNumeric(v) {
			return v, nil
		}
		return nil, errAt(line, "+ on %s", valueType(v))
	case token.TILDE:
		if iv, ok := AsInt(v); ok {
			return ^iv, nil
		}
		return nil, errAt(line, "~ on %s", valueType(v))
	}
	return nil, errAt(line, "unsupported unary %s", op)
}

// incDecValue computes the successor value of ++/--, shared by both engines.
func incDecValue(op token.Kind, old Value, delta int64, line int) (Value, error) {
	switch o := old.(type) {
	case int64:
		return o + delta, nil
	case Char:
		return Char(int64(o) + delta), nil
	case float64:
		return o + float64(delta), nil
	}
	return nil, errAt(line, "%s on %s", op, valueType(old))
}

// compoundOp maps a compound-assignment operator to its binary operator.
func compoundOp(op token.Kind) (token.Kind, bool) {
	switch op {
	case token.ADDASSIGN:
		return token.ADD, true
	case token.SUBASSIGN:
		return token.SUB, true
	case token.MULASSIGN:
		return token.MUL, true
	case token.QUOASSIGN:
		return token.QUO, true
	case token.REMASSIGN:
		return token.REM, true
	case token.ANDASSIGN:
		return token.AND, true
	case token.ORASSIGN:
		return token.OR, true
	case token.XORASSIGN:
		return token.XOR, true
	case token.SHLASSIGN:
		return token.SHL, true
	case token.SHRASSIGN:
		return token.SHR, true
	}
	return op, false
}

// narrowCompound narrows a compound-assignment result back to the target's
// type: Java keeps int (or char) when the old value was integral; we
// approximate that with the dynamic type of the old value. Shared by both
// engines.
func narrowCompound(old, v Value) Value {
	if _, wasInt := AsInt(old); wasInt {
		if _, isF := v.(float64); !isF {
			if iv, ok := AsInt(v); ok {
				if _, wasChar := old.(Char); wasChar {
					return Char(iv)
				}
				return iv
			}
		}
	}
	return v
}

// checkArrayDim validates a new-array dimension value, shared by both engines.
func checkArrayDim(v Value, line int) (int, error) {
	n, ok := AsInt(v)
	if !ok {
		return 0, errAt(line, "array size is %s", valueType(v))
	}
	if n < 0 {
		return 0, errAt(line, "NegativeArraySizeException: %d", n)
	}
	if n > 10_000_000 {
		return 0, errAt(line, "OutOfMemoryError: array size %d", n)
	}
	return int(n), nil
}

// buildArray allocates a zero-filled (possibly nested) array.
func buildArray(elem string, sizes []int, level int) *Array {
	arr := &Array{Elem: elem}
	arr.Elems = make([]Value, sizes[level])
	for i := range arr.Elems {
		if level+1 < len(sizes) {
			arr.Elems[i] = buildArray(elem, sizes, level+1)
		} else {
			arr.Elems[i] = zeroValue(elem, 0)
		}
	}
	return arr
}

func castValue(v Value, to ast.Type, line int) (Value, error) {
	if to.Dims > 0 {
		return v, nil
	}
	switch to.Name {
	case "int", "long", "short", "byte":
		switch x := v.(type) {
		case float64:
			return int64(x), nil
		case int64:
			return x, nil
		case Char:
			return int64(x), nil
		}
	case "double", "float":
		if fv, ok := AsFloat(v); ok {
			return fv, nil
		}
	case "char":
		if iv, ok := AsInt(v); ok {
			return Char(iv), nil
		}
	default:
		return v, nil
	}
	return nil, errAt(line, "cannot cast %s to %s", valueType(v), to.Name)
}
