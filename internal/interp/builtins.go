package interp

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// The Java built-in surface (Math/Integer/Double/String/Character/Arrays
// statics, Scanner and String instance methods, field constants, object
// construction) is implemented as pure value-level functions taking the
// method name, the evaluated arguments and the call's source line. The
// compiled engine dispatches into these helpers, and so does the
// tree-walking test oracle (treewalk_test.go), so the two agree on
// semantics and error strings by construction.

// printfText renders a printf/format call from its evaluated arguments
// (args[0] is the format string), shared by both engines.
func printfText(args []Value, line int) (string, error) {
	format, ok := args[0].(string)
	if !ok {
		return "", errAt(line, "printf format is %s", valueType(args[0]))
	}
	s, err := javaPrintf(format, args[1:])
	if err != nil {
		return "", errAt(line, "%v", err)
	}
	return s, nil
}

// javaPrintf translates the common Java format verbs to Go's and formats.
func javaPrintf(format string, args []Value) (string, error) {
	var sb strings.Builder
	ai := 0
	nextArg := func() (Value, error) {
		if ai >= len(args) {
			return nil, fmt.Errorf("MissingFormatArgumentException")
		}
		v := args[ai]
		ai++
		return v, nil
	}
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			sb.WriteByte(c)
			continue
		}
		j := i + 1
		for j < len(format) && (format[j] == '-' || format[j] == '+' || format[j] == '0' ||
			format[j] == ' ' || format[j] == ',' || format[j] == '.' ||
			(format[j] >= '0' && format[j] <= '9')) {
			j++
		}
		if j >= len(format) {
			return "", fmt.Errorf("UnknownFormatConversionException")
		}
		verb := format[j]
		spec := strings.ReplaceAll(format[i:j], ",", "") // Java grouping flag
		switch verb {
		case 'n':
			sb.WriteByte('\n')
		case '%':
			sb.WriteByte('%')
		case 'd':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			iv, ok := AsInt(v)
			if !ok {
				return "", fmt.Errorf("IllegalFormatConversionException: d != %s", valueType(v))
			}
			fmt.Fprintf(&sb, spec+"d", iv)
		case 'f', 'e', 'g':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			fv, ok := AsFloat(v)
			if !ok {
				return "", fmt.Errorf("IllegalFormatConversionException: f != %s", valueType(v))
			}
			fmt.Fprintf(&sb, spec+string(verb), fv)
		case 's':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, spec+"s", Format(v))
		case 'c':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			iv, _ := AsInt(v)
			fmt.Fprintf(&sb, spec+"c", rune(iv))
		case 'b':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, spec+"t", v == true)
		default:
			return "", fmt.Errorf("UnknownFormatConversionException: %%%c", verb)
		}
		i = j
	}
	return sb.String(), nil
}

func mathCall(name string, args []Value, line int) (Value, error) {
	need := func(n int) error {
		if len(args) != n {
			return errAt(line, "Math.%s expects %d arguments", name, n)
		}
		return nil
	}
	f1 := func() (float64, error) {
		if err := need(1); err != nil {
			return 0, err
		}
		v, ok := AsFloat(args[0])
		if !ok {
			return 0, errAt(line, "Math.%s on %s", name, valueType(args[0]))
		}
		return v, nil
	}
	switch name {
	case "abs":
		if err := need(1); err != nil {
			return nil, err
		}
		switch v := args[0].(type) {
		case int64:
			if v < 0 {
				return -v, nil
			}
			return v, nil
		case float64:
			return math.Abs(v), nil
		}
	case "max", "min":
		if err := need(2); err != nil {
			return nil, err
		}
		li, lok := args[0].(int64)
		ri, rok := args[1].(int64)
		if lok && rok {
			if (name == "max") == (li > ri) {
				return li, nil
			}
			return ri, nil
		}
		lf, _ := AsFloat(args[0])
		rf, _ := AsFloat(args[1])
		if name == "max" {
			return math.Max(lf, rf), nil
		}
		return math.Min(lf, rf), nil
	case "pow":
		if err := need(2); err != nil {
			return nil, err
		}
		lf, _ := AsFloat(args[0])
		rf, _ := AsFloat(args[1])
		return math.Pow(lf, rf), nil
	case "sqrt":
		v, err := f1()
		if err != nil {
			return nil, err
		}
		return math.Sqrt(v), nil
	case "cbrt":
		v, err := f1()
		if err != nil {
			return nil, err
		}
		return math.Cbrt(v), nil
	case "log":
		v, err := f1()
		if err != nil {
			return nil, err
		}
		return math.Log(v), nil
	case "log10":
		v, err := f1()
		if err != nil {
			return nil, err
		}
		return math.Log10(v), nil
	case "exp":
		v, err := f1()
		if err != nil {
			return nil, err
		}
		return math.Exp(v), nil
	case "floor":
		v, err := f1()
		if err != nil {
			return nil, err
		}
		return math.Floor(v), nil
	case "ceil":
		v, err := f1()
		if err != nil {
			return nil, err
		}
		return math.Ceil(v), nil
	case "round":
		v, err := f1()
		if err != nil {
			return nil, err
		}
		return int64(math.Floor(v + 0.5)), nil
	case "random":
		// Deterministic for reproducible grading.
		return 0.5, nil
	}
	return nil, errAt(line, "unsupported Math.%s", name)
}

func integerStaticCall(name string, args []Value, line int) (Value, error) {
	switch name {
	case "parseInt", "parseLong", "valueOf":
		if len(args) != 1 {
			return nil, errAt(line, "%s expects 1 argument", name)
		}
		switch v := args[0].(type) {
		case string:
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return nil, errAt(line, "NumberFormatException: %q", v)
			}
			return n, nil
		case int64:
			return v, nil
		}
		return nil, errAt(line, "%s on %s", name, valueType(args[0]))
	case "toString":
		if len(args) != 1 {
			return nil, errAt(line, "toString expects 1 argument")
		}
		return Format(args[0]), nil
	}
	return nil, errAt(line, "unsupported Integer.%s", name)
}

func doubleStaticCall(name string, args []Value, line int) (Value, error) {
	switch name {
	case "parseDouble", "valueOf":
		if len(args) != 1 {
			return nil, errAt(line, "%s expects 1 argument", name)
		}
		switch v := args[0].(type) {
		case string:
			d, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return nil, errAt(line, "NumberFormatException: %q", v)
			}
			return d, nil
		default:
			if fv, ok := AsFloat(v); ok {
				return fv, nil
			}
		}
	case "toString":
		if len(args) == 1 {
			return Format(args[0]), nil
		}
	}
	return nil, errAt(line, "unsupported Double.%s", name)
}

func stringStaticCall(name string, args []Value, line int) (Value, error) {
	switch name {
	case "valueOf":
		if len(args) == 1 {
			return Format(args[0]), nil
		}
	case "format":
		if len(args) >= 1 {
			if _, ok := args[0].(string); !ok {
				return nil, errAt(line, "String.format needs a format string")
			}
			s, err := javaPrintf(args[0].(string), args[1:])
			if err != nil {
				return nil, errAt(line, "%v", err)
			}
			return s, nil
		}
	}
	return nil, errAt(line, "unsupported String.%s", name)
}

func characterStaticCall(name string, args []Value, line int) (Value, error) {
	if len(args) != 1 {
		return nil, errAt(line, "Character.%s expects 1 argument", name)
	}
	c, ok := AsInt(args[0])
	if !ok {
		return nil, errAt(line, "Character.%s on %s", name, valueType(args[0]))
	}
	r := rune(c)
	switch name {
	case "isDigit":
		return r >= '0' && r <= '9', nil
	case "isLetter":
		return (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'), nil
	case "isWhitespace":
		return r == ' ' || r == '\t' || r == '\n' || r == '\r', nil
	case "toLowerCase":
		return Char(strings.ToLower(string(r))[0]), nil
	case "toUpperCase":
		return Char(strings.ToUpper(string(r))[0]), nil
	case "getNumericValue":
		if r >= '0' && r <= '9' {
			return int64(r - '0'), nil
		}
		return int64(-1), nil
	}
	return nil, errAt(line, "unsupported Character.%s", name)
}

func arraysStaticCall(name string, args []Value, line int) (Value, error) {
	switch name {
	case "toString":
		if len(args) == 1 {
			arr, ok := args[0].(*Array)
			if !ok {
				return "null", nil
			}
			parts := make([]string, len(arr.Elems))
			for i, e := range arr.Elems {
				parts[i] = Format(e)
			}
			return "[" + strings.Join(parts, ", ") + "]", nil
		}
	case "sort":
		if len(args) == 1 {
			arr, ok := args[0].(*Array)
			if !ok || arr == nil {
				return nil, errAt(line, "Arrays.sort on %s", valueType(args[0]))
			}
			sortArray(arr)
			return nil, nil
		}
	}
	return nil, errAt(line, "unsupported Arrays.%s", name)
}

func sortArray(arr *Array) {
	// Insertion sort: inputs are tiny and it avoids defining an order on Value.
	for i := 1; i < len(arr.Elems); i++ {
		for j := i; j > 0; j-- {
			a, _ := AsFloat(arr.Elems[j-1])
			b, _ := AsFloat(arr.Elems[j])
			if a <= b {
				break
			}
			arr.Elems[j-1], arr.Elems[j] = arr.Elems[j], arr.Elems[j-1]
		}
	}
}

// scannerCall dispatches a Scanner instance method. Scanner methods never
// evaluate call arguments (none of the supported ones take any).
func scannerCall(s *Scanner, name string, line int) (Value, error) {
	if s.closed && name != "close" {
		return nil, errAt(line, "IllegalStateException: Scanner closed")
	}
	fail := func() error {
		return errAt(line, "NoSuchElementException: Scanner.%s", name)
	}
	switch name {
	case "next":
		tok, ok := s.Next()
		if !ok {
			return nil, fail()
		}
		return tok, nil
	case "nextInt", "nextLong":
		v, ok := s.NextInt()
		if !ok {
			return nil, fail()
		}
		return v, nil
	case "nextDouble", "nextFloat":
		v, ok := s.NextDouble()
		if !ok {
			return nil, fail()
		}
		return v, nil
	case "nextLine":
		v, ok := s.NextLine()
		if !ok {
			return nil, fail()
		}
		return v, nil
	case "hasNext":
		return s.HasNext(), nil
	case "hasNextInt", "hasNextLong":
		return s.HasNextInt(), nil
	case "hasNextDouble":
		return s.HasNextDouble(), nil
	case "hasNextLine":
		return s.HasNextLine(), nil
	case "close":
		s.Close()
		return nil, nil
	}
	return nil, errAt(line, "unsupported Scanner.%s", name)
}

func stringCall(s string, name string, args []Value, line int) (Value, error) {
	need := func(n int) error {
		if len(args) != n {
			return errAt(line, "String.%s expects %d arguments", name, n)
		}
		return nil
	}
	switch name {
	case "length":
		if err := need(0); err != nil {
			return nil, err
		}
		return int64(len(s)), nil
	case "isEmpty":
		return s == "", nil
	case "charAt":
		if err := need(1); err != nil {
			return nil, err
		}
		i, ok := AsInt(args[0])
		if !ok || i < 0 || int(i) >= len(s) {
			return nil, errAt(line, "StringIndexOutOfBoundsException: %v", args[0])
		}
		return Char(s[i]), nil
	case "equals":
		if err := need(1); err != nil {
			return nil, err
		}
		other, _ := args[0].(string)
		return s == other, nil
	case "equalsIgnoreCase":
		if err := need(1); err != nil {
			return nil, err
		}
		other, _ := args[0].(string)
		return strings.EqualFold(s, other), nil
	case "compareTo":
		if err := need(1); err != nil {
			return nil, err
		}
		other, _ := args[0].(string)
		return int64(strings.Compare(s, other)), nil
	case "contains":
		if err := need(1); err != nil {
			return nil, err
		}
		other, _ := args[0].(string)
		return strings.Contains(s, other), nil
	case "indexOf":
		if err := need(1); err != nil {
			return nil, err
		}
		switch a := args[0].(type) {
		case string:
			return int64(strings.Index(s, a)), nil
		default:
			if iv, ok := AsInt(a); ok {
				return int64(strings.IndexRune(s, rune(iv))), nil
			}
		}
	case "substring":
		switch len(args) {
		case 1:
			i, _ := AsInt(args[0])
			if i < 0 || int(i) > len(s) {
				return nil, errAt(line, "StringIndexOutOfBoundsException: %d", i)
			}
			return s[i:], nil
		case 2:
			i, _ := AsInt(args[0])
			j, _ := AsInt(args[1])
			if i < 0 || j < i || int(j) > len(s) {
				return nil, errAt(line, "StringIndexOutOfBoundsException: %d..%d", i, j)
			}
			return s[i:j], nil
		}
	case "toLowerCase":
		return strings.ToLower(s), nil
	case "toUpperCase":
		return strings.ToUpper(s), nil
	case "trim":
		return strings.TrimSpace(s), nil
	case "toCharArray":
		arr := &Array{Elem: "char"}
		for _, r := range s {
			arr.Elems = append(arr.Elems, Char(r))
		}
		return arr, nil
	case "split":
		if err := need(1); err != nil {
			return nil, err
		}
		sep, _ := args[0].(string)
		arr := &Array{Elem: "String"}
		for _, part := range strings.Split(s, sep) {
			arr.Elems = append(arr.Elems, part)
		}
		return arr, nil
	case "startsWith":
		if err := need(1); err != nil {
			return nil, err
		}
		p, _ := args[0].(string)
		return strings.HasPrefix(s, p), nil
	case "endsWith":
		if err := need(1); err != nil {
			return nil, err
		}
		p, _ := args[0].(string)
		return strings.HasSuffix(s, p), nil
	case "concat":
		if err := need(1); err != nil {
			return nil, err
		}
		p, _ := args[0].(string)
		return s + p, nil
	case "append": // StringBuilder modeled as a string
		if err := need(1); err != nil {
			return nil, err
		}
		return s + Format(args[0]), nil
	case "toString":
		return s, nil
	case "replace":
		if err := need(2); err != nil {
			return nil, err
		}
		from := Format(args[0])
		to := Format(args[1])
		return strings.ReplaceAll(s, from, to), nil
	}
	return nil, errAt(line, "unsupported String.%s", name)
}

// staticFieldValue resolves Class.FIELD constants: Integer/Long/Double
// MIN/MAX, Math.PI/E and System.in (a fresh marker FileRef per access, so
// reference identity matches the tree-walk evaluator).
func staticFieldValue(class, field string, line int) (Value, error) {
	switch class {
	case "Integer":
		switch field {
		case "MAX_VALUE":
			return int64(math.MaxInt32), nil
		case "MIN_VALUE":
			return int64(math.MinInt32), nil
		}
	case "Long":
		switch field {
		case "MAX_VALUE":
			return int64(math.MaxInt64), nil
		case "MIN_VALUE":
			return int64(math.MinInt64), nil
		}
	case "Double":
		switch field {
		case "MAX_VALUE":
			return math.MaxFloat64, nil
		case "MIN_VALUE":
			return math.SmallestNonzeroFloat64, nil
		}
	case "Math":
		switch field {
		case "PI":
			return math.Pi, nil
		case "E":
			return math.E, nil
		}
	case "System":
		if field == "in" {
			return &FileRef{Name: stdinMarker}, nil
		}
	}
	return nil, errAt(line, "cannot resolve %s.%s", class, field)
}

// fieldOn resolves a field access on a runtime value (array .length, null
// dereference), shared by both engines.
func fieldOn(v Value, name string, line int) (Value, error) {
	switch r := v.(type) {
	case *Array:
		if name == "length" {
			if r == nil {
				return nil, errAt(line, "NullPointerException: .length on null array")
			}
			return int64(len(r.Elems)), nil
		}
	case nil:
		return nil, errAt(line, "NullPointerException: .%s on null", name)
	}
	return nil, errAt(line, "cannot resolve field %s on %s", name, valueType(v))
}

// stdinMarker is the virtual file name that new Scanner(System.in) reads.
const stdinMarker = "\x00stdin"

// scannerFromValue constructs a Scanner over its single constructor
// argument: System.in marker, virtual file or literal string.
func scannerFromValue(v Value, line int, stdin string, files map[string]string) (Value, error) {
	switch src := v.(type) {
	case *FileRef:
		if src.Name == stdinMarker {
			return NewScanner(stdin), nil
		}
		content, ok := files[src.Name]
		if !ok {
			return nil, errAt(line, "FileNotFoundException: %s", src.Name)
		}
		return NewScanner(content), nil
	case string:
		return NewScanner(src), nil
	}
	return nil, errAt(line, "new Scanner on %s", valueType(v))
}

// fileFromValue constructs the FileRef for new File(name).
func fileFromValue(v Value, line int) (Value, error) {
	name, ok := v.(string)
	if !ok {
		return nil, errAt(line, "new File on %s", valueType(v))
	}
	return &FileRef{Name: name}, nil
}
