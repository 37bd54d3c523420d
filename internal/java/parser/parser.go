// Package parser implements a recursive-descent parser for the Java subset.
// It accepts full compilation units (package/imports/classes) as well as the
// bare-method form common in MOOC submissions.
package parser

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"semfeed/internal/java/ast"
	"semfeed/internal/java/lexer"
	"semfeed/internal/java/token"
	"semfeed/internal/obs"
)

// MaxNesting bounds the depth of the AST the parser builds. Every statement,
// every expression, every array literal and every prefix operator or cast
// opens one level while its operands parse, and every binary operator or
// postfix step (call, field access, subscript, ++/--) that a loop folds into
// its left operand holds one level until the loop returns. Past the bound
// the parse fails with an ordinary syntax error instead of exhausting the
// goroutine stack on hostile input such as a megabyte of "(((" or of
// "1+1+…". Because flat chains are charged too, it bounds every AST the
// recursive walkers downstream see (pretty printing, EPDG construction,
// interpreter compilation, constant folding). Real submissions stay far
// below it: the built-in reference solutions and their synthesized variants
// peak at 9.
const MaxNesting = 1000

// scanBatch is how many tokens the parser lexes ahead at a time.
const scanBatch = 256

// Parser consumes a token stream and produces an AST. Tokens are scanned on
// demand, so a parse that bails out early never lexes the rest of its input.
type Parser struct {
	lx     *lexer.Lexer
	toks   []token.Token // scanned so far; ends with EOF once input is done
	pos    int
	depth  int // open nesting levels, see MaxNesting
	errors []error
}

// ErrSyntax wraps all syntax errors reported by Parse helpers.
var ErrSyntax = errors.New("syntax error")

// Parse parses src as a compilation unit.
func Parse(src string) (*ast.CompilationUnit, error) {
	start := time.Now()
	obs.ParsesTotal.Inc()
	lx := lexer.New(src)
	p := &Parser{lx: lx}
	unit := p.parseUnit()
	obs.ParseSeconds.ObserveDuration(time.Since(start))
	errs := append(lx.Errors(), p.errors...)
	if len(errs) > 0 {
		obs.ParseErrorsTotal.Inc()
		msgs := make([]string, 0, len(errs))
		for i, e := range errs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(errs)-i))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return unit, fmt.Errorf("%w: %s", ErrSyntax, strings.Join(msgs, "; "))
	}
	return unit, nil
}

// ParseMethod parses a single method declaration (the usual shape of a MOOC
// submission snippet).
func ParseMethod(src string) (*ast.Method, error) {
	unit, err := Parse(src)
	if err != nil {
		return nil, err
	}
	ms := unit.AllMethods()
	if len(ms) == 0 {
		return nil, fmt.Errorf("%w: no method found", ErrSyntax)
	}
	return ms[0], nil
}

// ParseExpr parses a single expression (used by the pattern compiler).
func ParseExpr(src string) (ast.Expr, error) {
	lx := lexer.New(src)
	p := &Parser{lx: lx}
	var e ast.Expr
	p.try(func() { e = p.parseExpr() })
	if len(lx.Errors()) > 0 || len(p.errors) > 0 || p.cur().Kind != token.EOF {
		return nil, fmt.Errorf("%w: invalid expression %q", ErrSyntax, src)
	}
	return e, nil
}

// ParseStmt parses a single statement (used by the pattern compiler, e.g. for
// declaration templates like "int x = 0;").
func ParseStmt(src string) (ast.Stmt, error) {
	lx := lexer.New(src)
	p := &Parser{lx: lx}
	var s ast.Stmt
	p.try(func() { s = p.parseStmt() })
	if len(lx.Errors()) > 0 || len(p.errors) > 0 || p.cur().Kind != token.EOF {
		return nil, fmt.Errorf("%w: invalid statement %q", ErrSyntax, src)
	}
	return s, nil
}

// scan lexes ahead in batches of scanBatch tokens until index i exists or
// the input ends, and returns the token at i; past the end of input that is
// the EOF token.
func (p *Parser) scan(i int) token.Token {
	for i >= len(p.toks) {
		n := len(p.toks)
		if n > 0 && p.toks[n-1].Kind == token.EOF {
			return p.toks[n-1]
		}
		for end := n + scanBatch; n < end; n++ {
			t := p.lx.Next()
			p.toks = append(p.toks, t)
			if t.Kind == token.EOF {
				break
			}
		}
	}
	return p.toks[i]
}

// kind returns the kind of the token at index i (EOF past the end).
func (p *Parser) kind(i int) token.Kind {
	if i < len(p.toks) {
		return p.toks[i].Kind
	}
	return p.scan(i).Kind
}

func (p *Parser) cur() token.Token {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return p.scan(p.pos)
}

func (p *Parser) peekKind(ahead int) token.Kind { return p.kind(p.pos + ahead) }

// skipDims returns the index past the "[ ]" pairs starting at index i.
func (p *Parser) skipDims(i int) int {
	for p.kind(i) == token.LBRACK && p.kind(i+1) == token.RBRACK {
		i += 2
	}
	return i
}

func (p *Parser) next() token.Token {
	t := p.cur()
	if t.Kind != token.EOF {
		p.pos++
	}
	return t
}

func (p *Parser) at(k token.Kind) bool { return p.kind(p.pos) == k }

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %s, found %s", k, p.cur())
	return token.Token{Kind: k, Pos: p.cur().Pos}
}

func (p *Parser) errorf(format string, args ...any) {
	p.errors = append(p.errors, fmt.Errorf("%s: %s", p.cur().Pos, fmt.Sprintf(format, args...)))
	if len(p.errors) > 100 {
		panic(bailout{})
	}
}

// bailout abandons a parse that cannot produce anything useful any more:
// too many errors, or nesting past MaxNesting. The errors already recorded
// make the parse fail.
type bailout struct{}

// try runs one parse production, stopping a bailout.
func (p *Parser) try(parse func()) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
		}
	}()
	parse()
}

// enter opens one nesting level, bailing out past MaxNesting; leave closes
// it.
func (p *Parser) enter() {
	p.depth++
	if p.depth > MaxNesting {
		p.errorf("nesting deeper than %d levels", MaxNesting)
		panic(bailout{})
	}
}

func (p *Parser) leave() { p.depth-- }

// sync skips tokens until a statement boundary to recover from errors.
func (p *Parser) sync() {
	for !p.at(token.EOF) {
		switch p.cur().Kind {
		case token.SEMICOLON:
			p.next()
			return
		case token.RBRACE, token.LBRACE:
			return
		}
		p.next()
	}
}

// ---------------------------------------------------------------------------
// Compilation unit

func (p *Parser) parseUnit() *ast.CompilationUnit {
	unit := &ast.CompilationUnit{}
	p.try(func() { p.parseDecls(unit) })
	return unit
}

// parseDecls fills unit with the package clause, imports and top-level
// declarations.
func (p *Parser) parseDecls(unit *ast.CompilationUnit) {
	if p.accept(token.PACKAGE) {
		unit.Package = p.parseQualifiedName()
		p.expect(token.SEMICOLON)
	}
	for p.accept(token.IMPORT) {
		p.accept(token.STATIC)
		name := p.parseQualifiedName()
		if p.accept(token.PERIOD) {
			p.expect(token.MUL)
			name += ".*"
		}
		p.expect(token.SEMICOLON)
		unit.Imports = append(unit.Imports, name)
	}
	for !p.at(token.EOF) {
		p.skipAnnotations()
		mods := p.parseModifiers()
		switch {
		case p.at(token.CLASS) || p.at(token.INTERFACE):
			cls := p.parseClass()
			unit.Classes = append(unit.Classes, cls)
		case p.looksLikeMethod():
			m := p.parseMethod(mods)
			unit.Methods = append(unit.Methods, m)
		default:
			p.errorf("expected class or method declaration, found %s", p.cur())
			p.sync()
			if p.at(token.RBRACE) || p.at(token.LBRACE) {
				p.next()
			}
		}
	}
}

func (p *Parser) parseQualifiedName() string {
	var parts []string
	parts = append(parts, p.expect(token.IDENT).Lit)
	for p.at(token.PERIOD) && p.peekKind(1) == token.IDENT {
		p.next()
		parts = append(parts, p.expect(token.IDENT).Lit)
	}
	return strings.Join(parts, ".")
}

func (p *Parser) skipAnnotations() {
	for p.at(token.AT) {
		p.next()
		p.expect(token.IDENT)
		if p.accept(token.LPAREN) {
			depth := 1
			for depth > 0 && !p.at(token.EOF) {
				switch p.next().Kind {
				case token.LPAREN:
					depth++
				case token.RPAREN:
					depth--
				}
			}
		}
	}
}

func (p *Parser) parseModifiers() []string {
	var mods []string
	for {
		switch p.cur().Kind {
		case token.PUBLIC, token.PRIVATE, token.PROTECTED, token.STATIC,
			token.FINAL, token.ABSTRACT:
			mods = append(mods, p.next().Lit)
		default:
			return mods
		}
	}
}

func (p *Parser) parseClass() *ast.Class {
	p.next() // class or interface
	name := p.expect(token.IDENT)
	cls := &ast.Class{Name: name.Lit, P: name.Pos}
	if p.accept(token.EXTENDS) {
		p.parseQualifiedName()
	}
	if p.accept(token.IMPLEMENTS) {
		p.parseQualifiedName()
		for p.accept(token.COMMA) {
			p.parseQualifiedName()
		}
	}
	p.expect(token.LBRACE)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		p.skipAnnotations()
		mods := p.parseModifiers()
		if p.looksLikeMethod() {
			cls.Methods = append(cls.Methods, p.parseMethod(mods))
			continue
		}
		// Field declaration.
		start := p.cur().Pos
		typ, ok := p.tryParseType()
		if !ok {
			p.errorf("expected member declaration, found %s", p.cur())
			p.sync()
			continue
		}
		decl := p.parseDeclarators(typ, start)
		p.expect(token.SEMICOLON)
		cls.Fields = append(cls.Fields, &ast.Field{Mods: mods, Decl: decl, P: start})
	}
	p.expect(token.RBRACE)
	return cls
}

// looksLikeMethod reports whether the upcoming tokens form "Type name (".
func (p *Parser) looksLikeMethod() bool {
	// Return type: primitive/void or identifier, with [] pairs.
	k := p.cur().Kind
	if !(k.IsType() || k == token.IDENT) {
		return false
	}
	i := p.skipDims(p.pos + 1)
	return p.kind(i) == token.IDENT && p.kind(i+1) == token.LPAREN
}

func (p *Parser) parseMethod(mods []string) *ast.Method {
	ret := p.parseType()
	name := p.expect(token.IDENT)
	m := &ast.Method{Mods: mods, Ret: ret, Name: name.Lit, P: name.Pos}
	p.expect(token.LPAREN)
	if !p.at(token.RPAREN) {
		m.Params = append(m.Params, p.parseParam())
		for p.accept(token.COMMA) {
			m.Params = append(m.Params, p.parseParam())
		}
	}
	p.expect(token.RPAREN)
	if p.accept(token.THROWS) {
		p.parseQualifiedName()
		for p.accept(token.COMMA) {
			p.parseQualifiedName()
		}
	}
	if p.accept(token.SEMICOLON) {
		return m // abstract/native declaration
	}
	m.Body = p.parseBlock()
	return m
}

func (p *Parser) parseParam() ast.Param {
	p.accept(token.FINAL)
	typ := p.parseType()
	if p.accept(token.ELLIPSIS) {
		typ.Dims++
	}
	name := p.expect(token.IDENT)
	for p.accept(token.LBRACK) {
		p.expect(token.RBRACK)
		typ.Dims++
	}
	return ast.Param{Type: typ, Name: name.Lit, P: name.Pos}
}

func (p *Parser) parseType() ast.Type {
	t, ok := p.tryParseType()
	if !ok {
		p.errorf("expected type, found %s", p.cur())
		p.next()
	}
	return t
}

func (p *Parser) tryParseType() (ast.Type, bool) {
	cur := p.cur()
	var name string
	switch {
	case cur.Kind.IsType():
		name = cur.Lit
		p.next()
	case cur.Kind == token.IDENT:
		name = p.parseQualifiedName()
	default:
		return ast.Type{}, false
	}
	t := ast.Type{Name: name, P: cur.Pos}
	for p.at(token.LBRACK) && p.peekKind(1) == token.RBRACK {
		p.next()
		p.next()
		t.Dims++
	}
	return t, true
}

// ---------------------------------------------------------------------------
// Statements

func (p *Parser) parseBlock() *ast.Block {
	lb := p.expect(token.LBRACE)
	b := &ast.Block{P: lb.Pos}
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		before := p.pos
		b.Stmts = append(b.Stmts, p.parseStmt())
		if p.pos == before { // no progress; bail out of the block
			p.next()
		}
	}
	p.expect(token.RBRACE)
	return b
}

func (p *Parser) parseStmt() ast.Stmt {
	p.enter()
	defer p.leave()
	cur := p.cur()
	switch cur.Kind {
	case token.LBRACE:
		return p.parseBlock()
	case token.SEMICOLON:
		p.next()
		return &ast.Empty{P: cur.Pos}
	case token.IF:
		return p.parseIf()
	case token.WHILE:
		return p.parseWhile()
	case token.DO:
		return p.parseDoWhile()
	case token.FOR:
		return p.parseFor()
	case token.SWITCH:
		return p.parseSwitch()
	case token.BREAK:
		p.next()
		s := &ast.Break{P: cur.Pos}
		if p.at(token.IDENT) {
			s.Label = p.next().Lit
		}
		p.expect(token.SEMICOLON)
		return s
	case token.CONTINUE:
		p.next()
		s := &ast.Continue{P: cur.Pos}
		if p.at(token.IDENT) {
			s.Label = p.next().Lit
		}
		p.expect(token.SEMICOLON)
		return s
	case token.RETURN:
		p.next()
		s := &ast.Return{P: cur.Pos}
		if !p.at(token.SEMICOLON) {
			s.X = p.parseExpr()
		}
		p.expect(token.SEMICOLON)
		return s
	case token.THROW:
		p.next()
		s := &ast.Throw{P: cur.Pos, X: p.parseExpr()}
		p.expect(token.SEMICOLON)
		return s
	case token.FINAL:
		p.next()
		return p.parseLocalVarDeclStmt(cur.Pos)
	case token.TRY:
		// try { ... } catch (...) { ... }: grade the try body, skip handlers.
		p.next()
		body := p.parseBlock()
		for p.at(token.IDENT) && p.cur().Lit == "catch" {
			p.next()
			p.expect(token.LPAREN)
			p.parseType()
			p.expect(token.IDENT)
			p.expect(token.RPAREN)
			p.parseBlock()
		}
		if p.at(token.IDENT) && p.cur().Lit == "finally" {
			p.next()
			fin := p.parseBlock()
			body.Stmts = append(body.Stmts, fin.Stmts...)
		}
		return body
	}
	if cur.Kind.IsType() {
		return p.parseLocalVarDeclStmt(cur.Pos)
	}
	if cur.Kind == token.IDENT && p.looksLikeDecl() {
		return p.parseLocalVarDeclStmt(cur.Pos)
	}
	// Labeled statement: IDENT ':' stmt — rare; parse and drop the label.
	if cur.Kind == token.IDENT && p.peekKind(1) == token.COLON {
		p.next()
		p.next()
		return p.parseStmt()
	}
	x := p.parseExpr()
	p.expect(token.SEMICOLON)
	return &ast.ExprStmt{X: x, P: cur.Pos}
}

// looksLikeDecl disambiguates "Scanner s = ..." style declarations with a
// class-name type from expression statements.
func (p *Parser) looksLikeDecl() bool {
	if p.cur().Kind != token.IDENT {
		return false
	}
	i := p.skipDims(p.pos + 1)
	if p.kind(i) != token.IDENT {
		return false
	}
	switch p.kind(i + 1) {
	case token.ASSIGN, token.SEMICOLON, token.COMMA, token.LBRACK:
		return true
	}
	return false
}

func (p *Parser) parseLocalVarDeclStmt(pos token.Pos) ast.Stmt {
	typ := p.parseType()
	decl := p.parseDeclarators(typ, pos)
	p.expect(token.SEMICOLON)
	return decl
}

func (p *Parser) parseDeclarators(typ ast.Type, pos token.Pos) *ast.LocalVarDecl {
	decl := &ast.LocalVarDecl{Type: typ, P: pos}
	for {
		name := p.expect(token.IDENT)
		d := ast.Declarator{Name: name.Lit, P: name.Pos}
		for p.accept(token.LBRACK) {
			p.expect(token.RBRACK)
			d.ExtraDims++
		}
		if p.accept(token.ASSIGN) {
			if p.at(token.LBRACE) {
				d.Init = p.parseArrayLit()
			} else {
				d.Init = p.parseExprNoComma()
			}
		}
		decl.Decls = append(decl.Decls, d)
		if !p.accept(token.COMMA) {
			return decl
		}
	}
}

func (p *Parser) parseArrayLit() ast.Expr {
	p.enter()
	defer p.leave()
	lb := p.expect(token.LBRACE)
	lit := &ast.ArrayLit{P: lb.Pos}
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		if p.at(token.LBRACE) {
			lit.Elems = append(lit.Elems, p.parseArrayLit())
		} else {
			lit.Elems = append(lit.Elems, p.parseExprNoComma())
		}
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RBRACE)
	return lit
}

func (p *Parser) parseIf() ast.Stmt {
	pos := p.expect(token.IF).Pos
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	s := &ast.If{Cond: cond, P: pos}
	s.Then = p.parseStmt()
	if p.accept(token.ELSE) {
		s.Else = p.parseStmt()
	}
	return s
}

func (p *Parser) parseWhile() ast.Stmt {
	pos := p.expect(token.WHILE).Pos
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	return &ast.While{Cond: cond, Body: p.parseStmt(), P: pos}
}

func (p *Parser) parseDoWhile() ast.Stmt {
	pos := p.expect(token.DO).Pos
	body := p.parseStmt()
	p.expect(token.WHILE)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	p.expect(token.SEMICOLON)
	return &ast.DoWhile{Body: body, Cond: cond, P: pos}
}

func (p *Parser) parseFor() ast.Stmt {
	pos := p.expect(token.FOR).Pos
	p.expect(token.LPAREN)
	// For-each: for (T x : e).
	if p.isForEachHeader() {
		p.accept(token.FINAL)
		typ := p.parseType()
		name := p.expect(token.IDENT)
		p.expect(token.COLON)
		it := p.parseExpr()
		p.expect(token.RPAREN)
		return &ast.ForEach{ElemType: typ, Name: name.Lit, Iterable: it, Body: p.parseStmt(), P: pos}
	}
	s := &ast.For{P: pos}
	if !p.at(token.SEMICOLON) {
		if p.cur().Kind.IsType() || p.at(token.FINAL) || p.looksLikeDecl() {
			p.accept(token.FINAL)
			typ := p.parseType()
			s.Init = []ast.Stmt{p.parseDeclarators(typ, pos)}
		} else {
			s.Init = append(s.Init, &ast.ExprStmt{X: p.parseExprNoComma(), P: p.cur().Pos})
			for p.accept(token.COMMA) {
				s.Init = append(s.Init, &ast.ExprStmt{X: p.parseExprNoComma(), P: p.cur().Pos})
			}
		}
	}
	p.expect(token.SEMICOLON)
	if !p.at(token.SEMICOLON) {
		s.Cond = p.parseExpr()
	}
	p.expect(token.SEMICOLON)
	if !p.at(token.RPAREN) {
		s.Update = append(s.Update, p.parseExprNoComma())
		for p.accept(token.COMMA) {
			s.Update = append(s.Update, p.parseExprNoComma())
		}
	}
	p.expect(token.RPAREN)
	s.Body = p.parseStmt()
	return s
}

// isForEachHeader scans ahead for "Type ident :".
func (p *Parser) isForEachHeader() bool {
	i := p.pos
	if p.kind(i) == token.FINAL {
		i++
	}
	k := p.kind(i)
	if !(k.IsType() || k == token.IDENT) {
		return false
	}
	i = p.skipDims(i + 1)
	return p.kind(i) == token.IDENT && p.kind(i+1) == token.COLON
}

func (p *Parser) parseSwitch() ast.Stmt {
	pos := p.expect(token.SWITCH).Pos
	p.expect(token.LPAREN)
	tag := p.parseExpr()
	p.expect(token.RPAREN)
	p.expect(token.LBRACE)
	s := &ast.Switch{Tag: tag, P: pos}
	for p.at(token.CASE) || p.at(token.DEFAULT) {
		c := ast.SwitchCase{P: p.cur().Pos}
		if p.accept(token.CASE) {
			c.Exprs = append(c.Exprs, p.parseExprNoComma())
			p.expect(token.COLON)
			for p.accept(token.CASE) { // fallthrough labels
				c.Exprs = append(c.Exprs, p.parseExprNoComma())
				p.expect(token.COLON)
			}
		} else {
			p.expect(token.DEFAULT)
			p.expect(token.COLON)
		}
		for !p.at(token.CASE) && !p.at(token.DEFAULT) && !p.at(token.RBRACE) && !p.at(token.EOF) {
			c.Stmts = append(c.Stmts, p.parseStmt())
		}
		s.Cases = append(s.Cases, c)
	}
	p.expect(token.RBRACE)
	return s
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *Parser) parseExpr() ast.Expr { return p.parseAssign() }

// parseExprNoComma is the expression entry used where a comma is a separator.
func (p *Parser) parseExprNoComma() ast.Expr { return p.parseAssign() }

// parseAssign is the entry of every expression (parseExpr and
// parseExprNoComma are aliases), so it opens the expression's nesting level;
// right-associative assignment and ternary chains recurse through it too.
// It runs once per expression, so it closes the level without a defer.
func (p *Parser) parseAssign() ast.Expr {
	p.enter()
	x := p.parseTernary()
	if p.cur().Kind.IsAssignOp() {
		op := p.next()
		var rhs ast.Expr
		if p.at(token.LBRACE) {
			rhs = p.parseArrayLit()
		} else {
			rhs = p.parseAssign() // right-associative
		}
		x = &ast.Assign{Op: op.Kind, Target: x, Value: rhs, P: x.Pos()}
	}
	p.leave()
	return x
}

func (p *Parser) parseTernary() ast.Expr {
	cond := p.parseBinary(0)
	if p.accept(token.QUESTION) {
		then := p.parseAssign()
		p.expect(token.COLON)
		els := p.parseAssign()
		return &ast.Ternary{Cond: cond, Then: then, Else: els, P: cond.Pos()}
	}
	return cond
}

// binaryPrec returns the precedence of a binary operator, or -1.
func binaryPrec(k token.Kind) int {
	switch k {
	case token.LOR:
		return 0
	case token.LAND:
		return 1
	case token.OR:
		return 2
	case token.XOR:
		return 3
	case token.AND:
		return 4
	case token.EQL, token.NEQ:
		return 5
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.INSTANCEOF:
		return 6
	case token.SHL, token.SHR, token.USHR:
		return 7
	case token.ADD, token.SUB:
		return 8
	case token.MUL, token.QUO, token.REM:
		return 9
	}
	return -1
}

// parseBinary folds a left-associative operator chain in a loop, so each
// fold makes the AST one level deeper without recursing; it holds one
// nesting level per fold until the chain ends.
func (p *Parser) parseBinary(minPrec int) ast.Expr {
	lhs := p.parseUnary()
	folds := 0
	for {
		k := p.cur().Kind
		prec := binaryPrec(k)
		if prec < minPrec {
			p.depth -= folds
			return lhs
		}
		p.enter()
		folds++
		if k == token.INSTANCEOF {
			p.next()
			typ := p.parseType()
			lhs = &ast.InstanceOf{X: lhs, To: typ, P: lhs.Pos()}
			continue
		}
		p.next()
		rhs := p.parseBinary(prec + 1)
		lhs = &ast.Binary{Op: k, L: lhs, R: rhs, P: lhs.Pos()}
	}
}

func (p *Parser) parseUnary() ast.Expr {
	cur := p.cur()
	switch cur.Kind {
	case token.NOT, token.SUB, token.ADD, token.TILDE, token.INC, token.DEC:
		p.next()
		return &ast.Unary{Op: cur.Kind, X: p.parseOperand(), P: cur.Pos}
	case token.LPAREN:
		// Cast: "(" Type ")" unary — only for primitive types to keep the
		// grammar unambiguous; class-type casts do not occur in the corpus.
		if p.peekKind(1).IsType() && p.castCloseParen() {
			p.next()
			typ := p.parseType()
			p.expect(token.RPAREN)
			return &ast.Cast{To: typ, X: p.parseOperand(), P: cur.Pos}
		}
	}
	return p.parsePostfix()
}

// parseOperand parses the operand of a prefix operator or cast one nesting
// level down.
func (p *Parser) parseOperand() ast.Expr {
	p.enter()
	x := p.parseUnary()
	p.leave()
	return x
}

// castCloseParen checks the token after "(" Type is ")".
func (p *Parser) castCloseParen() bool {
	i := p.pos + 1 // after '('
	if !p.kind(i).IsType() {
		return false
	}
	return p.kind(p.skipDims(i+1)) == token.RPAREN
}

// parsePostfix folds calls, field accesses, subscripts and postfix ++/-- into
// their operand in a loop; like parseBinary it holds one nesting level per
// fold until the chain ends.
func (p *Parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	folds := 0
	for {
		cur := p.cur()
		switch cur.Kind {
		case token.PERIOD, token.LBRACK, token.INC, token.DEC:
			p.enter()
			folds++
			p.next()
		default:
			p.depth -= folds
			return x
		}
		switch cur.Kind {
		case token.PERIOD:
			name := p.expect(token.IDENT)
			if p.at(token.LPAREN) {
				x = p.finishCall(x, name.Lit, name.Pos)
			} else {
				x = &ast.FieldAccess{X: x, Name: name.Lit, P: name.Pos}
			}
		case token.LBRACK:
			idx := p.parseExpr()
			p.expect(token.RBRACK)
			x = &ast.Index{X: x, Idx: idx, P: cur.Pos}
		default: // INC, DEC
			x = &ast.Unary{Op: cur.Kind, X: x, Postfix: true, P: cur.Pos}
		}
	}
}

func (p *Parser) finishCall(recv ast.Expr, name string, pos token.Pos) ast.Expr {
	p.expect(token.LPAREN)
	call := &ast.Call{Recv: recv, Name: name, P: pos}
	if !p.at(token.RPAREN) {
		call.Args = append(call.Args, p.parseExprNoComma())
		for p.accept(token.COMMA) {
			call.Args = append(call.Args, p.parseExprNoComma())
		}
	}
	p.expect(token.RPAREN)
	return call
}

func (p *Parser) parsePrimary() ast.Expr {
	cur := p.cur()
	switch cur.Kind {
	case token.INT, token.LONG, token.FLOAT, token.CHAR, token.STRING,
		token.TRUE, token.FALSE, token.NULL:
		p.next()
		return &ast.Literal{Kind: cur.Kind, Text: cur.Lit, P: cur.Pos}
	case token.IDENT:
		p.next()
		if p.at(token.LPAREN) {
			return p.finishCall(nil, cur.Lit, cur.Pos)
		}
		return &ast.Ident{Name: cur.Lit, P: cur.Pos}
	case token.THIS:
		p.next()
		if p.at(token.PERIOD) { // this.x — treat as bare name
			p.next()
			name := p.expect(token.IDENT)
			if p.at(token.LPAREN) {
				return p.finishCall(nil, name.Lit, name.Pos)
			}
			return &ast.Ident{Name: name.Lit, P: name.Pos}
		}
		return &ast.Ident{Name: "this", P: cur.Pos}
	case token.LPAREN:
		p.next()
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return &ast.Paren{X: x, P: cur.Pos}
	case token.NEW:
		return p.parseNew()
	}
	// Primitive type mention, e.g. int.class — not in the subset.
	p.errorf("unexpected token %s in expression", cur)
	p.next()
	return &ast.Literal{Kind: token.NULL, Text: "null", P: cur.Pos}
}

func (p *Parser) parseNew() ast.Expr {
	pos := p.expect(token.NEW).Pos
	typ := p.parseTypeNameOnly()
	if p.at(token.LBRACK) {
		na := &ast.NewArray{Elem: typ, P: pos}
		for p.accept(token.LBRACK) {
			if p.at(token.RBRACK) {
				p.next()
				continue
			}
			na.Dims = append(na.Dims, p.parseExpr())
			p.expect(token.RBRACK)
		}
		if p.at(token.LBRACE) {
			init := p.parseArrayLit().(*ast.ArrayLit)
			na.Init = init.Elems
		}
		return na
	}
	no := &ast.NewObject{Class: typ.Name, P: pos}
	p.expect(token.LPAREN)
	if !p.at(token.RPAREN) {
		no.Args = append(no.Args, p.parseExprNoComma())
		for p.accept(token.COMMA) {
			no.Args = append(no.Args, p.parseExprNoComma())
		}
	}
	p.expect(token.RPAREN)
	return no
}

// parseTypeNameOnly parses a type name without consuming [] pairs (those
// belong to the new-array dimensions).
func (p *Parser) parseTypeNameOnly() ast.Type {
	cur := p.cur()
	if cur.Kind.IsType() {
		p.next()
		return ast.Type{Name: cur.Lit, P: cur.Pos}
	}
	if cur.Kind == token.IDENT {
		return ast.Type{Name: p.parseQualifiedName(), P: cur.Pos}
	}
	p.errorf("expected type after new, found %s", cur)
	p.next()
	return ast.Type{Name: "?", P: cur.Pos}
}
