package minic

import "fmt"

// Parser is a recursive-descent parser for MiniC.
//
// Grammar (EBNF, informally):
//
//	file     = { decl } .
//	decl     = type ident ( funcRest | varRest ) .
//	funcRest = "(" [ params ] ")" block .
//	varRest  = [ "=" expr ] ";" .
//	type     = ( "int" | "bool" | "void" ) { "*" } .
//	block    = "{" { stmt } "}" .
//	stmt     = block | ifStmt | whileStmt | returnStmt | declStmt
//	         | assignOrExprStmt .
//	assignOrExprStmt = lvalue "=" expr ";" | expr ";" .
//	expr     = orExpr .
//	orExpr   = andExpr { "||" andExpr } .
//	andExpr  = cmpExpr { "&&" cmpExpr } .
//	cmpExpr  = addExpr [ ( "=="|"!="|"<"|"<="|">"|">=" ) addExpr ] .
//	addExpr  = mulExpr { ( "+" | "-" ) mulExpr } .
//	mulExpr  = unary { ( "*" | "/" | "%" ) unary } .
//	unary    = ( "-" | "!" | "*" | "&" ) unary | primary .
//	primary  = ident [ "(" args ")" ] | int | "true" | "false" | "null"
//	         | "(" expr ")" .
type Parser struct {
	lex Lexer
	// buf[:n] is the lookahead window, buf[0] the current token. Tokens are
	// pulled from the lexer on demand; three is the most the grammar needs
	// (File tells a struct declaration from a struct-typed one by the two
	// tokens after the keyword).
	buf [3]Token
	n   int
	// lexErr is the first lexical error; from there on the stream reads
	// as EOF.
	lexErr error
	// a holds the nodes; stmts, exprs and params are stacks the lists being
	// parsed grow on, until each is complete and moves into the arena.
	a      *Arena
	stmts  []Stmt
	exprs  []Expr
	params []Param
}

// ParseFile lexes and parses one translation unit into an arena of its own.
// A lexical error anywhere in the unit outranks a syntax error before it.
func ParseFile(name, src string) (*File, error) { return new(Arena).ParseFile(name, src) }

// ParseProgram parses a set of named translation units into one Program.
// Order of the units map is not significant; files are sorted by the caller
// when determinism matters.
func ParseProgram(units []NamedSource) (*Program, error) {
	prog := &Program{}
	for i, u := range units {
		f, err := ParseFile(u.Name, u.Src)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", u.Name, err)
		}
		for _, fn := range f.Funcs {
			fn.Unit = i
		}
		prog.Files = append(prog.Files, f)
	}
	return prog, nil
}

// NamedSource pairs a unit name with its source text.
type NamedSource struct {
	Name string
	Src  string
}

// scan pulls the next token from the lexer.
func (p *Parser) scan() Token {
	if p.lexErr == nil {
		t, err := p.lex.Next()
		if err == nil {
			return t
		}
		p.lexErr = err
	}
	return Token{Kind: TokEOF, Line: int32(p.lex.line), Col: int32(p.lex.col)}
}

// pos returns where token t starts, in the unit being parsed.
func (p *Parser) pos(t Token) Pos { return Pos{File: p.lex.file, Line: int(t.Line), Col: int(t.Col)} }

// peek returns the token k positions ahead of the current one (k < 3).
func (p *Parser) peek(k int) Token {
	for p.n <= k {
		p.buf[p.n] = p.scan()
		p.n++
	}
	return p.buf[k]
}

func (p *Parser) cur() Token { return p.peek(0) }

// kind returns the current token's kind, read in place: a Token is several
// words, and the grammar tests the kind far more often than it takes a token.
func (p *Parser) kind() TokKind {
	if p.n == 0 {
		p.buf[0] = p.scan()
		p.n = 1
	}
	return p.buf[0].Kind
}

// skip drops the current token, which the caller has looked at.
func (p *Parser) skip() {
	copy(p.buf[:], p.buf[1:p.n])
	p.n--
}

func (p *Parser) next() Token {
	t := p.peek(0)
	p.skip()
	return t
}

func (p *Parser) at(k TokKind) bool { return p.kind() == k }

func (p *Parser) accept(k TokKind) bool {
	if p.kind() == k {
		p.skip()
		return true
	}
	return false
}

func (p *Parser) expect(k TokKind) (Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	t := p.cur()
	return t, &Error{Pos: p.pos(t), Msg: fmt.Sprintf("expected %s, found %s", k, t)}
}

func (p *Parser) atType() bool {
	switch p.kind() {
	case TokKwInt, TokKwBool, TokKwVoid, TokKwStruct:
		return true
	}
	return false
}

func (p *Parser) parseType() (Type, error) {
	var t Type
	switch p.kind() {
	case TokKwInt:
		t = IntType
	case TokKwBool:
		t = BoolType
	case TokKwVoid:
		t = VoidType
	case TokKwStruct:
		p.skip()
		name, err := p.expect(TokIdent)
		if err != nil {
			return t, err
		}
		t = StructType(name.Lit)
		for p.accept(TokStar) {
			t = t.Pointer()
		}
		return t, nil
	default:
		return t, &Error{Pos: p.pos(p.cur()), Msg: fmt.Sprintf("expected type, found %s", p.cur())}
	}
	p.skip()
	for p.accept(TokStar) {
		t = t.Pointer()
	}
	return t, nil
}

// File parses a whole translation unit until EOF.
func (p *Parser) File(name string) (*File, error) {
	f := &File{Name: name}
	for !p.at(TokEOF) {
		// A struct type declaration: "struct Name { ... };".
		if p.at(TokKwStruct) && p.peek(1).Kind == TokIdent && p.peek(2).Kind == TokLBrace {
			sd, err := p.parseStructDecl()
			if err != nil {
				return nil, err
			}
			f.Structs = append(f.Structs, sd)
			continue
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		nameTok, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if p.at(TokLParen) {
			fn, err := p.parseFuncRest(typ, nameTok)
			if err != nil {
				return nil, err
			}
			f.Funcs = append(f.Funcs, fn)
		} else {
			vd, err := p.parseVarRest(typ, nameTok)
			if err != nil {
				return nil, err
			}
			f.Globals = append(f.Globals, vd)
		}
	}
	return f, nil
}

// parseStructDecl parses "struct Name { type field; ... };".
func (p *Parser) parseStructDecl() (*StructDecl, error) {
	kw := p.next() // struct
	nameTok, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	sd := &StructDecl{Pos: p.pos(kw), Name: nameTok.Lit}
	for !p.at(TokRBrace) {
		ft, err := p.parseType()
		if err != nil {
			return nil, err
		}
		fn, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		sd.Fields = append(sd.Fields, Param{Name: fn.Lit, Type: ft})
	}
	p.next() // '}'
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return sd, nil
}

func (p *Parser) parseFuncRest(ret Type, nameTok Token) (*FuncDecl, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	fn := p.a.funcs.new(FuncDecl{Pos: p.pos(nameTok), Name: nameTok.Lit, Ret: ret})
	mark := len(p.params)
	if !p.at(TokRParen) {
		for {
			pt, err := p.parseType()
			if err != nil {
				return nil, err
			}
			pn, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			p.params = append(p.params, Param{Name: pn.Lit, Type: pt})
			if !p.accept(TokComma) {
				break
			}
		}
	}
	fn.Params, p.params = p.a.params.list(p.params[mark:]), p.params[:mark]
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *Parser) parseVarRest(typ Type, nameTok Token) (*VarDecl, error) {
	vd := p.a.vars.new(VarDecl{Pos: p.pos(nameTok), Name: nameTok.Lit, Type: typ})
	if p.accept(TokAssign) {
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		vd.Init = init
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return vd, nil
}

func (p *Parser) parseBlock() (*BlockStmt, error) {
	lb, err := p.expect(TokLBrace)
	if err != nil {
		return nil, err
	}
	mark := len(p.stmts)
	for !p.at(TokRBrace) {
		if p.at(TokEOF) {
			return nil, &Error{Pos: p.pos(p.cur()), Msg: "unexpected EOF in block"}
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, s)
	}
	p.next() // consume '}'
	b := p.a.blocks.new(BlockStmt{Pos: p.pos(lb), Stmts: p.a.stmts.list(p.stmts[mark:])})
	p.stmts = p.stmts[:mark]
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	switch p.kind() {
	case TokLBrace:
		return p.parseBlock()
	case TokKwIf:
		return p.parseIf()
	case TokKwWhile:
		return p.parseWhile()
	case TokKwFor:
		return p.parseFor()
	case TokKwReturn:
		t := p.next()
		rs := p.a.returns.new(ReturnStmt{Pos: p.pos(t)})
		if !p.at(TokSemi) {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rs.Value = v
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return rs, nil
	}
	if p.atType() {
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		nameTok, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		vd, err := p.parseVarRest(typ, nameTok)
		if err != nil {
			return nil, err
		}
		return p.a.decls.new(DeclStmt{Decl: vd}), nil
	}
	return p.parseAssignOrExpr()
}

func (p *Parser) parseIf() (Stmt, error) {
	t := p.next()
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	s := p.a.ifs.new(IfStmt{Pos: p.pos(t), Cond: cond, Then: then})
	if p.accept(TokKwElse) {
		els, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		s.Else = els
	}
	return s, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	t := p.next()
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return p.a.whiles.new(WhileStmt{Pos: p.pos(t), Cond: cond, Body: body}), nil
}

// parseFor desugars `for (init; cond; post) body` into
// `{ init; while (cond) { body; post; } }`. Any of the three clauses may be
// empty; an empty condition means true.
func (p *Parser) parseFor() (Stmt, error) {
	t := p.next()
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var init Stmt
	if !p.at(TokSemi) {
		if p.atType() {
			typ, err := p.parseType()
			if err != nil {
				return nil, err
			}
			nameTok, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			vd, err := p.parseVarRest(typ, nameTok) // consumes ';'
			if err != nil {
				return nil, err
			}
			init = p.a.decls.new(DeclStmt{Decl: vd})
		} else {
			st, err := p.parseAssignOrExpr() // consumes ';'
			if err != nil {
				return nil, err
			}
			init = st
		}
	} else {
		p.next() // empty init: consume ';'
	}
	var cond Expr = p.a.bools.new(BoolLit{Pos: p.pos(t), Val: true})
	if !p.at(TokSemi) {
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		cond = c
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	var post Stmt
	if !p.at(TokRParen) {
		// The post clause is an assignment or expression without the
		// trailing semicolon; parse the expression form manually.
		start := p.pos(p.cur())
		lhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.accept(TokAssign) {
			if !isLvalue(lhs) {
				return nil, &Error{Pos: start, Msg: "left side of '=' is not assignable"}
			}
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			post = p.a.assigns.new(AssignStmt{Pos: start, Target: lhs, Value: rhs})
		} else {
			post = p.a.exprStmt.new(ExprStmt{Pos: start, X: lhs})
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	loop := []Stmt{body, post}
	if post == nil {
		loop = loop[:1]
	}
	loopBody := p.a.blocks.new(BlockStmt{Pos: p.pos(t), Stmts: p.a.stmts.list(loop)})
	outer := []Stmt{init, p.a.whiles.new(WhileStmt{Pos: p.pos(t), Cond: cond, Body: loopBody})}
	if init == nil {
		outer = outer[1:]
	}
	return p.a.blocks.new(BlockStmt{Pos: p.pos(t), Stmts: p.a.stmts.list(outer)}), nil
}

func (p *Parser) parseAssignOrExpr() (Stmt, error) {
	start := p.pos(p.cur())
	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.accept(TokAssign) {
		if !isLvalue(lhs) {
			return nil, &Error{Pos: start, Msg: "left side of '=' is not assignable"}
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return p.a.assigns.new(AssignStmt{Pos: start, Target: lhs, Value: rhs}), nil
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return p.a.exprStmt.new(ExprStmt{Pos: start, X: lhs}), nil
}

func isLvalue(e Expr) bool {
	switch x := e.(type) {
	case *Ident:
		return true
	case *ArrowExpr:
		return true
	case *UnaryExpr:
		return x.Op == "*"
	}
	return false
}

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.at(TokOrOr) {
		t := p.next()
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		x = p.a.binaries.new(BinaryExpr{Pos: p.pos(t), Op: "||", X: x, Y: y})
	}
	return x, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	x, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.at(TokAndAnd) {
		t := p.next()
		y, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		x = p.a.binaries.new(BinaryExpr{Pos: p.pos(t), Op: "&&", X: x, Y: y})
	}
	return x, nil
}

var cmpOps = [TokArrow + 1]string{
	TokEq: "==", TokNe: "!=", TokLt: "<", TokLe: "<=", TokGt: ">", TokGe: ">=",
}

func (p *Parser) parseCmp() (Expr, error) {
	x, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if op := cmpOps[p.kind()]; op != "" {
		t := p.next()
		y, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return p.a.binaries.new(BinaryExpr{Pos: p.pos(t), Op: op, X: x, Y: y}), nil
	}
	return x, nil
}

func (p *Parser) parseAdd() (Expr, error) {
	x, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.at(TokPlus) || p.at(TokMinus) {
		t := p.next()
		op := "+"
		if t.Kind == TokMinus {
			op = "-"
		}
		y, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		x = p.a.binaries.new(BinaryExpr{Pos: p.pos(t), Op: op, X: x, Y: y})
	}
	return x, nil
}

func (p *Parser) parseMul() (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.kind() {
		case TokStar:
			op = "*"
		case TokSlash:
			op = "/"
		case TokPercent:
			op = "%"
		default:
			return x, nil
		}
		t := p.next()
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = p.a.binaries.new(BinaryExpr{Pos: p.pos(t), Op: op, X: x, Y: y})
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	var op string
	switch p.kind() {
	case TokMinus:
		op = "-"
	case TokBang:
		op = "!"
	case TokStar:
		op = "*"
	case TokAmp:
		op = "&"
	default:
		return p.parsePostfix()
	}
	t := p.next()
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return p.a.unaries.new(UnaryExpr{Pos: p.pos(t), Op: op, X: x}), nil
}

// parsePostfix parses a primary followed by "->field" chains.
func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.at(TokArrow) {
		t := p.next()
		f, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		x = p.a.arrows.new(ArrowExpr{Pos: p.pos(t), X: x, Field: f.Lit})
	}
	return x, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokIdent:
		p.skip()
		if p.accept(TokLParen) {
			mark := len(p.exprs)
			if !p.at(TokRParen) {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					p.exprs = append(p.exprs, a)
					if !p.accept(TokComma) {
						break
					}
				}
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			call := p.a.calls.new(CallExpr{Pos: p.pos(t), Fun: t.Lit, Args: p.a.exprs.list(p.exprs[mark:])})
			p.exprs = p.exprs[:mark]
			return call, nil
		}
		return p.a.idents.new(Ident{Pos: p.pos(t), Name: t.Lit}), nil
	case TokInt:
		p.skip()
		var v int64
		for _, c := range t.Lit {
			v = v*10 + int64(c-'0')
		}
		return p.a.ints.new(IntLit{Pos: p.pos(t), Val: v}), nil
	case TokKwTrue:
		p.skip()
		return p.a.bools.new(BoolLit{Pos: p.pos(t), Val: true}), nil
	case TokKwFalse:
		p.skip()
		return p.a.bools.new(BoolLit{Pos: p.pos(t), Val: false}), nil
	case TokKwNull:
		p.skip()
		return p.a.nulls.new(NullLit{Pos: p.pos(t)}), nil
	case TokLParen:
		p.skip()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, &Error{Pos: p.pos(t), Msg: fmt.Sprintf("expected expression, found %s", t)}
}
