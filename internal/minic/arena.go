package minic

import "fmt"

// An Arena holds one syntax tree at a time: its nodes, in one typed slab per
// node kind, and the lists they hold. A parse resets the arena, so a tree
// lives until the next parse on its arena, and a parse allocates only where
// its tree outgrows the ones before. What is to outlive the tree is copied
// out of it (strings are the source's own). An Arena serves one goroutine at
// a time; the zero Arena is ready.
type Arena struct {
	p Parser

	funcs    slab[FuncDecl]
	blocks   slab[BlockStmt]
	decls    slab[DeclStmt]
	vars     slab[VarDecl]
	assigns  slab[AssignStmt]
	ifs      slab[IfStmt]
	whiles   slab[WhileStmt]
	returns  slab[ReturnStmt]
	exprStmt slab[ExprStmt]
	idents   slab[Ident]
	ints     slab[IntLit]
	bools    slab[BoolLit]
	nulls    slab[NullLit]
	unaries  slab[UnaryExpr]
	binaries slab[BinaryExpr]
	arrows   slab[ArrowExpr]
	calls    slab[CallExpr]
	stmts    slab[Stmt]
	exprs    slab[Expr]
	params   slab[Param]
}

// slab hands out elements of T from chunks it keeps across resets; a chunk
// never moves.
type slab[T any] struct {
	chunks [][]T
	c, n   int // the chunk in use, and how much of it is handed out
}

// take returns n > 0 contiguous elements, as a list no append can extend.
func (s *slab[T]) take(n int) []T {
	for s.c < len(s.chunks) && len(s.chunks[s.c])-s.n < n {
		s.c, s.n = s.c+1, 0
	}
	if s.c == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, max(n, 16<<s.c)))
	}
	s.n += n
	return s.chunks[s.c][s.n-n : s.n : s.n]
}

func (s *slab[T]) new(v T) *T {
	p := &s.take(1)[0]
	*p = v
	return p
}

// list copies items into the slab; an empty list is nil, as append leaves it.
func (s *slab[T]) list(items []T) []T {
	if len(items) == 0 {
		return nil
	}
	out := s.take(len(items))
	copy(out, items)
	return out
}

func (s *slab[T]) reset() { s.c, s.n = 0, 0 }

// start resets the arena for a parse of src, reporting positions against
// file, and returns its parser, positioned at src's start.
func (a *Arena) start(file, src string) *Parser {
	for _, s := range [...]interface{ reset() }{&a.funcs, &a.blocks, &a.decls, &a.vars, &a.assigns, &a.ifs,
		&a.whiles, &a.returns, &a.exprStmt, &a.idents, &a.ints, &a.bools, &a.nulls, &a.unaries, &a.binaries,
		&a.arrows, &a.calls, &a.stmts, &a.exprs, &a.params} {
		s.reset()
	}
	a.p = Parser{lex: *NewLexer(file, src), a: a, stmts: a.p.stmts[:0], exprs: a.p.exprs[:0], params: a.p.params[:0]}
	return &a.p
}

// ParseFile parses one translation unit into the arena (see the function
// ParseFile).
func (a *Arena) ParseFile(name, src string) (*File, error) {
	p := a.start(name, src)
	f, err := p.File(name)
	if err != nil {
		// Tokens stream, so the rest of the unit is still unlexed.
		for p.lexErr == nil && p.scan().Kind != TokEOF {
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return f, err
}

// ParseFunc parses into the arena the function whose name stands at byte
// offset off of src, at position at, returning ret. Columns count bytes, so
// off is at's line's offset plus its column less one. Of a unit ParseFile
// accepts, each function parsed from its own position equals, positions
// included, the declaration ParseFile yields, but for Unit, which is the
// caller's to set.
func (a *Arena) ParseFunc(src string, at Pos, off int, ret Type) (*FuncDecl, error) {
	p := a.start(at.File, src)
	if off < 0 || off > len(src) {
		off = len(src) // what it finds there is the end of the unit
	}
	p.lex.off, p.lex.line, p.lex.col = off, at.Line, at.Col
	name, err := p.expect(TokIdent)
	if err == nil && p.pos(name) != at {
		err = &Error{Pos: p.pos(name), Msg: fmt.Sprintf("no declaration at %s", at)}
	}
	var fn *FuncDecl
	if err == nil {
		fn, err = p.parseFuncRest(ret, name)
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return fn, err
}
