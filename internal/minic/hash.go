package minic

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// This file implements the content hashing that the incremental build
// session (package core) keys its artifact store on. Two granularities:
//
//   - HashSource fingerprints one translation unit's raw text, deciding
//     whether the unit must be re-parsed at all;
//   - HashFunc fingerprints one function declaration's AST, including
//     every node's source position. Positions are part of the key on
//     purpose: reports carry positions, so a function whose lines shifted
//     must produce fresh artifacts to stay byte-identical with a
//     from-scratch build.
//
// Both return short hex digests of SHA-256, cheap to compare and stable
// across processes.

// HashSource fingerprints a named unit's source text.
func HashSource(name, src string) string {
	sum := HashSourceSum(name, src)
	return hex.EncodeToString(sum[:])
}

// HashSourceSum is HashSource before the hex: the digest a session with a
// persistent store keys a unit's stored facts by.
func HashSourceSum(name, src string) [12]byte {
	h := sha256.New()
	io.WriteString(h, name)
	h.Write([]byte{0})
	io.WriteString(h, src)
	var sum [sha256.Size]byte
	return [12]byte(h.Sum(sum[:0])[:12])
}

// HashFunc fingerprints a function declaration: name, signature, body
// structure, literals, and all source positions.
func HashFunc(fn *FuncDecl) string {
	sum := HashFuncSum(fn)
	return hex.EncodeToString(sum[:])
}

// HashFuncSum is HashFunc before the hex: the digest as the session keeps
// it, one fixed-size value per function instead of a string.
func HashFuncSum(fn *FuncDecl) [12]byte {
	w := hasherPool.Get().(*astHasher)
	defer hasherPool.Put(w)
	w.buf = w.buf[:0]
	w.str("func", fn.Name)
	w.pos(fn.Pos)
	w.typ(fn.Ret)
	for _, p := range fn.Params {
		w.str("param", p.Name)
		w.typ(p.Type)
	}
	w.stmt(fn.Body)
	sum := sha256.Sum256(w.buf)
	return [12]byte(sum[:12])
}

// astHasher appends a canonical encoding of AST nodes to one buffer that is
// hashed once at the end. Every record is tag-prefixed and NUL-terminated so
// that concatenations of different shapes cannot collide. The byte stream is
// the artifact store's key material: it must not change (see
// TestHashGoldenDigests).
type astHasher struct {
	buf []byte
}

// hasherPool recycles encoding buffers across HashFunc calls (the digest is
// computed before the buffer goes back).
var hasherPool = sync.Pool{New: func() any { return new(astHasher) }}

func (w *astHasher) str(tag, s string) {
	w.buf = append(w.buf, tag...)
	w.buf = append(w.buf, 0)
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, 0)
}

func (w *astHasher) pos(p Pos) {
	w.buf = append(w.buf, '@')
	w.buf = append(w.buf, p.File...)
	w.buf = append(w.buf, ':')
	w.buf = strconv.AppendInt(w.buf, int64(p.Line), 10)
	w.buf = append(w.buf, ':')
	w.buf = strconv.AppendInt(w.buf, int64(p.Col), 10)
	w.buf = append(w.buf, 0)
}

func (w *astHasher) typ(t Type) {
	w.str("type", t.String())
}

func (w *astHasher) stmt(s Stmt) {
	if s == nil {
		w.str("stmt", "nil")
		return
	}
	switch st := s.(type) {
	case *BlockStmt:
		w.str("block", "")
		w.pos(st.Pos)
		for _, inner := range st.Stmts {
			w.stmt(inner)
		}
		w.str("endblock", "")
	case *DeclStmt:
		w.str("decl", st.Decl.Name)
		w.pos(st.Decl.Pos)
		w.typ(st.Decl.Type)
		w.expr(st.Decl.Init)
	case *AssignStmt:
		w.str("assign", "")
		w.pos(st.Pos)
		w.expr(st.Target)
		w.expr(st.Value)
	case *IfStmt:
		w.str("if", "")
		w.pos(st.Pos)
		w.expr(st.Cond)
		w.stmt(st.Then)
		w.stmt(st.Else)
	case *WhileStmt:
		w.str("while", "")
		w.pos(st.Pos)
		w.expr(st.Cond)
		w.stmt(st.Body)
	case *ReturnStmt:
		w.str("return", "")
		w.pos(st.Pos)
		w.expr(st.Value)
	case *ExprStmt:
		w.str("exprstmt", "")
		w.pos(st.Pos)
		w.expr(st.X)
	default:
		w.str("stmt", fmt.Sprintf("%T", s))
	}
}

func (w *astHasher) expr(e Expr) {
	if e == nil {
		w.str("expr", "nil")
		return
	}
	switch x := e.(type) {
	case *Ident:
		w.str("ident", x.Name)
		w.pos(x.Pos)
	case *IntLit:
		w.str("int", strconv.FormatInt(x.Val, 10))
		w.pos(x.Pos)
	case *BoolLit:
		w.str("bool", strconv.FormatBool(x.Val))
		w.pos(x.Pos)
	case *NullLit:
		w.str("null", "")
		w.pos(x.Pos)
	case *UnaryExpr:
		w.str("unary", x.Op)
		w.pos(x.Pos)
		w.expr(x.X)
	case *BinaryExpr:
		w.str("binary", x.Op)
		w.pos(x.Pos)
		w.expr(x.X)
		w.expr(x.Y)
	case *ArrowExpr:
		w.str("arrow", x.Field)
		w.pos(x.Pos)
		w.expr(x.X)
	case *CallExpr:
		w.str("call", x.Fun)
		w.pos(x.Pos)
		for _, a := range x.Args {
			w.expr(a)
		}
		w.str("endcall", "")
	default:
		w.str("expr", fmt.Sprintf("%T", e))
	}
}

// AppendCalleeNames appends to dst the sorted, de-duplicated names of all
// functions a declaration calls (excluding the malloc/free intrinsics, which
// lower to dedicated opcodes and never become call edges). It keeps nothing
// of dst but what it returns, so a caller's scratch buffer can live on its
// stack.
func AppendCalleeNames(dst []string, fn *FuncDecl) []string {
	all := appendStmtCalls(dst, fn.Body)
	names := all[len(dst):]
	sort.Strings(names)
	out := all[:len(dst)]
	for i, name := range names {
		if i == 0 || name != names[i-1] {
			out = append(out, name)
		}
	}
	return out
}

func appendExprCalls(names []string, e Expr) []string {
	switch x := e.(type) {
	case *UnaryExpr:
		names = appendExprCalls(names, x.X)
	case *BinaryExpr:
		names = appendExprCalls(appendExprCalls(names, x.X), x.Y)
	case *ArrowExpr:
		names = appendExprCalls(names, x.X)
	case *CallExpr:
		if x.Fun != "malloc" && x.Fun != "free" {
			names = append(names, x.Fun)
		}
		for _, a := range x.Args {
			names = appendExprCalls(names, a)
		}
	}
	return names
}

func appendStmtCalls(names []string, s Stmt) []string {
	switch st := s.(type) {
	case *BlockStmt:
		for _, inner := range st.Stmts {
			names = appendStmtCalls(names, inner)
		}
	case *DeclStmt:
		if st.Decl.Init != nil {
			names = appendExprCalls(names, st.Decl.Init)
		}
	case *AssignStmt:
		names = appendExprCalls(appendExprCalls(names, st.Target), st.Value)
	case *IfStmt:
		names = appendStmtCalls(appendExprCalls(names, st.Cond), st.Then)
		if st.Else != nil {
			names = appendStmtCalls(names, st.Else)
		}
	case *WhileStmt:
		names = appendStmtCalls(appendExprCalls(names, st.Cond), st.Body)
	case *ReturnStmt:
		if st.Value != nil {
			names = appendExprCalls(names, st.Value)
		}
	case *ExprStmt:
		names = appendExprCalls(names, st.X)
	}
	return names
}
