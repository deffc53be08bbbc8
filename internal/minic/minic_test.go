package minic

import (
	"math/rand"
	"strings"
	"testing"
)

// Lex tokenizes the whole input, up to and including the EOF token.
func Lex(file, src string) ([]Token, error) {
	l := NewLexer(file, src)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("t.mc", "int x = 42; // comment\n/* block */ x <= y != z && q || !p")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]TokKind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.Kind
	}
	want := []TokKind{
		TokKwInt, TokIdent, TokAssign, TokInt, TokSemi,
		TokIdent, TokLe, TokIdent, TokNe, TokIdent, TokAndAnd, TokIdent,
		TokOrOr, TokBang, TokIdent, TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(kinds), kinds, len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("f", "int\n  x;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("first token at %d:%d, want 1:1", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("second token at %d:%d, want 2:3", toks[1].Line, toks[1].Col)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"@", "a | b", "/* unterminated"} {
		if _, err := Lex("t", src); err == nil {
			t.Errorf("Lex(%q) succeeded, want error", src)
		}
	}
}

const motivatingExample = `
// Figure 1(a) of the paper, in MiniC.
void foo(int *a) {
	int **ptr = malloc();
	*ptr = a;
	if (input()) {
		bar(ptr);
	} else {
		qux(ptr);
	}
	int *f = *ptr;
	if (input()) {
		sink(*f);
	}
}

void bar(int **q) {
	int *c = malloc();
	if (*q != null) {
		*q = c;
		free(c);
	} else {
		if (input()) {
			*q = source_b();
		}
	}
}

void qux(int **r) {
	if (input()) {
		*r = source_d();
	} else {
		*r = source_e();
	}
}
`

func TestParseMotivatingExample(t *testing.T) {
	f, err := ParseFile("fig1.mc", motivatingExample)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Funcs) != 3 {
		t.Fatalf("got %d funcs, want 3", len(f.Funcs))
	}
	names := []string{"foo", "bar", "qux"}
	for i, fn := range f.Funcs {
		if fn.Name != names[i] {
			t.Errorf("func %d = %s, want %s", i, fn.Name, names[i])
		}
	}
	foo := f.Funcs[0]
	if len(foo.Params) != 1 || foo.Params[0].Type != IntType.Pointer() {
		t.Errorf("foo params = %+v", foo.Params)
	}
	if !foo.Ret.IsVoid() {
		t.Errorf("foo ret = %v, want void", foo.Ret)
	}
}

func TestParseTypes(t *testing.T) {
	f, err := ParseFile("t", "int **g; bool b; void f(int ***p) { }")
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Globals[0].Type.String(); got != "int**" {
		t.Errorf("g type = %s", got)
	}
	if got := f.Funcs[0].Params[0].Type.String(); got != "int***" {
		t.Errorf("p type = %s", got)
	}
	if f.Globals[0].Type.Elem().String() != "int*" {
		t.Errorf("Elem broken")
	}
	if !f.Globals[0].Type.IsPointer() || f.Globals[1].Type.IsPointer() {
		t.Errorf("IsPointer broken")
	}
}

func TestParsePrecedence(t *testing.T) {
	f, err := ParseFile("t", "void f() { int x = 1 + 2 * 3; bool c = a < b && d == e || q; }")
	if err != nil {
		t.Fatal(err)
	}
	body := f.Funcs[0].Body.Stmts
	x := body[0].(*DeclStmt).Decl.Init.(*BinaryExpr)
	if x.Op != "+" {
		t.Fatalf("top of 1+2*3 = %s, want +", x.Op)
	}
	if y := x.Y.(*BinaryExpr); y.Op != "*" {
		t.Fatalf("rhs of + is %s, want *", y.Op)
	}
	c := body[1].(*DeclStmt).Decl.Init.(*BinaryExpr)
	if c.Op != "||" {
		t.Fatalf("top of bool expr = %s, want ||", c.Op)
	}
}

func TestParseDerefChainAndAddr(t *testing.T) {
	f, err := ParseFile("t", "void f(int **p) { **p = 3; int *q = &x; int y = **p; }")
	if err != nil {
		t.Fatal(err)
	}
	as := f.Funcs[0].Body.Stmts[0].(*AssignStmt)
	u1 := as.Target.(*UnaryExpr)
	if u1.Op != "*" {
		t.Fatal("outer deref missing")
	}
	u2 := u1.X.(*UnaryExpr)
	if u2.Op != "*" {
		t.Fatal("inner deref missing")
	}
	q := f.Funcs[0].Body.Stmts[1].(*DeclStmt).Decl.Init.(*UnaryExpr)
	if q.Op != "&" {
		t.Fatal("address-of missing")
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `
int f(int n) {
	int s = 0;
	while (n > 0) {
		s = s + n;
		n = n - 1;
	}
	if (s > 10) { return s; } else { return 0; }
}`
	f, err := ParseFile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	stmts := f.Funcs[0].Body.Stmts
	if _, ok := stmts[1].(*WhileStmt); !ok {
		t.Fatalf("stmt 1 is %T, want *WhileStmt", stmts[1])
	}
	ifs, ok := stmts[2].(*IfStmt)
	if !ok || ifs.Else == nil {
		t.Fatalf("stmt 2 is %T with else=%v", stmts[2], ifs != nil && ifs.Else != nil)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"void f() { 1 = 2; }",   // non-lvalue assignment
		"void f() { if x { } }", // missing parens
		"void f() { return 1 }", // missing semicolon
		"void f( { }",           // bad params
		"int",                   // truncated
		"void f() { x = ; }",    // missing rhs
		"void f() {",            // unterminated block
		"notatype f() {}",       // unknown type
	}
	for _, src := range bad {
		if _, err := ParseFile("t", src); err == nil {
			t.Errorf("ParseFile(%q) succeeded, want error", src)
		}
	}
}

func TestParseProgramUnits(t *testing.T) {
	prog, err := ParseProgram([]NamedSource{
		{Name: "a.mc", Src: "void f() { g(); }"},
		{Name: "b.mc", Src: "void g() { }"},
	})
	if err != nil {
		t.Fatal(err)
	}
	funcs := prog.Funcs()
	if len(funcs) != 2 {
		t.Fatalf("got %d funcs", len(funcs))
	}
	if funcs[0].Unit != 0 || funcs[1].Unit != 1 {
		t.Errorf("units = %d,%d want 0,1", funcs[0].Unit, funcs[1].Unit)
	}
}

func TestGlobalWithInit(t *testing.T) {
	f, err := ParseFile("t", "int g = 5; int *h;")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Globals) != 2 {
		t.Fatalf("got %d globals", len(f.Globals))
	}
	if f.Globals[0].Init == nil || f.Globals[1].Init != nil {
		t.Error("global initializers wrong")
	}
}

func TestParseForLoop(t *testing.T) {
	f, err := ParseFile("t", `
int sum(int n) {
	int s = 0;
	for (int i = 0; i < n; i = i + 1) {
		s = s + i;
	}
	return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	// Desugared: block { decl; while }.
	blk, ok := f.Funcs[0].Body.Stmts[1].(*BlockStmt)
	if !ok {
		t.Fatalf("for did not desugar to a block: %T", f.Funcs[0].Body.Stmts[1])
	}
	if _, ok := blk.Stmts[0].(*DeclStmt); !ok {
		t.Fatalf("init missing: %T", blk.Stmts[0])
	}
	wh, ok := blk.Stmts[1].(*WhileStmt)
	if !ok {
		t.Fatalf("loop missing: %T", blk.Stmts[1])
	}
	body := wh.Body.(*BlockStmt)
	if len(body.Stmts) != 2 {
		t.Fatalf("body+post = %d stmts", len(body.Stmts))
	}
}

func TestParseForVariants(t *testing.T) {
	good := []string{
		"void f() { for (;;) { g(); } }",
		"void f(int n) { for (; n > 0;) { n = n - 1; } }",
		"void f(int n) { int i = 0; for (i = 0; i < n; i = i + 2) { g(); } }",
		"void f() { for (int i = 0; i < 3; tick()) { g(); } }",
	}
	for _, src := range good {
		if _, err := ParseFile("t", src); err != nil {
			t.Errorf("ParseFile(%q): %v", src, err)
		}
	}
	bad := []string{
		"void f() { for () { } }",
		"void f() { for (int i = 0) { } }",
		"void f() { for (;; 1 = 2) { } }",
	}
	for _, src := range bad {
		if _, err := ParseFile("t", src); err == nil {
			t.Errorf("ParseFile(%q) succeeded, want error", src)
		}
	}
}

// TestParserNeverPanics feeds the parser random byte soup and random token
// recombinations: it must return errors, never panic.
func TestParserNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	corpus := []string{
		"int", "bool", "void", "*", "x", "(", ")", "{", "}", ";", ",",
		"=", "==", "!=", "&&", "||", "!", "&", "+", "-", "/", "%",
		"if", "else", "while", "for", "return", "true", "false", "null",
		"42", "f", "malloc", "free",
	}
	for trial := 0; trial < 500; trial++ {
		var b strings.Builder
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			b.WriteString(corpus[rng.Intn(len(corpus))])
			b.WriteByte(' ')
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", b.String(), r)
				}
			}()
			_, _ = ParseFile("fuzz", b.String())
		}()
	}
	// Raw byte soup through the lexer.
	for trial := 0; trial < 200; trial++ {
		raw := make([]byte, rng.Intn(60))
		for i := range raw {
			raw[i] = byte(rng.Intn(256))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("lexer/parser panicked on %q: %v", raw, r)
				}
			}()
			_, _ = ParseFile("fuzz", string(raw))
		}()
	}
}

func TestParseStructs(t *testing.T) {
	f, err := ParseFile("t", `
struct Node {
	int *payload;
	struct Node *next;
};
struct Node *head_g;
void visit(struct Node *n) {
	int *p = n->payload;
	struct Node *nx = n->next;
	n->payload = null;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Structs) != 1 || f.Structs[0].Name != "Node" || len(f.Structs[0].Fields) != 2 {
		t.Fatalf("structs = %+v", f.Structs)
	}
	if got := f.Structs[0].Fields[1].Type.String(); got != "struct Node*" {
		t.Fatalf("next type = %s", got)
	}
	if !f.Globals[0].Type.IsPointer() || f.Globals[0].Type.Elem().StructName() != "Node" {
		t.Fatalf("global type = %v", f.Globals[0].Type)
	}
	// Arrow chains and arrow assignment parse.
	body := f.Funcs[0].Body.Stmts
	if _, ok := body[0].(*DeclStmt).Decl.Init.(*ArrowExpr); !ok {
		t.Fatalf("arrow read missing: %T", body[0].(*DeclStmt).Decl.Init)
	}
	as, ok := body[2].(*AssignStmt)
	if !ok {
		t.Fatalf("stmt 2 = %T", body[2])
	}
	if _, ok := as.Target.(*ArrowExpr); !ok {
		t.Fatalf("arrow lvalue missing: %T", as.Target)
	}
}

func TestParseArrowChain(t *testing.T) {
	f, err := ParseFile("t", `
struct A { struct A *inner; int v; };
int f(struct A *a) { return a->inner->v; }`)
	if err != nil {
		t.Fatal(err)
	}
	ret := f.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	outer := ret.Value.(*ArrowExpr)
	if outer.Field != "v" {
		t.Fatalf("outer field = %s", outer.Field)
	}
	inner := outer.X.(*ArrowExpr)
	if inner.Field != "inner" {
		t.Fatalf("inner field = %s", inner.Field)
	}
}

func TestParseStructErrors(t *testing.T) {
	bad := []string{
		"struct { int x; };",    // missing name
		"struct S { int x }",    // missing semicolons
		"void f(struct *p) { }", // missing struct name
		"void f() { x->; }",     // missing field name
	}
	for _, src := range bad {
		if _, err := ParseFile("t", src); err == nil {
			t.Errorf("ParseFile(%q) succeeded, want error", src)
		}
	}
}
