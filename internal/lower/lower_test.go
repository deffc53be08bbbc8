package lower

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/minic"
)

func mustLower(t *testing.T, src string) *ir.Module {
	t.Helper()
	prog, err := minic.ParseProgram([]minic.NamedSource{{Name: "t.mc", Src: src}})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := Program(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

func countOps(f *ir.Func, op ir.Op) int {
	n := 0
	for _, in := range f.Order() {
		if f.In(in).Op == op {
			n++
		}
	}
	return n
}

func TestLowerStraightLine(t *testing.T) {
	m := mustLower(t, "int f(int a, int b) { int c = a + b; return c; }")
	f := m.Lookup("f")
	if f == nil {
		t.Fatal("f not lowered")
	}
	if got := countOps(f, ir.OpBin); got != 1 {
		t.Errorf("bin ops = %d, want 1", got)
	}
	if got := countOps(f, ir.OpRet); got != 1 {
		t.Errorf("ret ops = %d, want 1 (single-return normalization)", got)
	}
}

func TestLowerSingleReturnNormalization(t *testing.T) {
	m := mustLower(t, `
int f(int a) {
	if (a > 0) { return 1; }
	return 2;
}`)
	f := m.Lookup("f")
	if got := countOps(f, ir.OpRet); got != 1 {
		t.Fatalf("ret count = %d, want 1", got)
	}
	if f.Exit < 0 || f.In(f.Term(f.Exit)).Op != ir.OpRet {
		t.Fatal("exit block is not the return block")
	}
}

func TestLowerIfElseCFG(t *testing.T) {
	m := mustLower(t, `
int f(bool c) {
	int x = 0;
	if (c) { x = 1; } else { x = 2; }
	return x;
}`)
	f := m.Lookup("f")
	if got := countOps(f, ir.OpBr); got != 1 {
		t.Fatalf("br count = %d, want 1", got)
	}
	// The join block must have two predecessors.
	joins := 0
	for _, b := range f.Blocks() {
		if len(f.Preds(b)) == 2 {
			joins++
		}
	}
	if joins == 0 {
		t.Fatal("no join block with 2 preds")
	}
}

func TestLowerWhileUnrolledOnce(t *testing.T) {
	m := mustLower(t, `
int f(int n) {
	int s = 0;
	while (n > 0) { s = s + n; n = n - 1; }
	return s;
}`)
	f := m.Lookup("f")
	// Unrolled loop is an if: no back edges anywhere (CFG is a DAG);
	// verify acyclicity by DFS.
	if hasCycle(f) {
		t.Fatal("CFG has a cycle; while was not unrolled")
	}
}

func hasCycle(f *ir.Func) bool {
	state := map[int32]int{} // 0 unvisited, 1 in progress, 2 done
	var dfs func(int32) bool
	dfs = func(b int32) bool {
		switch state[b] {
		case 1:
			return true
		case 2:
			return false
		}
		state[b] = 1
		for _, s := range f.Succs(b) {
			if dfs(s) {
				return true
			}
		}
		state[b] = 2
		return false
	}
	return dfs(f.Entry)
}

func TestLowerAddressTakenLocal(t *testing.T) {
	m := mustLower(t, `
int f() {
	int x = 1;
	int *p = &x;
	*p = 2;
	return x;
}`)
	f := m.Lookup("f")
	if got := countOps(f, ir.OpAlloc); got != 1 {
		t.Errorf("alloc count = %d, want 1 (x spilled)", got)
	}
	// x reads become loads, x writes stores: init store + *p store.
	if got := countOps(f, ir.OpStore); got < 2 {
		t.Errorf("store count = %d, want >= 2", got)
	}
	if got := countOps(f, ir.OpLoad); got < 1 {
		t.Errorf("load count = %d, want >= 1", got)
	}
}

func TestLowerMallocFreeIntrinsics(t *testing.T) {
	m := mustLower(t, `
void f() {
	int *p = malloc();
	free(p);
}`)
	f := m.Lookup("f")
	if countOps(f, ir.OpMalloc) != 1 || countOps(f, ir.OpFree) != 1 {
		t.Fatalf("malloc/free not lowered as intrinsics:\n%s", f)
	}
	if countOps(f, ir.OpCall) != 0 {
		t.Fatal("intrinsics lowered as calls")
	}
}

func TestLowerMallocTypeHint(t *testing.T) {
	m := mustLower(t, "void f() { int **pp = malloc(); }")
	f := m.Lookup("f")
	for _, in := range f.Order() {
		if f.In(in).Op == ir.OpMalloc {
			if got := f.Type(f.In(in).Dst).String(); got != "int**" {
				t.Fatalf("malloc type = %s, want int**", got)
			}
			return
		}
	}
	t.Fatal("no malloc found")
}

func TestLowerCallsAndExternals(t *testing.T) {
	m := mustLower(t, `
int g(int x) { return x + 1; }
void f() {
	int a = g(3);
	int b = ext(a);
	sink(b);
}`)
	f := m.Lookup("f")
	if got := countOps(f, ir.OpCall); got != 3 {
		t.Fatalf("call count = %d, want 3", got)
	}
}

func TestLowerShortCircuit(t *testing.T) {
	m := mustLower(t, `
void f(bool a, bool b) {
	if (a && b) { g(); }
}`)
	f := m.Lookup("f")
	// && lowers to an extra branch.
	if got := countOps(f, ir.OpBr); got != 2 {
		t.Fatalf("br count = %d, want 2:\n%s", got, f)
	}
}

func TestLowerGlobals(t *testing.T) {
	m := mustLower(t, `
int g;
void f() { g = 3; int x = g; }`)
	f := m.Lookup("f")
	if got := countOps(f, ir.OpGlobalAddr); got != 2 {
		t.Errorf("gaddr count = %d, want 2", got)
	}
	if len(m.Globals) != 1 || m.Globals[0].Name != "g" {
		t.Errorf("globals = %+v", m.Globals)
	}
}

func TestLowerDerefChain(t *testing.T) {
	m := mustLower(t, `
void f(int **pp) {
	int x = **pp;
	**pp = 3;
}`)
	f := m.Lookup("f")
	// **pp read: 2 loads; **pp write: 1 load + 1 store.
	if got := countOps(f, ir.OpLoad); got != 3 {
		t.Errorf("load count = %d, want 3:\n%s", got, f)
	}
	if got := countOps(f, ir.OpStore); got != 1 {
		t.Errorf("store count = %d, want 1", got)
	}
}

func TestLowerParamWrite(t *testing.T) {
	m := mustLower(t, "int f(int a) { a = a + 1; return a; }")
	f := m.Lookup("f")
	// Writing a parameter introduces a shadow copy, not a param mutation.
	if got := countOps(f, ir.OpCopy); got < 1 {
		t.Errorf("copy count = %d, want >= 1:\n%s", got, f)
	}
}

func TestLowerImplicitReturn(t *testing.T) {
	m := mustLower(t, "int f() { }")
	f := m.Lookup("f")
	ret := f.Term(f.Exit)
	if f.In(ret).Op != ir.OpRet || len(f.Args(ret)) != 1 {
		t.Fatalf("exit terminator = %s", f.InstrString(ret))
	}
}

func TestLowerBothArmsReturn(t *testing.T) {
	m := mustLower(t, `
int f(bool c) {
	if (c) { return 1; } else { return 2; }
}`)
	f := m.Lookup("f")
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
}

func TestLowerUndefinedVariable(t *testing.T) {
	prog, err := minic.ParseProgram([]minic.NamedSource{{Name: "t", Src: "void f() { x = 1; }"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Program(prog); err == nil {
		t.Fatal("lowering undefined variable succeeded")
	}
}

func TestLowerPrintSmoke(t *testing.T) {
	m := mustLower(t, `
int *id(int *p) { return p; }
void f(int *a) {
	int *q = id(a);
	if (q != null) { free(q); }
}`)
	s := m.String()
	for _, frag := range []string{"func id", "func f", "call id", "free", "br"} {
		if !strings.Contains(s, frag) {
			t.Errorf("module print missing %q:\n%s", frag, s)
		}
	}
}

func TestLineCount(t *testing.T) {
	m := mustLower(t, "void f() { int x = 1; int y = 2; }")
	if m.LineCount() < 3 {
		t.Errorf("LineCount = %d, want >= 3", m.LineCount())
	}
}

// An instruction carries its line and column in 32 bits each. A position past
// that is a lowering error naming the position, not an instruction at some
// other line.
func TestLowerPositionBeyondRange(t *testing.T) {
	for _, tc := range []struct {
		name   string
		misput func(fn *minic.FuncDecl)
	}{
		{"function line", func(fn *minic.FuncDecl) { fn.Pos.Line = 1 << 31 }},
		{"statement column", func(fn *minic.FuncDecl) { fn.Body.Stmts[0].(*minic.AssignStmt).Pos.Col = 1 << 40 }},
		{"negative line", func(fn *minic.FuncDecl) { fn.Body.Stmts[0].(*minic.AssignStmt).Pos.Line = -1 }},
	} {
		prog, err := minic.ParseProgram([]minic.NamedSource{{Name: "t.mc", Src: "void f(int *p) { *p = 1; }"}})
		if err != nil {
			t.Fatal(err)
		}
		tc.misput(prog.Files[0].Funcs[0])
		if _, err := Program(prog); err == nil || !strings.Contains(err.Error(), "position beyond the range") {
			t.Errorf("%s past the range: lowering returned %v", tc.name, err)
		}
	}
	// The largest position that fits is lowered and reported as it is.
	prog, err := minic.ParseProgram([]minic.NamedSource{{Name: "t.mc", Src: "void f(int *p) { *p = 1; }"}})
	if err != nil {
		t.Fatal(err)
	}
	prog.Files[0].Funcs[0].Body.Stmts[0].(*minic.AssignStmt).Pos.Line = 1<<31 - 1
	m, err := Program(prog)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Funcs[0]
	for _, in := range f.Instrs(f.Entry) {
		if f.In(in).Op == ir.OpStore {
			if got := f.Position(in); got.File != "t.mc" || got.Line != 1<<31-1 {
				t.Errorf("store at %v, want t.mc:%d", got, 1<<31-1)
			}
		}
	}
}
