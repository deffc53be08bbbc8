package transform

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
	"repro/internal/modref"
	"repro/internal/ssa"
)

func buildTransformed(t *testing.T, src string) *ir.Module {
	t.Helper()
	prog, err := minic.ParseProgram([]minic.NamedSource{{Name: "t.mc", Src: src}})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := lower.Program(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	for _, f := range m.Funcs {
		if _, err := ssa.Transform(f); err != nil {
			t.Fatalf("ssa: %v", err)
		}
	}
	mr := modref.Analyze(m)
	if err := Apply(m, mr); err != nil {
		t.Fatalf("transform: %v", err)
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

func TestAuxParamInserted(t *testing.T) {
	m := buildTransformed(t, `
int deref(int *p) { return *p; }`)
	f := m.Lookup("deref")
	if len(f.AuxIn) != 1 {
		t.Fatalf("AuxIn = %v, want one spec", f.AuxIn)
	}
	spec := f.AuxIn[0]
	if spec.Root != 0 || spec.Depth != 1 {
		t.Errorf("spec = %+v", spec)
	}
	// Signature has the original param plus one aux param.
	if len(f.Params) != 2 || !f.Params[1].Aux {
		t.Fatalf("params = %v", f.Params)
	}
	// Entry begins with the connector store *p <- F.
	first := f.Instrs(f.Entry)[0]
	if f.In(first).Op != ir.OpStore || f.Args(first)[1] != f.Params[1].ID {
		t.Errorf("entry store missing: %s", f.InstrString(first))
	}
}

func TestAuxReturnInserted(t *testing.T) {
	m := buildTransformed(t, `
void setit(int *p) { *p = 42; }`)
	f := m.Lookup("setit")
	if len(f.AuxOut) != 1 {
		t.Fatalf("AuxOut = %v", f.AuxOut)
	}
	ret := f.Term(f.Exit)
	// void function: return args are exactly the aux returns.
	if len(f.Args(ret)) != 1 {
		t.Fatalf("ret args = %v", f.Args(ret))
	}
	// The aux return is loaded from *p right before the return.
	exit := f.Instrs(f.Exit)
	ld := exit[len(exit)-2]
	if f.In(ld).Op != ir.OpLoad || f.In(ld).Dst != f.Args(ret)[0] {
		t.Errorf("exit load missing: %s", f.InstrString(ld))
	}
	// Mod implies an input connector too (value preserved on unmodified
	// paths).
	if len(f.AuxIn) != 1 {
		t.Errorf("AuxIn = %v, want mirror input", f.AuxIn)
	}
}

func TestCallSiteRewritten(t *testing.T) {
	m := buildTransformed(t, `
void callee(int *q) { *q = 7; }
void caller() {
	int *p = malloc();
	callee(p);
	int x = *p;
}`)
	caller := m.Lookup("caller")
	call := int32(-1)
	for _, in := range caller.Order() {
		if caller.Callee(in) == "callee" {
			call = in
		}
	}
	if call < 0 {
		t.Fatal("call not found")
	}
	// One aux actual appended, one aux receiver appended.
	if len(caller.Args(call)) != 2 {
		t.Fatalf("call args = %v", caller.Args(call))
	}
	if len(caller.Dsts(call)) != 2 {
		t.Fatalf("call dsts = %v", caller.Dsts(call))
	}
	// The instruction right before the call loads the actual; right
	// after, the receiver is stored back.
	b := caller.Instrs(caller.In(call).Block)
	pos := slices.Index(b, call)
	if caller.In(b[pos-1]).Op != ir.OpLoad {
		t.Errorf("pre-call load missing: %s", caller.InstrString(b[pos-1]))
	}
	if caller.In(b[pos+1]).Op != ir.OpStore || caller.Args(b[pos+1])[1] != caller.Dsts(call)[1] {
		t.Errorf("post-call store missing: %s", caller.InstrString(b[pos+1]))
	}
}

func TestFigure2Transformation(t *testing.T) {
	// The paper's Figure 2: bar both reads and writes *q, qux writes *r.
	m := buildTransformed(t, `
void foo(int *a) {
	int **ptr = malloc();
	*ptr = a;
	if (input()) {
		bar(ptr);
	} else {
		qux(ptr);
	}
	int *f = *ptr;
	if (input()) { sink(*f); }
}
void bar(int **q) {
	int *c = malloc();
	if (*q != null) {
		*q = c;
		free(c);
	} else {
		if (input()) { *q = source_b(); }
	}
}
void qux(int **r) {
	if (input()) { *r = source_d(); } else { *r = source_e(); }
}`)
	bar := m.Lookup("bar")
	// bar reads *q (the null check) and writes *q: X and Y connectors.
	if len(bar.AuxIn) != 1 || len(bar.AuxOut) != 1 {
		t.Fatalf("bar connectors: in=%v out=%v", bar.AuxIn, bar.AuxOut)
	}
	qux := m.Lookup("qux")
	if len(qux.AuxOut) != 1 {
		t.Fatalf("qux connectors: out=%v", qux.AuxOut)
	}
	// foo's call sites are rewritten.
	foo := m.Lookup("foo")
	calls := 0
	for _, in := range foo.Order() {
		if callee := foo.Callee(in); callee == "bar" || callee == "qux" {
			calls++
			if len(foo.Args(in)) < 2 && callee == "bar" {
				t.Errorf("bar call not extended: %s", foo.InstrString(in))
			}
			if len(foo.Dsts(in)) < 2 {
				t.Errorf("%s call lacks aux receiver: %s", callee, foo.InstrString(in))
			}
		}
	}
	if calls != 2 {
		t.Fatalf("found %d calls", calls)
	}
}

func TestGlobalConnectors(t *testing.T) {
	m := buildTransformed(t, `
int g;
void writer() { g = 5; }
int reader() { return g; }
void top() { writer(); }`)
	w := m.Lookup("writer")
	if len(w.AuxOut) != 1 || w.AuxOut[0].Global != "g" {
		t.Fatalf("writer AuxOut = %v", w.AuxOut)
	}
	r := m.Lookup("reader")
	if len(r.AuxIn) != 1 || r.AuxIn[0].Global != "g" {
		t.Fatalf("reader AuxIn = %v", r.AuxIn)
	}
	// top's call to writer receives the aux global value and stores it
	// back to g.
	top := m.Lookup("top")
	s := top.String()
	if !strings.Contains(s, "&@g") {
		t.Errorf("top missing global glue:\n%s", s)
	}
	// And top itself now Mods g, so it has an aux return for g.
	if len(top.AuxOut) != 1 || top.AuxOut[0].Global != "g" {
		t.Errorf("top AuxOut = %v", top.AuxOut)
	}
}

func TestDepth2Connectors(t *testing.T) {
	m := buildTransformed(t, `
void f(int **pp) {
	int *p = *pp;
	*p = 3;
}`)
	f := m.Lookup("f")
	// Depth 1 (read the pointer) and depth 2 (write the int): contiguous
	// connectors.
	if len(f.AuxIn) != 2 {
		t.Fatalf("AuxIn = %v, want depths 1,2", f.AuxIn)
	}
	if f.AuxIn[0].Depth != 1 || f.AuxIn[1].Depth != 2 {
		t.Errorf("AuxIn order = %v", f.AuxIn)
	}
	// Depth 2 modified; outputs are contiguous 1..2.
	if len(f.AuxOut) != 2 {
		t.Fatalf("AuxOut = %v", f.AuxOut)
	}
}

func TestNoConnectorsForPureFunctions(t *testing.T) {
	m := buildTransformed(t, `
int add(int a, int b) { return a + b; }
void caller() { int x = add(1, 2); }`)
	f := m.Lookup("add")
	if len(f.AuxIn)+len(f.AuxOut) != 0 {
		t.Errorf("pure function has connectors: %v %v", f.AuxIn, f.AuxOut)
	}
	// Caller's call untouched.
	caller := m.Lookup("caller")
	for _, in := range caller.Order() {
		if caller.In(in).Op == ir.OpCall && len(caller.Args(in)) != 2 {
			t.Errorf("call rewritten unnecessarily: %s", caller.InstrString(in))
		}
	}
}

func TestSSAPreservedAfterTransform(t *testing.T) {
	m := buildTransformed(t, `
void callee(int *q) { *q = 7; }
void caller(int *p) { callee(p); callee(p); }`)
	for _, f := range m.Funcs {
		defs := make(map[int32]int)
		for _, in := range f.Order() {
			for _, d := range append(f.Dsts(in), f.In(in).Dst) {
				if d >= 0 {
					defs[d]++
				}
			}
		}
		for v, n := range defs {
			if n > 1 {
				t.Errorf("%s: %s defined %d times after transform", f.Name, f.ValueString(v), n)
			}
		}
	}
}
