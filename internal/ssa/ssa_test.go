package ssa

import (
	"slices"
	"testing"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
)

func buildSSA(t *testing.T, src string) (*ir.Module, map[string]*Info) {
	t.Helper()
	prog, err := minic.ParseProgram([]minic.NamedSource{{Name: "t.mc", Src: src}})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := lower.Program(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	infos := make(map[string]*Info)
	for _, f := range m.Funcs {
		inf, err := Transform(f)
		if err != nil {
			t.Fatalf("ssa %s: %v", f.Name, err)
		}
		if err := ir.Verify(f); err != nil {
			t.Fatalf("verify after ssa %s: %v\n%s", f.Name, err, f)
		}
		infos[f.Name] = inf
	}
	return m, infos
}

func phis(f *ir.Func) []int32 {
	var out []int32
	for _, in := range f.Order() {
		if f.In(in).Op == ir.OpPhi {
			out = append(out, in)
		}
	}
	return out
}

// gatesOf returns the gates of φ instruction phi, one per operand.
func gatesOf(inf *Info, phi int32) []*cond.Cond {
	var out []*cond.Cond
	for i := range inf.Fn.Args(phi) {
		out = append(out, inf.Gate(phi, i))
	}
	return out
}

// blockOfCall returns the block of f's (last) call to name (any callee for
// "").
func blockOfCall(t *testing.T, f *ir.Func, name string) int32 {
	t.Helper()
	b := int32(-1)
	for _, in := range f.Order() {
		if f.In(in).Op == ir.OpCall && (name == "" || f.Callee(in) == name) {
			b = f.In(in).Block
		}
	}
	if b < 0 {
		t.Fatalf("call %s not found", name)
	}
	return b
}

// checkSingleAssignment verifies every non-constant value has at most one
// defining instruction.
func checkSingleAssignment(t *testing.T, f *ir.Func) {
	t.Helper()
	defs := make(map[int32]int) // the checker's own count, independent of the pass's tables
	for _, in := range f.Order() {
		for _, d := range append(f.Dsts(in), f.In(in).Dst) {
			if d >= 0 {
				defs[d]++
			}
		}
	}
	for v, n := range defs {
		if n > 1 {
			t.Errorf("%s: value %s defined %d times", f.Name, f.ValueString(v), n)
		}
	}
}

func TestSSADiamondPhi(t *testing.T) {
	m, infos := buildSSA(t, `
int f(bool c) {
	int x = 0;
	if (c) { x = 1; } else { x = 2; }
	return x;
}`)
	f := m.Lookup("f")
	checkSingleAssignment(t, f)
	ps := phis(f)
	if len(ps) == 0 {
		t.Fatalf("no phi inserted:\n%s", f)
	}
	// Each phi has gates, and the gates are complementary atoms.
	inf := infos["f"]
	for _, phi := range ps {
		gates := gatesOf(inf, phi)
		if len(gates) != 2 {
			t.Fatalf("%d gates, want 2", len(gates))
		}
		// One gate must be an atom, the other its negation.
		g0, g1 := gates[0], gates[1]
		if inf.Conds.Not(g0) != g1 {
			t.Errorf("gates not complementary: %s vs %s", g0, g1)
		}
	}
}

func TestSSANoPhiForStraightLine(t *testing.T) {
	m, _ := buildSSA(t, "int f(int a) { int x = a + 1; int y = x * 2; return y; }")
	f := m.Lookup("f")
	if got := len(phis(f)); got != 0 {
		t.Errorf("phi count = %d, want 0:\n%s", got, f)
	}
	checkSingleAssignment(t, f)
}

func TestSSAUsesReachingVersion(t *testing.T) {
	m, _ := buildSSA(t, `
int f(int a) {
	int x = 1;
	x = x + a;
	x = x + a;
	return x;
}`)
	f := m.Lookup("f")
	checkSingleAssignment(t, f)
	// The return value's chain must reach through two additions.
	v := f.Args(f.Term(f.Exit))[0]
	depth := 0
	for def := f.Value(v).Def; def >= 0 && depth < 10; def = f.Value(v).Def {
		if op := f.In(def).Op; op == ir.OpBin {
			depth++
			v = f.Args(def)[0]
		} else if op == ir.OpCopy || op == ir.OpPhi {
			v = f.Args(def)[0]
		} else {
			break
		}
	}
	if depth != 2 {
		t.Errorf("def-use chain depth = %d, want 2:\n%s", depth, f)
	}
}

func TestSSANestedBranchesGates(t *testing.T) {
	m, infos := buildSSA(t, `
int f(bool a, bool b) {
	int x = 0;
	if (a) {
		if (b) { x = 1; } else { x = 2; }
	}
	return x;
}`)
	f := m.Lookup("f")
	inf := infos["f"]
	checkSingleAssignment(t, f)
	ps := phis(f)
	if len(ps) < 2 {
		t.Fatalf("want >=2 phis (inner join and outer join), got %d:\n%s", len(ps), f)
	}
	// Every gate of every phi must be satisfiable on its own (the
	// linear filter should not reject any single gate).
	ls := cond.NewLinearSolver()
	for _, phi := range ps {
		for _, g := range gatesOf(inf, phi) {
			if ls.ApparentlyUnsat(g) {
				t.Errorf("gate %s apparently unsat", g)
			}
		}
	}
}

func TestSSAReachCond(t *testing.T) {
	m, infos := buildSSA(t, `
void f(bool c) {
	if (c) { g(); } else { h(); }
	k();
}`)
	f := m.Lookup("f")
	inf := infos["f"]
	if !inf.ReachCond(f.Entry).IsTrue() {
		t.Error("entry reach cond not true")
	}
	// Find the blocks containing the calls.
	gB, hB, kB := blockOfCall(t, f, "g"), blockOfCall(t, f, "h"), blockOfCall(t, f, "k")
	gc, hc := inf.ReachCond(gB), inf.ReachCond(hB)
	if gc.IsTrue() || hc.IsTrue() {
		t.Errorf("branch arm reach conds unconditional: %s / %s", gc, hc)
	}
	if inf.Conds.Not(gc) != hc {
		t.Errorf("arm conditions not complementary: %s vs %s", gc, hc)
	}
	if !inf.ReachCond(kB).IsTrue() {
		t.Errorf("join reach cond = %s, want true", inf.ReachCond(kB))
	}
}

func TestSSACDCond(t *testing.T) {
	m, infos := buildSSA(t, `
void f(bool c) {
	if (c) { g(); }
}`)
	f := m.Lookup("f")
	inf := infos["f"]
	cc := cdCond(inf, blockOfCall(t, f, ""))
	if cc.IsTrue() || cc.IsFalse() {
		t.Fatalf("CDCond = %s, want an atom", cc)
	}
	if cc.Kind() != cond.KAtom {
		t.Fatalf("CDCond kind = %v, want atom", cc.Kind())
	}
	// The atom is a bool-typed SSA value, registered as one.
	v := int32(cc.Atom())
	if !slices.Contains(inf.AppendAtoms(nil), v) || !f.Value(v).Bool() {
		t.Fatalf("atom value = %v", v)
	}
}

// cdCond is the conjunction of b's control dependences, their atoms
// registered: the condition seg.Graph.CD is.
func cdCond(inf *Info, b int32) *cond.Cond {
	var cs []*cond.Cond
	for _, d := range inf.CD(b) {
		a := inf.Atom(d.Cond)
		if !d.OnTrue {
			a = inf.Conds.Not(a)
		}
		cs = append(cs, a)
	}
	return inf.Conds.And(cs...)
}

func TestSSAWhileUnrolledPhi(t *testing.T) {
	m, _ := buildSSA(t, `
int f(int n) {
	int s = 0;
	while (n > 0) { s = s + n; }
	return s;
}`)
	f := m.Lookup("f")
	checkSingleAssignment(t, f)
	if len(phis(f)) == 0 {
		t.Errorf("unrolled while should still merge s via phi:\n%s", f)
	}
}

func TestSSADeadPhiElimination(t *testing.T) {
	m, _ := buildSSA(t, `
void f(bool c) {
	int x = 0;
	if (c) { x = 1; } else { x = 2; }
	// x never used after the merge
}`)
	f := m.Lookup("f")
	if got := len(phis(f)); got != 0 {
		t.Errorf("dead phi not eliminated (%d left):\n%s", got, f)
	}
}

func TestSSAShortCircuitGates(t *testing.T) {
	m, infos := buildSSA(t, `
void f(bool a, bool b) {
	if (a && b) { g(); }
}`)
	f := m.Lookup("f")
	inf := infos["f"]
	// The && produces a phi for the temp; the call block's control
	// dependence references the merged value.
	cc := cdCond(inf, blockOfCall(t, f, "g"))
	if cc.IsTrue() {
		t.Fatal("short-circuit condition lost")
	}
	checkSingleAssignment(t, f)
}

func TestSSAConstantBranch(t *testing.T) {
	m, infos := buildSSA(t, `
int f() {
	int x = 0;
	if (true) { x = 1; } else { x = 2; }
	return x;
}`)
	f := m.Lookup("f")
	inf := infos["f"]
	for _, phi := range phis(f) {
		gates := gatesOf(inf, phi)
		// With a constant-true branch one gate folds to true and the
		// other to false.
		hasTrue, hasFalse := false, false
		for _, g := range gates {
			if g.IsTrue() {
				hasTrue = true
			}
			if g.IsFalse() {
				hasFalse = true
			}
		}
		if !hasTrue || !hasFalse {
			t.Errorf("constant branch gates = %v", gates)
		}
	}
}

func TestSSACallMultipleDsts(t *testing.T) {
	// Calls define their receivers; SSA must rename them.
	m, _ := buildSSA(t, `
int g() { return 1; }
int f(bool c) {
	int x = g();
	if (c) { x = g(); }
	return x;
}`)
	checkSingleAssignment(t, m.Lookup("f"))
}

// TestJoinGatesRegion holds JoinGates to the region its gates are defined
// over: the blocks from which a join's predecessors are reached backward
// without passing idom(join), swept in order. The reference finds that region
// by a backward search; JoinGates sweeps the stretch of the order between
// idom(join) and the join, which can hold blocks that do not reach the join
// (here the else-arm's return, which the DFS finishes before the then-arm).
// Both start from an empty builder and must make the same calls in the same
// order, so their conditions have the same node IDs.
func TestJoinGatesRegion(t *testing.T) {
	m, infos := buildSSA(t, `
int f(bool a, bool c, bool e) {
	int x = 0;
	if (a) {
		if (c) { x = 1; } else { if (e) { x = 2; } else { return 3; } }
		x = x + 1;
	}
	return x;
}
int g(bool a, bool b, bool c) {
	int x = 0;
	if (a && b) { x = 1; } else { if (c) { return 2; } }
	if (b || c) { x = x + 1; }
	return x;
}`)
	for _, f := range m.Funcs {
		got := infos[f.Name]
		want := newInfo(f, cond.NewBuilder())
		order, _ := f.TopoOrder()
		for _, b := range order {
			want.reachCond[b] = inRegion
		}
		want.reachFrom(order, want.reachCond)
		stray := false
		for _, join := range f.Blocks() {
			if ins := f.Instrs(join); len(ins) == 0 || f.In(ins[0]).Op != ir.OpPhi {
				continue
			}
			d := f.Idom(join)
			region := []int32{d}
			seen := map[int32]bool{d: true}
			for stack := slices.Clone(f.Preds(join)); len(stack) > 0; {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if !seen[b] {
					seen[b] = true
					region = append(region, b)
					stack = append(stack, f.Preds(b)...)
				}
			}
			slices.SortFunc(region, func(a, b int32) int { return f.Rank(a) - f.Rank(b) })
			stray = stray || len(region) < f.Rank(join)-f.Rank(d)
			reach := make([]*cond.Cond, f.NumBlocks())
			for _, b := range region[1:] {
				reach[b] = inRegion
			}
			want.reachFrom(region, reach)
			for i, pb := range f.Preds(join) {
				w := want.Conds.And(reach[pb], want.EdgeCond(pb, join))
				if g := got.JoinGates(join)[i]; cond.Ref(g) != cond.Ref(w) {
					t.Errorf("%s: gate %d of b%d is node %d, want %d", f.Name, i, join, cond.Ref(g), cond.Ref(w))
				}
			}
		}
		if got.Conds.NumNodes() != want.Conds.NumNodes() {
			t.Errorf("%s: %d condition nodes, want %d", f.Name, got.Conds.NumNodes(), want.Conds.NumNodes())
		}
		if f.Name == "f" && !stray {
			t.Errorf("f: no join's stretch of the order holds a block outside its region\n%s", f)
		}
	}
}
