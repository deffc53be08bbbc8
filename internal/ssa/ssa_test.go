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

func phis(f *ir.Func) []*ir.Instr {
	var out []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				out = append(out, in)
			}
		}
	}
	return out
}

// checkSingleAssignment verifies every non-constant value has at most one
// defining instruction.
func checkSingleAssignment(t *testing.T, f *ir.Func) {
	t.Helper()
	defs := make(map[*ir.Value]int) // the checker's own count, independent of the pass's tables
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, d := range in.Defs() {
				defs[d]++
			}
		}
	}
	for v, n := range defs {
		if n > 1 {
			t.Errorf("%s: value %s defined %d times", f.Name, v, n)
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
		gates := inf.GatesOf(phi)
		if len(gates) != len(phi.Args) {
			t.Fatalf("gate arity mismatch: %d vs %d", len(gates), len(phi.Args))
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
	ret := f.Exit.Term()
	v := ret.Args[0]
	depth := 0
	for v.Def != nil && depth < 10 {
		if v.Def.Op == ir.OpBin {
			depth++
			v = v.Def.Args[0]
		} else if v.Def.Op == ir.OpCopy || v.Def.Op == ir.OpPhi {
			v = v.Def.Args[0]
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
		for _, g := range inf.GatesOf(phi) {
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
	find := func(name string) *ir.Block {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Callee() == name {
					return b
				}
			}
		}
		t.Fatalf("call %s not found", name)
		return nil
	}
	gB, hB, kB := find("g"), find("h"), find("k")
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
	var gB *ir.Block
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				gB = b
			}
		}
	}
	cc := cdCond(inf, gB)
	if cc.IsTrue() || cc.IsFalse() {
		t.Fatalf("CDCond = %s, want an atom", cc)
	}
	if cc.Kind() != cond.KAtom {
		t.Fatalf("CDCond kind = %v, want atom", cc.Kind())
	}
	// The atom maps back to a bool-typed SSA value.
	v := inf.AtomValue(cc.Atom())
	if v == nil || v.Type.Base != "bool" {
		t.Fatalf("atom value = %v", v)
	}
}

// cdCond is the conjunction of b's control dependences, their atoms
// registered: the condition seg.Graph.CD builds from its copy of them.
func cdCond(inf *Info, b *ir.Block) *cond.Cond {
	var cs []*cond.Cond
	for _, d := range inf.CD(b) {
		a := inf.Atom(d.Cond())
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
	var gB *ir.Block
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == ir.OpCall && in.Callee() == "g" {
				gB = blk
			}
		}
	}
	cc := cdCond(inf, gB)
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
		gates := inf.GatesOf(phi)
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
		order, _ := f.Order()
		for _, b := range order {
			want.reachCond[b.ID] = inRegion
		}
		want.reachFrom(order, want.reachCond)
		stray := false
		for _, join := range f.Blocks {
			if len(join.Instrs) == 0 || join.Instrs[0].Op != ir.OpPhi {
				continue
			}
			d := f.Idom(join)
			region := []*ir.Block{d}
			seen := map[*ir.Block]bool{d: true}
			for stack := append([]*ir.Block(nil), join.Preds...); len(stack) > 0; {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if !seen[b] {
					seen[b] = true
					region = append(region, b)
					stack = append(stack, b.Preds...)
				}
			}
			slices.SortFunc(region, func(a, b *ir.Block) int { return f.Rank(a) - f.Rank(b) })
			stray = stray || len(region) < f.Rank(join)-f.Rank(d)
			reach := make([]*cond.Cond, f.NumBlocks())
			for _, b := range region[1:] {
				reach[b.ID] = inRegion
			}
			want.reachFrom(region, reach)
			for i, pb := range join.Preds {
				w := want.Conds.And(reach[pb.ID], want.EdgeCond(pb, join))
				if g := got.JoinGates(join)[i]; cond.Ref(g) != cond.Ref(w) {
					t.Errorf("%s: gate %d of %s is node %d, want %d", f.Name, i, join, cond.Ref(g), cond.Ref(w))
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
