package ir_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
	"repro/internal/workload"
)

func lowerSrc(t *testing.T, units ...minic.NamedSource) *ir.Module {
	t.Helper()
	prog, err := minic.ParseProgram(units)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := lower.Program(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return m
}

func lowerFunc(t *testing.T, src, name string) *ir.Func {
	t.Helper()
	return lowerSrc(t, minic.NamedSource{Name: "t.mc", Src: src}).Lookup(name)
}

const diamondSrc = `
int f(bool c) {
	int x = 0;
	if (c) { x = 1; } else { x = 2; }
	return x;
}`

// dominates reports whether a dominates b (reflexively) in the tree up links
// up describe: Func.Idom, or Func.Ipdom for post-dominance.
func dominates(up func(*ir.Block) *ir.Block, a, b *ir.Block) bool {
	for x := b; x != nil; x = up(x) {
		if x == a {
			return true
		}
	}
	return false
}

// branchOf returns f's (last) two-way branch block.
func branchOf(t *testing.T, f *ir.Func) *ir.Block {
	t.Helper()
	var branch *ir.Block
	for _, b := range f.Blocks {
		if term := b.Term(); term != nil && term.Op == ir.OpBr {
			branch = b
		}
	}
	if branch == nil {
		t.Fatal("no branch block")
	}
	return branch
}

func TestReversePostorder(t *testing.T) {
	f := lowerFunc(t, diamondSrc, "f")
	rpo, err := f.Order()
	if err != nil {
		t.Fatal(err)
	}
	if rpo[0] != f.Entry {
		t.Fatal("RPO does not start at entry")
	}
	idx := map[*ir.Block]int{} // the test's own bookkeeping: a map, independent of the tables under test
	for i, b := range rpo {
		idx[b] = i
		if f.Rank(b) != i {
			t.Errorf("Rank(%s) = %d, want %d", b, f.Rank(b), i)
		}
	}
	if len(rpo) != len(f.Blocks) {
		t.Fatalf("RPO covers %d blocks of %d", len(rpo), len(f.Blocks))
	}
	// In an acyclic CFG, RPO is topological.
	for _, b := range rpo {
		for _, s := range b.Succs {
			if idx[s] <= idx[b] {
				t.Fatalf("edge %s->%s violates topological order", b, s)
			}
		}
	}
}

func TestTopological(t *testing.T) {
	if _, err := lowerFunc(t, diamondSrc, "f").Order(); err != nil {
		t.Fatal(err)
	}
}

func TestTopologicalDetectsCycle(t *testing.T) {
	f := ir.NewFunc("loop", minic.VoidType, 0, minic.Pos{})
	a := f.NewBlock()
	b := f.NewBlock()
	f.Entry = a
	f.Exit = b
	f.Append(a, ir.Instr{Op: ir.OpJmp, Ext: &ir.Ext{Blocks: []*ir.Block{b}}})
	f.Append(b, ir.Instr{Op: ir.OpJmp, Ext: &ir.Ext{Blocks: []*ir.Block{a}}})
	ir.Connect(a, b)
	if _, err := f.Order(); err != nil {
		t.Fatal(err)
	}
	// The facts were computed for the acyclic graph; SealCFG recomputes
	// them for the changed one.
	ir.Connect(b, a)
	if err := f.SealCFG(); err == nil {
		t.Fatal("SealCFG did not report the cycle")
	}
	if _, err := f.Order(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestDominatorsDiamond(t *testing.T) {
	f := lowerFunc(t, diamondSrc, "f")
	// Entry dominates everything.
	for _, b := range f.Blocks {
		if !dominates(f.Idom, f.Entry, b) {
			t.Errorf("entry does not dominate %s", b)
		}
	}
	branch := branchOf(t, f)
	thenB, elseB := branch.Succs[0], branch.Succs[1]
	if dominates(f.Idom, thenB, elseB) || dominates(f.Idom, elseB, thenB) {
		t.Error("branch arms dominate each other")
	}
	// The join is dominated by the branch block, not by either arm.
	join := thenB.Succs[0]
	if f.Idom(join) != branch {
		t.Errorf("idom(join) = %v, want %v", f.Idom(join), branch)
	}
}

func TestPostDominators(t *testing.T) {
	f := lowerFunc(t, diamondSrc, "f")
	for _, b := range f.Blocks {
		if !dominates(f.Ipdom, f.Exit, b) {
			t.Errorf("exit does not post-dominate %s", b)
		}
	}
	branch := branchOf(t, f)
	thenB := branch.Succs[0]
	join := thenB.Succs[0]
	// The join post-dominates the branch; the arms do not.
	if !dominates(f.Ipdom, join, branch) {
		t.Error("join does not post-dominate branch")
	}
	if dominates(f.Ipdom, thenB, branch) {
		t.Error("then-arm post-dominates branch")
	}
}

func TestControlDepsDiamond(t *testing.T) {
	f := lowerFunc(t, diamondSrc, "f")
	cd := f.ControlDeps()
	branch := branchOf(t, f)
	thenB, elseB := branch.Succs[0], branch.Succs[1]
	join := thenB.Succs[0]
	// Arms are control dependent on the branch with matching polarity.
	checkDep := func(b *ir.Block, wantTrue bool) {
		deps := cd[b.ID]
		if len(deps) != 1 || deps[0].Branch != branch || deps[0].OnTrue != wantTrue {
			t.Errorf("cd[%s] = %+v, want branch=%s onTrue=%v", b, deps, branch, wantTrue)
		}
	}
	checkDep(thenB, true)
	checkDep(elseB, false)
	// The join and entry have no control dependences.
	if len(cd[join.ID]) != 0 {
		t.Errorf("cd[join] = %+v, want empty", cd[join.ID])
	}
	if len(cd[f.Entry.ID]) != 0 {
		t.Errorf("cd[entry] = %+v, want empty", cd[f.Entry.ID])
	}
	// CDep.Cond returns the branch condition value.
	if c := cd[thenB.ID][0].Cond(); c == nil || c.Type.Base != "bool" {
		t.Errorf("Cond() = %v", c)
	}
}

func TestControlDepsNested(t *testing.T) {
	f := lowerFunc(t, `
void f(bool a, bool b) {
	if (a) {
		if (b) {
			g();
		}
	}
}`, "f")
	cd := f.ControlDeps()
	// The block containing the call to g must be control dependent on
	// both branches.
	var callBlock *ir.Block
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == ir.OpCall && in.Callee() == "g" {
				callBlock = blk
			}
		}
	}
	if callBlock == nil {
		t.Fatal("call block not found")
	}
	if len(cd[callBlock.ID]) != 1 {
		t.Fatalf("cd[call] = %+v, want exactly the inner branch (outer is transitive)", cd[callBlock.ID])
	}
	inner := cd[callBlock.ID][0]
	if !inner.OnTrue {
		t.Error("inner dep polarity wrong")
	}
	// The inner branch block is itself control dependent on the outer.
	outerDeps := cd[inner.Branch.ID]
	if len(outerDeps) != 1 || !outerDeps[0].OnTrue {
		t.Errorf("cd[inner branch] = %+v", outerDeps)
	}
}

func TestDominatorsLinear(t *testing.T) {
	f := lowerFunc(t, "void f() { g(); h(); }", "f")
	for _, b := range f.Blocks {
		if b != f.Entry && f.Idom(b) == nil {
			t.Errorf("%s has no idom", b)
		}
		if b != f.Exit && f.Ipdom(b) == nil {
			t.Errorf("%s has no ipdom", b)
		}
	}
}

// definitions computes, by brute force with plain maps that share nothing
// with the ID-indexed tables under test, which blocks dominate and which
// post-dominate which: a dominates b iff every entry→b path passes through a
// (b is unreachable once a is deleted), and a post-dominates b iff every
// b→exit path passes through a.
func definitions(f *ir.Func) (dom, pdom map[[2]*ir.Block]bool) {
	// without returns the blocks a DFS from root along next reaches when
	// skip is deleted.
	without := func(root, skip *ir.Block, next func(*ir.Block) []*ir.Block) map[*ir.Block]bool {
		seen := map[*ir.Block]bool{}
		var dfs func(*ir.Block)
		dfs = func(b *ir.Block) {
			if b == skip || seen[b] {
				return
			}
			seen[b] = true
			for _, s := range next(b) {
				dfs(s)
			}
		}
		dfs(root)
		return seen
	}
	succs := func(b *ir.Block) []*ir.Block { return b.Succs }
	preds := func(b *ir.Block) []*ir.Block { return b.Preds }
	dom, pdom = map[[2]*ir.Block]bool{}, map[[2]*ir.Block]bool{}
	for _, a := range f.Blocks {
		fwd, bwd := without(f.Entry, a, succs), without(f.Exit, a, preds)
		for _, b := range f.Blocks {
			dom[[2]*ir.Block{a, b}] = a == b || !fwd[b]
			pdom[[2]*ir.Block{a, b}] = a == b || !bwd[b]
		}
	}
	return dom, pdom
}

// tree is the dominator or the post-dominator tree of f, beside its
// definition.
type tree struct {
	name string
	up   func(*ir.Block) *ir.Block
	def  map[[2]*ir.Block]bool
	root *ir.Block
}

func trees(f *ir.Func) []tree {
	dom, pdom := definitions(f)
	return []tree{{"dominates", f.Idom, dom, f.Entry}, {"post-dominates", f.Ipdom, pdom, f.Exit}}
}

// definitionCases returns the functions the quick tests check: random acyclic
// CFGs (which, after pruning, have holes in the block ID space), and every
// function lowered from the examples and the Juliet flaw templates.
func definitionCases(t *testing.T) []*ir.Func {
	rng := rand.New(rand.NewSource(7))
	var fns []*ir.Func
	for range 80 {
		fns = append(fns, randomDAGFunc(rng))
	}
	files, err := filepath.Glob("../../examples/mc/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example inputs: %v", err)
	}
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fns = append(fns, lowerSrc(t, minic.NamedSource{Name: filepath.Base(p), Src: string(b)}).Funcs...)
	}
	for _, c := range workload.JulietSuite()[:51] {
		fns = append(fns, lowerSrc(t, c.Units...).Funcs...)
	}
	return fns
}

// TestQuickDominatorsVsBruteForce holds the single-pass dominator and
// post-dominator trees to their definitions.
func TestQuickDominatorsVsBruteForce(t *testing.T) {
	for i, f := range definitionCases(t) {
		for _, tr := range trees(f) {
			for _, a := range f.Blocks {
				for _, b := range f.Blocks {
					if got, want := dominates(tr.up, a, b), tr.def[[2]*ir.Block{a, b}]; got != want {
						t.Fatalf("case %d: %s %s %s: tree says %v, definition %v\n%s", i, a, tr.name, b, got, want, f)
					}
				}
			}
		}
	}
}

// TestQuickDenseTablesVsBruteForce checks the ID-indexed tables against
// their definitions: idom(b) is b's closest strict dominator, ipdom(b) its
// closest strict post-dominator, and B is control dependent on the edge
// (A→S) iff B post-dominates S but does not strictly post-dominate A
// (Ferrante, Ottenstein and Warren), the dependences of each block listed by
// branch block, then true edge before false.
func TestQuickDenseTablesVsBruteForce(t *testing.T) {
	for i, f := range definitionCases(t) {
		tt := trees(f)
		for _, tr := range tt {
			for _, b := range f.Blocks {
				d := tr.up(b)
				if b == tr.root {
					if d != nil {
						t.Fatalf("case %d: root %s has parent %s", i, b, d)
					}
					continue
				}
				// Every other strict dominator of b dominates the parent.
				if d == nil || d == b || !tr.def[[2]*ir.Block{d, b}] {
					t.Fatalf("case %d: parent %v of %s is not a strict %s\n%s", i, d, b, tr.name, f)
				}
				for _, x := range f.Blocks {
					if x != b && tr.def[[2]*ir.Block{x, b}] && !tr.def[[2]*ir.Block{x, d}] {
						t.Fatalf("case %d: %s strictly %s %s but not its parent %s\n%s", i, x, tr.name, b, d, f)
					}
				}
			}
		}
		pdom := tt[1].def
		want := map[*ir.Block][]ir.CDep{}
		for _, a := range f.Blocks {
			if term := a.Term(); term != nil && term.Op == ir.OpBr {
				for k, s := range term.Blocks() {
					for _, b := range f.Blocks {
						if pdom[[2]*ir.Block{b, s}] && (b == a || !pdom[[2]*ir.Block{b, a}]) {
							want[b] = append(want[b], ir.CDep{Branch: a, OnTrue: k == 0})
						}
					}
				}
			}
		}
		cd := f.ControlDeps()
		for _, b := range f.Blocks {
			if !slices.Equal(cd[b.ID], want[b]) {
				t.Fatalf("case %d: control dependences of %s: %v, want %v\n%s", i, b, cd[b.ID], want[b], f)
			}
		}
	}
}

// randomDAGFunc builds a random valid acyclic CFG: forward-only edges, all
// blocks reachable from entry, all paths ending in the single exit.
func randomDAGFunc(rng *rand.Rand) *ir.Func {
	n := 3 + rng.Intn(8)
	f := ir.NewFunc("rand", minic.VoidType, 0, minic.Pos{})
	c := f.NewParam("c", minic.BoolType, false)
	blocks := make([]*ir.Block, n)
	for i := range blocks {
		blocks[i] = f.NewBlock()
	}
	f.Entry = blocks[0]
	f.Exit = blocks[n-1]
	for i := 0; i < n-1; i++ {
		// Pick 1 or 2 distinct forward targets.
		t1 := i + 1 + rng.Intn(n-1-i)
		if rng.Intn(2) == 0 {
			t2 := i + 1 + rng.Intn(n-1-i)
			if t2 != t1 {
				f.Append(blocks[i], ir.Instr{Op: ir.OpBr, Args: []*ir.Value{c},
					Ext: &ir.Ext{Blocks: []*ir.Block{blocks[t1], blocks[t2]}}})
				ir.Connect(blocks[i], blocks[t1])
				ir.Connect(blocks[i], blocks[t2])
				continue
			}
		}
		f.Append(blocks[i], ir.Instr{Op: ir.OpJmp, Ext: &ir.Ext{Blocks: []*ir.Block{blocks[t1]}}})
		ir.Connect(blocks[i], blocks[t1])
	}
	f.Append(blocks[n-1], ir.Instr{Op: ir.OpRet})
	// Some middle blocks may be unreachable from entry; prune them so the
	// invariants hold.
	reach := map[*ir.Block]bool{} // generator bookkeeping, independent of the code under test
	var dfs func(*ir.Block)
	dfs = func(b *ir.Block) {
		if reach[b] {
			return
		}
		reach[b] = true
		for _, s := range b.Succs {
			dfs(s)
		}
	}
	dfs(f.Entry)
	var kept []*ir.Block
	for _, b := range f.Blocks {
		if reach[b] {
			var preds []*ir.Block
			for _, p := range b.Preds {
				if reach[p] {
					preds = append(preds, p)
				}
			}
			b.Preds = preds
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
	if err := f.SealCFG(); err != nil {
		panic(err)
	}
	return f
}
