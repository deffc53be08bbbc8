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
func dominates(up func(int32) int32, a, b int32) bool {
	for x := b; x >= 0; x = up(x) {
		if x == a {
			return true
		}
	}
	return false
}

// branchOf returns f's (last) two-way branch block.
func branchOf(t *testing.T, f *ir.Func) int32 {
	t.Helper()
	branch := int32(-1)
	for _, b := range f.Blocks() {
		if term := f.Term(b); term >= 0 && f.In(term).Op == ir.OpBr {
			branch = b
		}
	}
	if branch < 0 {
		t.Fatal("no branch block")
	}
	return branch
}

func TestReversePostorder(t *testing.T) {
	f := lowerFunc(t, diamondSrc, "f")
	rpo, err := f.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if rpo[0] != f.Entry {
		t.Fatal("RPO does not start at entry")
	}
	idx := map[int32]int{} // the test's own bookkeeping: a map, independent of the tables under test
	for i, b := range rpo {
		idx[b] = i
		if f.Rank(b) != i {
			t.Errorf("Rank(b%d) = %d, want %d", b, f.Rank(b), i)
		}
	}
	if len(rpo) != len(f.Blocks()) {
		t.Fatalf("RPO covers %d blocks of %d", len(rpo), len(f.Blocks()))
	}
	// In an acyclic CFG, RPO is topological.
	for _, b := range rpo {
		for _, s := range f.Succs(b) {
			if idx[s] <= idx[b] {
				t.Fatalf("edge b%d->b%d violates topological order", b, s)
			}
		}
	}
}

func TestTopological(t *testing.T) {
	if _, err := lowerFunc(t, diamondSrc, "f").TopoOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestTopologicalDetectsCycle(t *testing.T) {
	f := ir.NewFunc("loop", minic.VoidType, 0, minic.Pos{})
	a := f.NewBlock()
	b := f.NewBlock()
	f.Entry = a
	f.Exit = b
	f.Append(a, ir.Spec{Op: ir.OpJmp})
	f.Append(b, ir.Spec{Op: ir.OpJmp})
	f.Connect(a, b)
	if _, err := f.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	// The facts were computed for the acyclic graph; SealCFG recomputes
	// them for the changed one.
	f.Connect(b, a)
	if err := f.SealCFG(); err == nil {
		t.Fatal("SealCFG did not report the cycle")
	}
	if _, err := f.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestDominatorsDiamond(t *testing.T) {
	f := lowerFunc(t, diamondSrc, "f")
	// Entry dominates everything.
	for _, b := range f.Blocks() {
		if !dominates(f.Idom, f.Entry, b) {
			t.Errorf("entry does not dominate b%d", b)
		}
	}
	branch := branchOf(t, f)
	thenB, elseB := f.Succs(branch)[0], f.Succs(branch)[1]
	if dominates(f.Idom, thenB, elseB) || dominates(f.Idom, elseB, thenB) {
		t.Error("branch arms dominate each other")
	}
	// The join is dominated by the branch block, not by either arm.
	join := f.Succs(thenB)[0]
	if f.Idom(join) != branch {
		t.Errorf("idom(join) = %v, want %v", f.Idom(join), branch)
	}
}

func TestPostDominators(t *testing.T) {
	f := lowerFunc(t, diamondSrc, "f")
	for _, b := range f.Blocks() {
		if !dominates(f.Ipdom, f.Exit, b) {
			t.Errorf("exit does not post-dominate b%d", b)
		}
	}
	branch := branchOf(t, f)
	thenB := f.Succs(branch)[0]
	join := f.Succs(thenB)[0]
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
	thenB, elseB := f.Succs(branch)[0], f.Succs(branch)[1]
	join := f.Succs(thenB)[0]
	// Arms are control dependent on the branch with matching polarity.
	checkDep := func(b int32, wantTrue bool) {
		deps := cd[b]
		if len(deps) != 1 || deps[0].Branch != branch || deps[0].OnTrue != wantTrue {
			t.Errorf("cd[b%d] = %+v, want branch=b%d onTrue=%v", b, deps, branch, wantTrue)
		}
	}
	checkDep(thenB, true)
	checkDep(elseB, false)
	// The join and entry have no control dependences.
	if len(cd[join]) != 0 {
		t.Errorf("cd[join] = %+v, want empty", cd[join])
	}
	if len(cd[f.Entry]) != 0 {
		t.Errorf("cd[entry] = %+v, want empty", cd[f.Entry])
	}
	// CDep.Cond is the branch condition value.
	if c := cd[thenB][0].Cond; c != f.Args(f.Term(branch))[0] || !f.Value(c).Bool() {
		t.Errorf("Cond = %v", c)
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
	callBlock := int32(-1)
	for _, in := range f.Order() {
		if f.Callee(in) == "g" {
			callBlock = f.In(in).Block
		}
	}
	if callBlock < 0 {
		t.Fatal("call block not found")
	}
	if len(cd[callBlock]) != 1 {
		t.Fatalf("cd[call] = %+v, want exactly the inner branch (outer is transitive)", cd[callBlock])
	}
	inner := cd[callBlock][0]
	if !inner.OnTrue {
		t.Error("inner dep polarity wrong")
	}
	// The inner branch block is itself control dependent on the outer.
	outerDeps := cd[inner.Branch]
	if len(outerDeps) != 1 || !outerDeps[0].OnTrue {
		t.Errorf("cd[inner branch] = %+v", outerDeps)
	}
}

func TestDominatorsLinear(t *testing.T) {
	f := lowerFunc(t, "void f() { g(); h(); }", "f")
	for _, b := range f.Blocks() {
		if b != f.Entry && f.Idom(b) < 0 {
			t.Errorf("b%d has no idom", b)
		}
		if b != f.Exit && f.Ipdom(b) < 0 {
			t.Errorf("b%d has no ipdom", b)
		}
	}
}

// definitions computes, by brute force with plain maps that share nothing
// with the ID-indexed tables under test, which blocks dominate and which
// post-dominate which: a dominates b iff every entry→b path passes through a
// (b is unreachable once a is deleted), and a post-dominates b iff every
// b→exit path passes through a.
func definitions(f *ir.Func) (dom, pdom map[[2]int32]bool) {
	// without returns the blocks a DFS from root along next reaches when
	// skip is deleted.
	without := func(root, skip int32, next func(int32) []int32) map[int32]bool {
		seen := map[int32]bool{}
		var dfs func(int32)
		dfs = func(b int32) {
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
	succs, preds := f.Succs, f.Preds
	dom, pdom = map[[2]int32]bool{}, map[[2]int32]bool{}
	for _, a := range f.Blocks() {
		fwd, bwd := without(f.Entry, a, succs), without(f.Exit, a, preds)
		for _, b := range f.Blocks() {
			dom[[2]int32{a, b}] = a == b || !fwd[b]
			pdom[[2]int32{a, b}] = a == b || !bwd[b]
		}
	}
	return dom, pdom
}

// tree is the dominator or the post-dominator tree of f, beside its
// definition.
type tree struct {
	name string
	up   func(int32) int32
	def  map[[2]int32]bool
	root int32
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
			for _, a := range f.Blocks() {
				for _, b := range f.Blocks() {
					if got, want := dominates(tr.up, a, b), tr.def[[2]int32{a, b}]; got != want {
						t.Fatalf("case %d: b%d %s b%d: tree says %v, definition %v\n%s", i, a, tr.name, b, got, want, f)
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
			for _, b := range f.Blocks() {
				d := tr.up(b)
				if b == tr.root {
					if d >= 0 {
						t.Fatalf("case %d: root b%d has parent b%d", i, b, d)
					}
					continue
				}
				// Every other strict dominator of b dominates the parent.
				if d < 0 || d == b || !tr.def[[2]int32{d, b}] {
					t.Fatalf("case %d: parent %v of b%d is not a strict %s\n%s", i, d, b, tr.name, f)
				}
				for _, x := range f.Blocks() {
					if x != b && tr.def[[2]int32{x, b}] && !tr.def[[2]int32{x, d}] {
						t.Fatalf("case %d: b%d strictly %s b%d but not its parent b%d\n%s", i, x, tr.name, b, d, f)
					}
				}
			}
		}
		pdom := tt[1].def
		want := map[int32][]ir.CDep{}
		for _, a := range f.Blocks() {
			if term := f.Term(a); term >= 0 && f.In(term).Op == ir.OpBr {
				for k, s := range f.Succs(a) {
					for _, b := range f.Blocks() {
						if pdom[[2]int32{b, s}] && (b == a || !pdom[[2]int32{b, a}]) {
							want[b] = append(want[b], ir.CDep{Branch: a, Cond: f.Args(term)[0], OnTrue: k == 0})
						}
					}
				}
			}
		}
		cd := f.ControlDeps()
		for _, b := range f.Blocks() {
			if !slices.Equal(cd[b], want[b]) {
				t.Fatalf("case %d: control dependences of b%d: %v, want %v\n%s", i, b, cd[b], want[b], f)
			}
		}
	}
}

// randomDAGFunc builds a random valid acyclic CFG: forward-only edges, all
// paths ending in the single exit. Blocks the entry does not reach are left
// for SealCFG to prune, which leaves holes in the block ID space.
func randomDAGFunc(rng *rand.Rand) *ir.Func {
	n := int32(3 + rng.Intn(8))
	f := ir.NewFunc("rand", minic.VoidType, 0, minic.Pos{})
	c := f.NewParam("c", minic.BoolType, false)
	for range n {
		f.NewBlock()
	}
	f.Entry, f.Exit = 0, n-1
	for i := int32(0); i < n-1; i++ {
		// Pick 1 or 2 distinct forward targets.
		t1 := i + 1 + rng.Int31n(n-1-i)
		if rng.Intn(2) == 0 {
			if t2 := i + 1 + rng.Int31n(n-1-i); t2 != t1 {
				f.Append(i, ir.Spec{Op: ir.OpBr, Args: []int32{c}})
				f.Connect(i, t1)
				f.Connect(i, t2)
				continue
			}
		}
		f.Append(i, ir.Spec{Op: ir.OpJmp})
		f.Connect(i, t1)
	}
	f.Append(n-1, ir.Spec{Op: ir.OpRet})
	if err := f.SealCFG(); err != nil {
		panic(err)
	}
	return f
}
