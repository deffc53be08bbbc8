package cfg_test

import (
	"math/rand"
	"testing"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
)

func lowerSrc(t *testing.T, src string) *ir.Module {
	t.Helper()
	prog, err := minic.ParseProgram([]minic.NamedSource{{Name: "t.mc", Src: src}})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := lower.Program(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return m
}

const diamondSrc = `
int f(bool c) {
	int x = 0;
	if (c) { x = 1; } else { x = 2; }
	return x;
}`

func TestReversePostorder(t *testing.T) {
	m := lowerSrc(t, diamondSrc)
	f := m.Lookup("f")
	rpo := cfg.ReversePostorder(f)
	if rpo[0] != f.Entry {
		t.Fatal("RPO does not start at entry")
	}
	idx := map[*ir.Block]int{} // the test's own bookkeeping: a map, independent of the tables under test
	for i, b := range rpo {
		idx[b] = i
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
	m := lowerSrc(t, diamondSrc)
	if _, err := cfg.Topological(m.Lookup("f")); err != nil {
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
	ir.Connect(b, a)
	if _, err := cfg.Topological(f); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestDominatorsDiamond(t *testing.T) {
	m := lowerSrc(t, diamondSrc)
	f := m.Lookup("f")
	dt := cfg.Dominators(f, cfg.ReversePostorder(f))
	// Entry dominates everything.
	for _, b := range f.Blocks {
		if !dt.Dominates(f.Entry, b) {
			t.Errorf("entry does not dominate %s", b)
		}
	}
	// Find the branch and its successors.
	var branch *ir.Block
	for _, b := range f.Blocks {
		if term := b.Term(); term != nil && term.Op == ir.OpBr {
			branch = b
		}
	}
	if branch == nil {
		t.Fatal("no branch block")
	}
	thenB, elseB := branch.Succs[0], branch.Succs[1]
	if dt.Dominates(thenB, elseB) || dt.Dominates(elseB, thenB) {
		t.Error("branch arms dominate each other")
	}
	// The join is dominated by the branch block, not by either arm.
	join := thenB.Succs[0]
	if dt.Idom(join) != branch {
		t.Errorf("idom(join) = %v, want %v", dt.Idom(join), branch)
	}
}

func TestPostDominators(t *testing.T) {
	m := lowerSrc(t, diamondSrc)
	f := m.Lookup("f")
	pdt := cfg.PostDominators(f)
	for _, b := range f.Blocks {
		if !pdt.Dominates(f.Exit, b) {
			t.Errorf("exit does not post-dominate %s", b)
		}
	}
	var branch *ir.Block
	for _, b := range f.Blocks {
		if term := b.Term(); term != nil && term.Op == ir.OpBr {
			branch = b
		}
	}
	thenB := branch.Succs[0]
	join := thenB.Succs[0]
	// The join post-dominates the branch; the arms do not.
	if !pdt.Dominates(join, branch) {
		t.Error("join does not post-dominate branch")
	}
	if pdt.Dominates(thenB, branch) {
		t.Error("then-arm post-dominates branch")
	}
}

func TestControlDepsDiamond(t *testing.T) {
	m := lowerSrc(t, diamondSrc)
	f := m.Lookup("f")
	pdt := cfg.PostDominators(f)
	cd := cfg.ControlDeps(f, pdt)
	var branch *ir.Block
	for _, b := range f.Blocks {
		if term := b.Term(); term != nil && term.Op == ir.OpBr {
			branch = b
		}
	}
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
	// cfg.CDep.Cond returns the branch condition value.
	if c := cd[thenB.ID][0].Cond(); c == nil || c.Type.Base != "bool" {
		t.Errorf("Cond() = %v", c)
	}
}

func TestControlDepsNested(t *testing.T) {
	m := lowerSrc(t, `
void f(bool a, bool b) {
	if (a) {
		if (b) {
			g();
		}
	}
}`)
	f := m.Lookup("f")
	pdt := cfg.PostDominators(f)
	cd := cfg.ControlDeps(f, pdt)
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
	m := lowerSrc(t, "void f() { g(); h(); }")
	f := m.Lookup("f")
	dt := cfg.Dominators(f, cfg.ReversePostorder(f))
	pdt := cfg.PostDominators(f)
	for _, b := range f.Blocks {
		if b != f.Entry && dt.Idom(b) == nil {
			t.Errorf("%s has no idom", b)
		}
		if b != f.Exit && pdt.Idom(b) == nil {
			t.Errorf("%s has no ipdom", b)
		}
	}
}

// TestQuickDominatorsVsBruteForce validates the iterative dominator
// algorithm against the definition on random acyclic CFGs: a dominates b
// iff every entry→b path passes through a (checked by deleting a and
// testing reachability).
func TestQuickDominatorsVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		f := randomDAGFunc(rng)
		dt := cfg.Dominators(f, cfg.ReversePostorder(f))
		// The brute-force reference uses plain maps on purpose: it shares
		// nothing with the ID-indexed tables it checks.
		reachableWithout := func(skip *ir.Block) map[*ir.Block]bool {
			seen := map[*ir.Block]bool{}
			var dfs func(*ir.Block)
			dfs = func(b *ir.Block) {
				if b == skip || seen[b] {
					return
				}
				seen[b] = true
				for _, s := range b.Succs {
					dfs(s)
				}
			}
			if f.Entry != skip {
				dfs(f.Entry)
			}
			return seen
		}
		for _, a := range f.Blocks {
			without := reachableWithout(a)
			for _, b := range f.Blocks {
				wantDom := a == b || !without[b]
				if got := dt.Dominates(a, b); got != wantDom {
					t.Fatalf("trial %d: Dominates(%s,%s) = %v, want %v\n%s",
						trial, a, b, got, wantDom, f)
				}
			}
		}
		// Post-dominators: the same property on the reversed graph.
		pdt := cfg.PostDominators(f)
		reachesExitWithout := func(skip *ir.Block) map[*ir.Block]bool { // reference, as above
			seen := map[*ir.Block]bool{}
			var dfs func(*ir.Block)
			dfs = func(b *ir.Block) {
				if b == skip || seen[b] {
					return
				}
				seen[b] = true
				for _, p := range b.Preds {
					dfs(p)
				}
			}
			if f.Exit != skip {
				dfs(f.Exit)
			}
			return seen
		}
		for _, a := range f.Blocks {
			without := reachesExitWithout(a)
			for _, b := range f.Blocks {
				wantPDom := a == b || !without[b]
				if got := pdt.Dominates(a, b); got != wantPDom {
					t.Fatalf("trial %d: PostDominates(%s,%s) = %v, want %v\n%s",
						trial, a, b, got, wantPDom, f)
				}
			}
		}
	}
}

// TestQuickDenseTablesVsBruteForce checks the ID-indexed tables against
// their definitions on random acyclic CFGs (which, after pruning, have holes
// in the block ID space): idom(b) is the closest strict dominator.
func TestQuickDenseTablesVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		f := randomDAGFunc(rng)
		dt := cfg.Dominators(f, cfg.ReversePostorder(f))
		for _, a := range f.Blocks {
			if d := dt.Idom(a); a == f.Entry {
				if d != nil {
					t.Fatalf("trial %d: entry has idom %s", trial, d)
				}
			} else {
				// Every other strict dominator of a dominates idom(a).
				if d == nil || d == a || !dt.Dominates(d, a) {
					t.Fatalf("trial %d: idom(%s) = %v is not a strict dominator\n%s", trial, a, d, f)
				}
				for _, x := range f.Blocks {
					if x != a && dt.Dominates(x, a) && !dt.Dominates(x, d) {
						t.Fatalf("trial %d: %s strictly dominates %s but not idom %s\n%s", trial, x, a, d, f)
					}
				}
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
	return f
}
