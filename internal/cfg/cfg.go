// Package cfg provides control-flow-graph analyses over IR functions:
// reverse postorder, dominators and post-dominators (Cooper–Harvey–Kennedy),
// and control dependence (Ferrante–Ottenstein–Warren), which the SEG encodes
// as Lc-labeled edges (Pinpoint Definition 3.2). Lowering numbers SSA values
// in dominator-tree preorder; the gate pass reads idom and the topological
// order.
//
// Every per-block fact is a slice indexed by Block.ID and sized by
// Func.NumBlocks: block IDs are dense per function, so the ID is the key and
// no pointer-keyed map is needed. Blocks pruned after creation leave unused
// slots.
package cfg

import (
	"fmt"

	"repro/internal/ir"
)

// ReversePostorder returns the blocks of f in reverse postorder of a DFS
// from the entry.
func ReversePostorder(f *ir.Func) []*ir.Block {
	return reversePostorder(f.Entry, f.NumBlocks(), false)
}

// reversePostorder runs the DFS from root along successor edges (or, with
// backward set, predecessor edges), visiting edges in list order exactly as
// the recursive formulation would.
func reversePostorder(root *ir.Block, numBlocks int, backward bool) []*ir.Block {
	type visit struct {
		b    *ir.Block
		next int
	}
	seen := make([]bool, numBlocks)
	post := make([]*ir.Block, 0, numBlocks)
	stack := make([]visit, 1, 16)
	stack[0] = visit{b: root}
	seen[root.ID] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		out := top.b.Succs
		if backward {
			out = top.b.Preds
		}
		if top.next == len(out) {
			post = append(post, top.b)
			stack = stack[:len(stack)-1]
			continue
		}
		s := out[top.next]
		top.next++
		if !seen[s.ID] {
			seen[s.ID] = true
			stack = append(stack, visit{b: s})
		}
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Topological returns a topological order of an acyclic CFG, or an error if
// the CFG has a cycle. The analysis pipeline guarantees acyclic CFGs (loops
// are unrolled during lowering); passes that rely on that call this to fail
// loudly if the invariant breaks.
func Topological(f *ir.Func) ([]*ir.Block, error) {
	order := ReversePostorder(f)
	idx := make([]int32, f.NumBlocks())
	for i, b := range order {
		idx[b.ID] = int32(i)
	}
	for _, b := range order {
		for _, s := range b.Succs {
			if idx[s.ID] <= idx[b.ID] {
				return nil, fmt.Errorf("cfg: %s has a back edge %s->%s", f.Name, b, s)
			}
		}
	}
	return order, nil
}

// DomTree is a dominator (or post-dominator) tree. It is immutable once
// built, so detection workers may read it concurrently.
type DomTree struct {
	// Root is the tree root: the entry for dominators, the exit for
	// post-dominators.
	Root *ir.Block
	// idom holds each block's immediate (post-)dominator by Block.ID; nil
	// for the root and for blocks unreachable from it.
	idom []*ir.Block
}

// Idom returns b's immediate (post-)dominator: nil for the root and for
// blocks the tree does not reach.
func (t *DomTree) Idom(b *ir.Block) *ir.Block { return t.idom[b.ID] }

// Dominates reports whether a dominates b (reflexively).
func (t *DomTree) Dominates(a, b *ir.Block) bool {
	for x := b; x != nil; x = t.idom[x.ID] {
		if x == a {
			return true
		}
	}
	return false
}

// Dominators computes the dominator tree of f, whose reverse postorder (or
// Topological order) is rpo.
func Dominators(f *ir.Func, rpo []*ir.Block) *DomTree {
	return buildDomTree(f.Entry, f.NumBlocks(), rpo, false)
}

// PostDominators computes the post-dominator tree of f, rooted at the unique
// exit block.
func PostDominators(f *ir.Func) *DomTree {
	if f.Exit == nil {
		panic("cfg: function has no exit block")
	}
	return buildDomTree(f.Exit, f.NumBlocks(), reversePostorder(f.Exit, f.NumBlocks(), true), true)
}

// buildDomTree runs the Cooper–Harvey–Kennedy iterative algorithm from root
// over the CFG (backward: over the reversed CFG), whose reverse postorder
// from root is rpo.
func buildDomTree(root *ir.Block, numBlocks int, rpo []*ir.Block, backward bool) *DomTree {
	// order is each block's RPO position, -1 for blocks unreachable from
	// root in this direction.
	order := make([]int32, numBlocks)
	for i := range order {
		order[i] = -1
	}
	for i, b := range rpo {
		order[b.ID] = int32(i)
	}

	idom := make([]*ir.Block, numBlocks)
	idom[root.ID] = root
	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for order[a.ID] > order[b.ID] {
				a = idom[a.ID]
			}
			for order[b.ID] > order[a.ID] {
				b = idom[b.ID]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			toward := b.Preds
			if backward {
				toward = b.Succs
			}
			var newIdom *ir.Block
			for _, p := range toward {
				if order[p.ID] < 0 || idom[p.ID] == nil {
					continue // unreachable, or not processed yet
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && idom[b.ID] != newIdom {
				idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	idom[root.ID] = nil
	return &DomTree{Root: root, idom: idom}
}

// CDep records that a block executes only when the branch terminating
// Branch takes the edge selected by OnTrue. The branch condition value is
// Branch.Term().Args[0].
type CDep struct {
	Branch *ir.Block
	OnTrue bool
}

// Cond returns the SSA value of the controlling branch condition.
func (c CDep) Cond() *ir.Value { return c.Branch.Term().Args[0] }

// ControlDeps computes the control dependences of every block, indexed by
// Block.ID, using post-dominance (Ferrante–Ottenstein–Warren): B is control
// dependent on edge (A→S) iff B post-dominates S but does not post-dominate
// A. Only two-way branches generate dependences; jumps are unconditional.
func ControlDeps(f *ir.Func, pdt *DomTree) [][]CDep {
	// Two walks: the first counts each block's dependences, the second
	// fills them into one array.
	out := make([][]CDep, f.NumBlocks())
	count := make([]int32, f.NumBlocks())
	total := 0
	walk := func(visit func(x *ir.Block, d CDep)) {
		for _, a := range f.Blocks {
			term := a.Term()
			if term == nil || term.Op != ir.OpBr {
				continue
			}
			for i, s := range term.Blocks() {
				// Walk the post-dominator tree from s up to (but not
				// including) ipdom(a); every node visited is control
				// dependent on (a, onTrue).
				stop := pdt.idom[a.ID]
				for x := s; x != nil && x != stop; x = pdt.idom[x.ID] {
					visit(x, CDep{Branch: a, OnTrue: i == 0})
					if x == pdt.Root {
						break
					}
				}
			}
		}
	}
	walk(func(x *ir.Block, _ CDep) { count[x.ID]++; total++ })
	deps := make([]CDep, 0, total)
	for id, n := range count {
		if n > 0 {
			out[id], deps = deps[len(deps):len(deps):len(deps)+int(n)], deps[:len(deps)+int(n)]
		}
	}
	walk(func(x *ir.Block, d CDep) { out[x.ID] = append(out[x.ID], d) })
	return out
}
