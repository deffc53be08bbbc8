package ir

import "fmt"

// The control-flow facts of a function: the block order, the dominator and
// post-dominator trees, and control dependence (Ferrante–Ottenstein–Warren),
// which the SEG encodes as Lc-labeled edges (Pinpoint Definition 3.2). They
// are computed in one pass, by SealCFG or when first asked for, and kept until
// SealCFG runs again or ReleaseBody drops them: a CFG changed in between must
// be sealed again. Lowered CFGs are acyclic (loops are unrolled), so one
// sweep in topological order yields the exact immediate dominators, every
// predecessor being done before its block, and one sweep in the reverse order
// the immediate post-dominators.

// cfgFacts is what the pass computes; rank is nil until it has run. The tables
// are indexed by Block.ID and sized by NumBlocks: rank holds each block's
// position in order, idom and ipdom the positions of its immediate dominator
// and post-dominator; -1 for none.
type cfgFacts struct {
	order             []*Block
	rank, idom, ipdom []int32
	err               error
}

// CDep records that a block executes only when the branch terminating
// Branch takes the edge selected by OnTrue. The branch condition value is
// Branch.Term().Args[0].
type CDep struct {
	Branch *Block
	OnTrue bool
}

// Cond returns the SSA value of the controlling branch condition.
func (c CDep) Cond() *Value { return c.Branch.Term().Args[0] }

// Order returns the blocks the entry reaches in reverse postorder of a DFS
// that follows successors in list order: a topological order, or an error if
// the CFG has a cycle. Callers must not mutate the slice.
func (f *Func) Order() ([]*Block, error) {
	c := f.facts()
	return c.order, c.err
}

// Rank returns b's position in Order, -1 if the entry does not reach b.
func (f *Func) Rank(b *Block) int { return int(f.facts().rank[b.ID]) }

// Idom returns b's immediate dominator: nil for the entry and for blocks the
// entry does not reach. The CFG must be acyclic, as for Ipdom and
// ControlDeps.
func (f *Func) Idom(b *Block) *Block { return f.acyclic().at(f.build.cfg.idom[b.ID]) }

// Ipdom returns b's immediate post-dominator: nil for the exit and for blocks
// that do not reach it.
func (f *Func) Ipdom(b *Block) *Block { return f.acyclic().at(f.build.cfg.ipdom[b.ID]) }

// ControlDeps returns the control dependences of every block, indexed by
// Block.ID: B is control dependent on edge (A→S) iff B post-dominates S but
// does not strictly post-dominate A. Only two-way branches generate
// dependences; jumps are unconditional.
func (f *Func) ControlDeps() [][]CDep {
	c := f.acyclic()
	if f.Exit == nil {
		panic("ir: function has no exit block")
	}
	// Two walks: the first counts each block's dependences, the second
	// fills them into one array.
	out := make([][]CDep, f.NumBlocks())
	count := make([]int32, f.NumBlocks())
	total := 0
	walk := func(visit func(x *Block, d CDep)) {
		for _, a := range f.Blocks {
			if term := a.Term(); term != nil && term.Op == OpBr {
				// The post-dominator tree path from s up to (but not
				// including) ipdom(a) depends on (a, onTrue).
				for i, s := range term.Blocks() {
					for x := c.rank[s.ID]; x >= 0 && x != c.ipdom[a.ID]; x = c.ipdom[c.order[x].ID] {
						visit(c.order[x], CDep{Branch: a, OnTrue: i == 0})
					}
				}
			}
		}
	}
	walk(func(x *Block, _ CDep) { count[x.ID]++; total++ })
	deps := make([]CDep, 0, total)
	for id, n := range count {
		if n > 0 {
			out[id], deps = deps[len(deps):len(deps):len(deps)+int(n)], deps[:len(deps)+int(n)]
		}
	}
	walk(func(x *Block, d CDep) { out[x.ID] = append(out[x.ID], d) })
	return out
}

func (f *Func) facts() *cfgFacts {
	c := &f.alloc().cfg
	if c.rank == nil {
		c.analyze(f)
	}
	return c
}

func (f *Func) acyclic() *cfgFacts {
	c := f.facts()
	if c.err != nil {
		panic(c.err)
	}
	return c
}

// at returns the block at position r of the order, nil for -1.
func (c *cfgFacts) at(r int32) *Block {
	if r < 0 {
		return nil
	}
	return c.order[r]
}

// analyze runs the pass: the DFS from the entry, the cycle check, and the two
// dominator sweeps.
func (c *cfgFacts) analyze(f *Func) {
	n := f.NumBlocks()
	tables := make([]int32, 3*n)
	for i := range tables {
		tables[i] = -1
	}
	*c = cfgFacts{rank: tables[:n:n], idom: tables[n : 2*n : 2*n], ipdom: tables[2*n:]}
	// The DFS fills the order from the back as blocks finish. rank marks the
	// blocks seen until it is set for real.
	order, at := make([]*Block, n), n
	var dfs func(b *Block)
	dfs = func(b *Block) {
		c.rank[b.ID] = 0
		for _, s := range b.Succs {
			if c.rank[s.ID] < 0 {
				dfs(s)
			}
		}
		at--
		order[at] = b
	}
	dfs(f.Entry)
	c.order = order[at:]
	for i, b := range c.order {
		c.rank[b.ID] = int32(i)
	}
	for _, b := range c.order {
		for _, s := range b.Succs {
			if c.rank[s.ID] <= c.rank[b.ID] {
				c.err = fmt.Errorf("ir: %s has a back edge %s->%s", f.Name, b, s)
				return
			}
		}
	}
	c.immDoms(c.idom, f.Entry, false)
	c.immDoms(c.ipdom, f.Exit, true)
}

// immDoms fills idom with the position of each block's immediate dominator
// (post: post-dominator) from root, in one sweep over the order (post:
// backward), which reaches a block after every block with an edge into it
// (post: out of it). The dominator is the nearest common ancestor, in the
// tree built so far, of those of them root reaches; the climb to it steps up
// from whichever of two blocks was swept later, as an ancestor is swept
// before its descendants. Root, and the blocks root does not reach (post:
// that do not reach root), keep -1.
func (c *cfgFacts) immDoms(idom []int32, root *Block, post bool) {
	n := len(c.order)
	for k := range c.order {
		b, in := c.order[k], c.order[k].Preds
		if post {
			b = c.order[n-1-k]
			in = b.Succs
		}
		if b == root {
			continue
		}
		d := int32(-1)
		for _, p := range in {
			r := c.rank[p.ID]
			if r < 0 || p != root && idom[p.ID] < 0 {
				continue
			}
			for d >= 0 && d != r {
				if d < r != post {
					r = idom[c.order[r].ID]
				} else {
					d = idom[c.order[d].ID]
				}
			}
			d = r
		}
		idom[b.ID] = d
	}
}
