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

// cfgFacts is what the pass computes. The tables
// are indexed by block ID: rank holds each block's position in order, idom and
// ipdom the positions of its immediate dominator and post-dominator; -1 for
// none.
type cfgFacts struct {
	order             []int32
	rank, idom, ipdom []int32
	err               error
}

// CDep records that a block executes only when the branch terminating block
// Branch, on condition value Cond, takes the edge selected by OnTrue.
type CDep struct {
	Branch, Cond int32
	OnTrue       bool
}

// TopoOrder returns the blocks the entry reaches in reverse postorder of a
// DFS that follows successors in list order: a topological order, or an
// error if the CFG has a cycle. Callers must not mutate the slice.
func (b *Body) TopoOrder() ([]int32, error) {
	c := b.facts()
	return c.order, c.err
}

// Rank returns blk's position in TopoOrder, -1 if the entry does not reach
// it.
func (b *Body) Rank(blk int32) int { return int(b.facts().rank[blk]) }

// Idom returns blk's immediate dominator: -1 for the entry and for blocks the
// entry does not reach. The CFG must be acyclic, as for Ipdom and
// ControlDeps.
func (b *Body) Idom(blk int32) int32 {
	c := b.acyclic()
	return c.at(c.idom[blk])
}

// Ipdom returns blk's immediate post-dominator: -1 for the exit and for
// blocks that do not reach it.
func (b *Body) Ipdom(blk int32) int32 {
	c := b.acyclic()
	return c.at(c.ipdom[blk])
}

// ControlDeps returns the control dependences of every block, indexed by
// block ID: B is control dependent on edge (A→S) iff B post-dominates S but
// does not strictly post-dominate A. Only two-way branches generate
// dependences; jumps are unconditional.
func (b *Body) ControlDeps() [][]CDep {
	c := b.acyclic()
	if b.Exit < 0 {
		panic("ir: function has no exit block")
	}
	// Two walks: the first counts each block's dependences, the second
	// fills them into one array.
	out := make([][]CDep, b.NumBlocks())
	count := make([]int32, b.NumBlocks())
	total := 0
	walk := func(visit func(x int32, d CDep)) {
		for _, a := range b.layout {
			if term := b.Term(a); term >= 0 && b.instrs[term].Op == OpBr {
				// The post-dominator tree path from s up to (but not
				// including) ipdom(a) depends on (a, onTrue).
				cv := b.Args(term)[0]
				for i, s := range b.Succs(a) {
					for x := c.rank[s]; x >= 0 && x != c.ipdom[a]; x = c.ipdom[c.order[x]] {
						visit(c.order[x], CDep{Branch: a, Cond: cv, OnTrue: i == 0})
					}
				}
			}
		}
	}
	walk(func(x int32, _ CDep) { count[x]++; total++ })
	deps := make([]CDep, 0, total)
	for id, n := range count {
		if n > 0 {
			out[id], deps = deps[len(deps):len(deps):len(deps)+int(n)], deps[:len(deps)+int(n)]
		}
	}
	walk(func(x int32, d CDep) { out[x] = append(out[x], d) })
	return out
}

func (b *Body) facts() *cfgFacts {
	if b.cfg == nil {
		b.cfg = new(cfgFacts)
		b.cfg.analyze(b)
	}
	return b.cfg
}

func (b *Body) acyclic() *cfgFacts {
	c := b.facts()
	if c.err != nil {
		panic(c.err)
	}
	return c
}

// at returns the block at position r of the order, -1 for -1.
func (c *cfgFacts) at(r int32) int32 {
	if r < 0 {
		return -1
	}
	return c.order[r]
}

// analyze runs the pass: the DFS from the entry, the cycle check, and the two
// dominator sweeps.
func (c *cfgFacts) analyze(b *Body) {
	n := b.NumBlocks()
	tables := make([]int32, 4*n)
	for i := range tables[:3*n] {
		tables[i] = -1
	}
	*c = cfgFacts{rank: tables[:n:n], idom: tables[n : 2*n : 2*n], ipdom: tables[2*n : 3*n : 3*n]}
	// The DFS fills the order from the back as blocks finish. rank marks the
	// blocks seen until it is set for real.
	order, at := tables[3*n:], n
	var dfs func(blk int32)
	dfs = func(blk int32) {
		c.rank[blk] = 0
		for _, s := range b.Succs(blk) {
			if c.rank[s] < 0 {
				dfs(s)
			}
		}
		at--
		order[at] = blk
	}
	dfs(b.Entry)
	c.order = order[at:]
	for i, blk := range c.order {
		c.rank[blk] = int32(i)
	}
	for _, blk := range c.order {
		for _, s := range b.Succs(blk) {
			if c.rank[s] <= c.rank[blk] {
				c.err = fmt.Errorf("ir: %s has a back edge %s->%s", b.Name(), BlockName(blk), BlockName(s))
				return
			}
		}
	}
	c.immDoms(b, c.idom, b.Entry, false)
	c.immDoms(b, c.ipdom, b.Exit, true)
}

// immDoms fills idom with the position of each block's immediate dominator
// (post: post-dominator) from root, in one sweep over the order (post:
// backward), which reaches a block after every block with an edge into it
// (post: out of it). The dominator is the nearest common ancestor, in the
// tree built so far, of those of them root reaches; the climb to it steps up
// from whichever of two blocks was swept later, as an ancestor is swept
// before its descendants. Root, and the blocks root does not reach (post:
// that do not reach root), keep -1.
func (c *cfgFacts) immDoms(b *Body, idom []int32, root int32, post bool) {
	n := len(c.order)
	for k := range c.order {
		blk := c.order[k]
		in := b.Preds(blk)
		if post {
			blk = c.order[n-1-k]
			in = b.Succs(blk)
		}
		if blk == root {
			continue
		}
		d := int32(-1)
		for _, p := range in {
			r := c.rank[p]
			if r < 0 || p != root && idom[p] < 0 {
				continue
			}
			for d >= 0 && d != r {
				if d < r != post {
					r = idom[c.order[r]]
				} else {
					d = idom[c.order[d]]
				}
			}
			d = r
		}
		idom[blk] = d
	}
}
