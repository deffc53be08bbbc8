package detect

import (
	"repro/internal/ir"
	"repro/internal/seg"
)

// MayFree returns the may-free-parameter relation the Program's caches hold,
// by ir.Func.ID (nil before the first CheckAll, and for a function the
// relation leaves out).
func (p *Program) MayFree() [][]bool { return p.c.frees }

// RoundRobinMayFree computes the whole program's may-free-parameter relation
// the way computeFreesParam did before it read facts: rounds over every called
// function, each round re-enumerating the local flows of the parameters still
// false, until a round changes nothing. It is the oracle the worklist is held
// against, on caches of its own.
func RoundRobinMayFree(prog *Program) [][]bool {
	c := newCaches(prog)
	var n flowCounts
	mayFree := func(callee *ir.Func, argIdx int) bool {
		fr := c.frees[callee.ID]
		return argIdx < len(fr) && fr[argIdx]
	}
	paramMayFree := func(f *ir.Func, g *seg.Graph, p int32) bool {
		for _, fl := range c.flowsFrom(f, g, g.ValueNode(p), &n) {
			term := g.Node(fl.Terminal())
			switch term.Role {
			case seg.RoleFreeArg:
				return true
			case seg.RoleCallArg:
				if callee := prog.Module.Lookup(g.Callee(g.Instr(fl.Terminal()))); callee != nil && mayFree(callee, int(term.ArgIdx)) {
					return true
				}
			}
		}
		return false
	}
	var work []*ir.Func
	for _, f := range prog.Module.Funcs {
		if len(prog.Callers(f)) == 0 {
			continue
		}
		c.frees[f.ID] = make([]bool, len(f.Params))
		if prog.SEG(f) != nil {
			work = append(work, f)
		}
	}
	for changed := len(work) > 0; changed; {
		changed = false
		for _, f := range work {
			g := prog.SEG(f)
			for _, p := range g.Params() {
				if c.frees[f.ID][g.Value(p).ParamIdx()] {
					continue
				}
				if paramMayFree(f, g, p) {
					c.frees[f.ID][g.Value(p).ParamIdx()] = true
					changed = true
				}
			}
		}
	}
	return c.frees
}
