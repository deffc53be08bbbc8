package seg

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/pta"
	"repro/internal/ssa"
	"repro/internal/wirebin"
)

// A Graph persists as its vertex records in creation order — kind, role,
// value ID, instruction ID, operand index — then the edge total and, for
// every vertex that has edges, in ascending vertex order, its ID and its
// ordered (target ID, condition ID) list; -1 = nil. Creation order is
// load-bearing: detection meets the use vertices of a role in creation order
// (vertex IDs ascending), so preserving the order preserves report
// determinism. The lazy happens-after memo restarts empty and the
// intra-block instruction index is rebuilt by the same scan Build uses.

// EncodeGraph appends g to e.
func EncodeGraph(e *wirebin.Writer, g *Graph) {
	e.Uvarint(uint64(g.numNodes))
	sources := 0
	for n := int32(0); int(n) < g.numNodes; n++ {
		nd := g.node(n)
		e.U8(uint8(nd.Kind))
		e.U8(uint8(nd.Role))
		e.I32(nd.val)
		e.I32(nd.instr)
		e.I32(nd.ArgIdx)
		if len(g.Succs(n)) > 0 {
			sources++
		}
	}
	e.Uvarint(uint64(len(g.edges)))
	e.Uvarint(uint64(sources))
	for n := int32(0); int(n) < g.numNodes; n++ {
		es := g.Succs(n)
		if len(es) == 0 {
			continue
		}
		e.I32(n)
		e.Uvarint(uint64(len(es)))
		for _, ed := range es {
			e.I32(ed.To)
			e.I32(ed.cond)
		}
	}
}

// DecodeGraph reads the Graph of f from r, its vertex and edge records
// straight as they are written: every ID is checked against the space it
// names — f's values and instructions, the graph's vertices, the conditions
// of inf's Builder. Anything a genuine encoding cannot contain — dangling
// ids, a use vertex without an instruction or with an operand index its
// instruction does not have, edge lists out of vertex order or not adding up
// to the total — is rejected: corruption costs a rebuild, never a panic.
func DecodeGraph(r *wirebin.Reader, f *ir.Func, inf *ssa.Info, pr *pta.Result) (*Graph, error) {
	errorf := func(format string, args ...any) error {
		return r.Errorf("seg: decode %s: %s", f.Name, fmt.Sprintf(format, args...))
	}
	nv := r.Len()
	g := newGraph(f, inf, pr, nv)
	for i := range g.nodes {
		n := &g.nodes[i]
		n.Kind, n.Role, n.val, n.instr = NodeKind(r.U8()), UseRole(r.U8()), r.I32(), r.I32()
		val, instr := f.Value(n.val), f.Instr(n.instr)
		if val == nil && n.val != -1 {
			return nil, errorf("vertex %d: bad value id %d", i, n.val)
		}
		if instr == nil && n.instr != -1 {
			return nil, errorf("vertex %d: bad instr id %d", i, n.instr)
		}
		argIdx := r.Int()
		switch n.Kind {
		case NValue:
			if val == nil {
				return nil, errorf("value vertex %d without value", i)
			}
			if g.valueAt[n.val] != 0 {
				return nil, errorf("value vertex %d duplicates the vertex of value %d", i, n.val)
			}
			// A value vertex has no operand index, but the format has the
			// field: whatever fits it round-trips.
			if int(int32(argIdx)) != argIdx {
				return nil, errorf("value vertex %d has operand index %d", i, argIdx)
			}
			g.valueAt[n.val] = int32(i) + 1
		case NUse:
			if instr == nil || val == nil {
				return nil, errorf("use vertex %d without instruction or value", i)
			}
			if n.Role <= RoleNone || int(n.Role) >= numRoles {
				return nil, errorf("use vertex %d has unknown role %d", i, n.Role)
			}
			if argIdx < 0 || argIdx >= len(instr.Args) {
				return nil, errorf("use vertex %d names operand %d of %d", i, argIdx, len(instr.Args))
			}
		default:
			return nil, errorf("vertex %d has unknown kind %d", i, n.Kind)
		}
		n.ArgIdx = int32(argIdx)
	}
	total := r.Len()
	g.edges = make([]Edge, 0, total)
	succStart := g.part(pSuccStart)
	conds := inf.Conds.NumNodes()
	last := -1
	for sources := r.Len(); sources > 0; sources-- {
		from := r.Int()
		if from <= last || from >= nv {
			return nil, errorf("bad edge source %d", from)
		}
		last = from
		m := r.Len()
		if len(g.edges)+m > total {
			return nil, errorf("more edges than the total %d", total)
		}
		succStart[from+1] = int32(m)
		for ; m > 0; m-- {
			e := Edge{To: r.I32(), cond: r.I32()}
			if e.To < 0 || int(e.To) >= nv {
				return nil, errorf("bad edge target %d", e.To)
			}
			if e.cond < 0 || int(e.cond) >= conds {
				return nil, errorf("edge of vertex %d: bad cond id %d", from, e.cond)
			}
			g.edges = append(g.edges, e)
		}
	}
	if len(g.edges) != total {
		return nil, errorf("%d edges, total says %d", len(g.edges), total)
	}
	for i := 0; i < nv; i++ {
		succStart[i+1] += succStart[i]
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return g, nil
}
