package seg

import (
	"fmt"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/pta"
	"repro/internal/ssa"
	"repro/internal/wirebin"
)

// A Graph persists as its vertices in creation order — kind, role, value
// ID, instruction ID, operand index — then the edge total and, for every
// vertex that has edges, in ascending vertex order, its position and its
// ordered (target position, condition ID) list; -1 = nil. Creation order is
// load-bearing: detection meets the use vertices of a role in creation
// order (Graph.Uses), so preserving the order preserves report determinism. The lazy happens-after memo restarts empty and the
// intra-block instruction index is rebuilt by the same scan Build uses.

// EncodeGraph appends g to e.
func EncodeGraph(e *wirebin.Writer, g *Graph) {
	e.Uvarint(uint64(g.numNodes))
	sources := 0
	for i := 0; i < g.numNodes; i++ {
		n := g.Node(i)
		e.U8(uint8(n.Kind))
		e.U8(uint8(n.Role))
		val, instr := int32(-1), int32(-1)
		if n.Val != nil {
			val = n.Val.ID
		}
		if n.Instr != nil {
			instr = n.Instr.ID
		}
		e.I32(val)
		e.I32(instr)
		e.I32(n.ArgIdx)
		if len(g.Succs(n)) > 0 {
			sources++
		}
	}
	e.Uvarint(uint64(len(g.edges)))
	e.Uvarint(uint64(sources))
	for i := 0; i < g.numNodes; i++ {
		es := g.Succs(g.Node(i))
		if len(es) == 0 {
			continue
		}
		e.Int(i)
		e.Uvarint(uint64(len(es)))
		for _, ed := range es {
			e.I32(ed.To.idx)
			e.I32(cond.Ref(ed.Cond))
		}
	}
}

// DecodeGraph reads the Graph of f from r. ix and nodes must come from the
// ir and cond sections of the same artifact. Anything a genuine encoding
// cannot contain — dangling ids, a use vertex without an instruction or with
// an operand index its instruction does not have, edge lists out of vertex
// order or not adding up to the total — is rejected: corruption costs a
// rebuild, never a panic.
func DecodeGraph(r *wirebin.Reader, f *ir.Func, inf *ssa.Info, pr *pta.Result, ix *ir.Index, nodes cond.Nodes) (*Graph, error) {
	errorf := func(format string, args ...any) error {
		return r.Errorf("seg: decode %s: %s", f.Name, fmt.Sprintf(format, args...))
	}
	g := newGraph(f, inf, pr)
	nv := r.Len()
	g.nodes = make([]Node, nv)
	g.numNodes = nv
	for i := range g.nodes {
		n := &g.nodes[i]
		n.Kind, n.Role, n.idx = NodeKind(r.U8()), UseRole(r.U8()), int32(i)
		var err error
		if n.Val, err = ix.Value(r.I32()); err != nil {
			return nil, errorf("vertex %d: %v", i, err)
		}
		if n.Instr, err = ix.Instr(r.I32()); err != nil {
			return nil, errorf("vertex %d: %v", i, err)
		}
		argIdx := r.Int()
		switch n.Kind {
		case NValue:
			if n.Val == nil {
				return nil, errorf("value vertex %d without value", i)
			}
			if g.valueAt[n.Val.ID] != 0 {
				return nil, errorf("value vertex %d duplicates the vertex of value %d", i, n.Val.ID)
			}
			// A value vertex has no operand index, but the format has the
			// field: whatever fits it round-trips.
			if int(int32(argIdx)) != argIdx {
				return nil, errorf("value vertex %d has operand index %d", i, argIdx)
			}
			g.valueAt[n.Val.ID] = n.idx + 1
		case NUse:
			if n.Instr == nil || n.Val == nil {
				return nil, errorf("use vertex %d without instruction or value", i)
			}
			if n.Role <= RoleNone || int(n.Role) >= numRoles {
				return nil, errorf("use vertex %d has unknown role %d", i, n.Role)
			}
			if argIdx < 0 || argIdx >= len(n.Instr.Args) {
				return nil, errorf("use vertex %d names operand %d of %d", i, argIdx, len(n.Instr.Args))
			}
		default:
			return nil, errorf("vertex %d has unknown kind %d", i, n.Kind)
		}
		n.ArgIdx = int32(argIdx)
	}
	g.succStart = make([]int32, nv+1)
	total := r.Len()
	g.edges = make([]Edge, 0, total)
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
		g.succStart[from+1] = int32(m)
		for ; m > 0; m-- {
			to := r.Int()
			if to < 0 || to >= nv {
				return nil, errorf("bad edge target %d", to)
			}
			c, err := nodes.At(r.I32())
			if err != nil {
				return nil, errorf("edge of vertex %d: %v", from, err)
			}
			g.edges = append(g.edges, Edge{To: &g.nodes[to], Cond: c})
		}
	}
	if len(g.edges) != total {
		return nil, errorf("%d edges, total says %d", len(g.edges), total)
	}
	for i := 0; i < nv; i++ {
		g.succStart[i+1] += g.succStart[i]
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return g, nil
}
