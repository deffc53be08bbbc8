package seg

import (
	"fmt"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/pta"
	"repro/internal/ssa"
	"repro/internal/wirebin"
)

// Wire form of a Graph for the persistent artifact store. Vertices are
// serialized in creation order and referenced by position; values,
// instructions, and conditions by their dense per-function IDs. Creation
// order is load-bearing: ByRole index order equals vertex creation order,
// and detection iterates ByRole, so preserving the order preserves report
// determinism. The lazy happens-after memo restarts empty and the
// intra-block instruction index is rebuilt by the same scan Build uses.

// SEGNodeWire is the serialized form of one Node.
type SEGNodeWire struct {
	Kind   NodeKind
	Role   UseRole
	Val    int32
	Instr  int32
	ArgIdx int32
}

// SEGEdgeWire is one outgoing edge.
type SEGEdgeWire struct {
	To   int32 // node position
	Cond int32
}

// SEGSuccWire is one vertex's ordered edge list.
type SEGSuccWire struct {
	From  int32 // node position
	Edges []SEGEdgeWire
}

// GraphWire is the serialized form of a Graph (minus Fn/Info/PTA, which
// are re-attached at import).
type GraphWire struct {
	Nodes []SEGNodeWire
	Succs []SEGSuccWire
}

// ExportGraph flattens g into wire form.
func ExportGraph(g *Graph) *GraphWire {
	w := &GraphWire{Nodes: make([]SEGNodeWire, len(g.nodes))}
	for i, n := range g.nodes {
		nw := SEGNodeWire{Kind: n.Kind, Role: n.Role, Val: -1, Instr: -1, ArgIdx: int32(n.ArgIdx)}
		if n.Val != nil {
			nw.Val = int32(n.Val.ID)
		}
		if n.Instr != nil {
			nw.Instr = int32(n.Instr.ID)
		}
		w.Nodes[i] = nw
	}
	for i, n := range g.nodes {
		es := g.Succs(n)
		if len(es) == 0 {
			continue
		}
		sw := SEGSuccWire{From: int32(i), Edges: make([]SEGEdgeWire, len(es))}
		for j, e := range es {
			ew := SEGEdgeWire{To: e.To.idx, Cond: -1}
			if e.Cond != nil {
				ew.Cond = int32(e.Cond.ID())
			}
			sw.Edges[j] = ew
		}
		w.Succs = append(w.Succs, sw)
	}
	return w
}

// ImportGraph rebuilds a Graph for f from wire form. ix and nodes must be
// the companion ir/cond imports of the same artifact. Anything a genuine
// export cannot contain — dangling ids, a use vertex without an instruction
// or with an operand index its instruction does not have, edge lists out of
// vertex order — is rejected: corruption costs a rebuild, never a panic.
func ImportGraph(w *GraphWire, f *ir.Func, inf *ssa.Info, pr *pta.Result, ix *ir.Index, nodes []*cond.Cond) (*Graph, error) {
	g := newGraph(f, inf, pr)
	g.nodes = make([]*Node, 0, len(w.Nodes))
	g.slab = make([]Node, 0, len(w.Nodes))
	for i, nw := range w.Nodes {
		n := Node{Kind: nw.Kind, Role: nw.Role, ArgIdx: int(nw.ArgIdx)}
		if nw.Val != -1 {
			if nw.Val < 0 || int(nw.Val) >= len(ix.Values) || ix.Values[nw.Val] == nil {
				return nil, fmt.Errorf("seg: import %s: bad value id %d", f.Name, nw.Val)
			}
			n.Val = ix.Values[nw.Val]
		}
		if nw.Instr != -1 {
			if nw.Instr < 0 || int(nw.Instr) >= len(ix.Instrs) || ix.Instrs[nw.Instr] == nil {
				return nil, fmt.Errorf("seg: import %s: bad instr id %d", f.Name, nw.Instr)
			}
			n.Instr = ix.Instrs[nw.Instr]
		}
		switch n.Kind {
		case NValue:
			if n.Val == nil {
				return nil, fmt.Errorf("seg: import %s: value vertex %d without value", f.Name, i)
			}
			g.valueAt[n.Val.ID] = g.newNode(n).idx + 1
		case NUse:
			if n.Instr == nil || n.Val == nil {
				return nil, fmt.Errorf("seg: import %s: use vertex %d without instruction or value", f.Name, i)
			}
			if n.Role <= RoleNone || int(n.Role) >= numRoles {
				return nil, fmt.Errorf("seg: import %s: use vertex %d has unknown role %d", f.Name, i, n.Role)
			}
			if n.ArgIdx < 0 || n.ArgIdx >= len(n.Instr.Args) {
				return nil, fmt.Errorf("seg: import %s: use vertex %d names operand %d of %d", f.Name, i, n.ArgIdx, len(n.Instr.Args))
			}
			g.linkUse(g.newNode(n))
		default:
			return nil, fmt.Errorf("seg: import %s: vertex %d has unknown kind %d", f.Name, i, n.Kind)
		}
	}
	g.succStart = make([]int32, len(g.nodes)+1)
	total, last := 0, int32(-1)
	for _, sw := range w.Succs {
		if sw.From <= last || int(sw.From) >= len(g.nodes) {
			return nil, fmt.Errorf("seg: import %s: bad edge source %d", f.Name, sw.From)
		}
		last = sw.From
		g.succStart[sw.From+1] = int32(len(sw.Edges))
		total += len(sw.Edges)
	}
	for i := range g.nodes {
		g.succStart[i+1] += g.succStart[i]
	}
	g.edges = make([]Edge, 0, total)
	for _, sw := range w.Succs {
		for _, ew := range sw.Edges {
			if ew.To < 0 || int(ew.To) >= len(g.nodes) {
				return nil, fmt.Errorf("seg: import %s: bad edge target %d", f.Name, ew.To)
			}
			var c *cond.Cond
			if ew.Cond != -1 {
				if ew.Cond < 0 || int(ew.Cond) >= len(nodes) {
					return nil, fmt.Errorf("seg: import %s: bad edge cond %d", f.Name, ew.Cond)
				}
				c = nodes[ew.Cond]
			}
			g.edges = append(g.edges, Edge{To: g.nodes[ew.To], Cond: c})
		}
	}
	return g, nil
}

// AppendWire appends w's binary encoding to e.
func (w *GraphWire) AppendWire(e *wirebin.Writer) {
	e.Uvarint(uint64(len(w.Nodes)))
	for i := range w.Nodes {
		nw := &w.Nodes[i]
		e.U8(uint8(nw.Kind))
		e.U8(uint8(nw.Role))
		e.I32(nw.Val)
		e.I32(nw.Instr)
		e.I32(nw.ArgIdx)
	}
	e.Uvarint(uint64(len(w.Succs)))
	for i := range w.Succs {
		sw := &w.Succs[i]
		e.I32(sw.From)
		e.Uvarint(uint64(len(sw.Edges)))
		for j := range sw.Edges {
			e.I32(sw.Edges[j].To)
			e.I32(sw.Edges[j].Cond)
		}
	}
}

// DecodeGraphWire reads one GraphWire from r.
func DecodeGraphWire(r *wirebin.Reader) (*GraphWire, error) {
	w := &GraphWire{}
	if n := r.Len(); n > 0 {
		w.Nodes = make([]SEGNodeWire, n)
		for i := range w.Nodes {
			w.Nodes[i] = SEGNodeWire{
				Kind: NodeKind(r.U8()), Role: UseRole(r.U8()),
				Val: r.I32(), Instr: r.I32(), ArgIdx: r.I32(),
			}
		}
	}
	if n := r.Len(); n > 0 {
		w.Succs = make([]SEGSuccWire, n)
		for i := range w.Succs {
			sw := &w.Succs[i]
			sw.From = r.I32()
			if m := r.Len(); m > 0 {
				sw.Edges = make([]SEGEdgeWire, m)
				for j := range sw.Edges {
					sw.Edges[j] = SEGEdgeWire{To: r.I32(), Cond: r.I32()}
				}
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("seg: decode graph wire: %w", err)
	}
	return w, nil
}
