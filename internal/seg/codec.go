package seg

import (
	"fmt"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/wirebin"
)

// A Graph persists as it is held, table by table:
//
//	the body's records and symbols (ir.Body.EncodeRecords)
//	the length of every list, then the lists, in wireParts order
//	the return operand count
//	vertex records in creation order: kind, role, value ID, instruction ID, operand index
//	edges in source order: target vertex, condition ID
//
// The vertices' edge offsets, the blocks' control-dependence conditions and
// reachability rows are lists like the others; the condition builder is
// persisted beside the graph (cond.EncodeBuilder). A graph is final when
// built, so what is written is what Build made, whatever detection did with
// the graph since. Creation order is load-bearing: detection meets the use
// vertices of a role in creation order (vertex IDs ascending), so preserving
// the order preserves report determinism.

// wireParts lists a segment's lists in the order it holds them: the graph's
// own (see body.go), and the body's, which are numbered 0 to ir.NumLists-1
// in the order the wire holds them (refs, wide, order, params, symbol
// offsets).
var wireParts = [...]int{0, pLoads, 1, 2, 3, pCDAt, pCDeps, 4, pAtoms, pInstrIdx, pSuccStart, pCDCond, pReach}

// lists returns g's lists in wireParts order.
func (g *Graph) lists() (out [len(wireParts)][]int32) {
	for i, k := range wireParts {
		out[i] = g.part(k)
	}
	return out
}

// EncodeGraph appends g to e.
func EncodeGraph(e *wirebin.Writer, g *Graph) {
	g.EncodeRecords(e)
	lists := g.lists()
	for _, l := range lists {
		e.Uvarint(uint64(len(l)))
	}
	for _, l := range lists {
		for _, x := range l {
			e.I32(x)
		}
	}
	e.I32(int32(g.RetArgs()))
	e.Uvarint(uint64(len(g.nodes)))
	for i := range g.nodes {
		nd := &g.nodes[i]
		e.U8(uint8(nd.Kind))
		e.U8(uint8(nd.Role))
		e.I32(nd.val)
		e.I32(nd.instr)
		e.I32(nd.ArgIdx)
	}
	e.Uvarint(uint64(len(g.edges)))
	for _, ed := range g.edges {
		e.I32(ed.To)
		e.I32(ed.cond)
	}
}

// wireReader reads the fields of a graph, noting one that its record has no
// room for — a number wider than the field, a flag bit it does not have: a
// content error, not a stream error, so that such an artifact costs itself
// alone.
type wireReader struct {
	*wirebin.Reader
	wide bool
}

func (r *wireReader) i32() int32 {
	v := r.Varint()
	if int64(int32(v)) != v {
		r.wide = true
	}
	return int32(v)
}

// DecodeGraph reads the graph of f, a function shell whose ID spaces it
// checks the graph's against, from r; conds is its condition builder. The
// tables are read as they were written, then checked in one pass
// (Graph.check): every ID, offset and count against the space it indexes,
// and the graph against what Build finishes; it runs no analysis. Anything a
// genuine encoding cannot contain is an error, so corruption costs a
// rebuild, never a panic — neither here nor in detection.
func DecodeGraph(r *wirebin.Reader, f *ir.Func, conds *cond.Builder) (*Graph, error) {
	w := &wireReader{Reader: r}
	body, ok := ir.DecodeRecords(r, w.i32)
	w.wide = !ok
	g := &Graph{Body: body, conds: conds}
	// The lists go into one array, as Build lays them out (ir.Func.Adopt):
	// their offsets, then the lists by number, read where they go. The last,
	// pValueAt, is not on the wire: check fills it.
	var n [pValueAt + 1]int
	sum := 0
	for _, k := range wireParts {
		n[k] = r.Len()
		if sum+n[k] > r.Rest() {
			return nil, r.Errorf("seg: decode: the parts exceed the input")
		}
		sum += n[k]
	}
	n[pValueAt] = body.NumValues()
	ints := make([]int32, len(n)+1+sum+n[pValueAt])
	ints[0] = int32(len(n) + 1)
	for k := range n {
		ints[k+1] = ints[k] + int32(n[k])
	}
	for _, k := range wireParts {
		list := ints[ints[k]:ints[k+1]]
		for j := range list {
			list[j] = w.i32()
		}
	}
	g.SetLists(ints, w.i32())
	g.nodes = make([]Node, r.Len())
	for i := range g.nodes {
		n := &g.nodes[i]
		n.Kind, n.Role, n.val, n.instr, n.ArgIdx = NodeKind(r.U8()), UseRole(r.U8()), w.i32(), w.i32(), w.i32()
	}
	g.edges = make([]Edge, r.Len())
	for i := range g.edges {
		g.edges[i] = Edge{To: w.i32(), cond: w.i32()}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if w.wide {
		return nil, fmt.Errorf("seg: decode: a field wider than its record's")
	}
	if err := g.check(f); err != nil {
		return nil, fmt.Errorf("seg: decode: %w", err)
	}
	conds.Freeze()
	return g, nil
}

// check holds a decoded graph to what Build makes — every ID, offset and
// count inside the space it indexes, the ID spaces those of shell f, every
// value detection can name with its vertex — and indexes the value vertices
// (part pValueAt) on the way. It is what makes every accessor detection
// calls, on any instruction, value, block or vertex the graph holds, safe to
// call; it returns the first violation.
func (g *Graph) check(f *ir.Func) error {
	ni, nv, nc := int32(g.NumInstrs()), int32(g.NumValues()), int32(g.conds.NumNodes())
	within := func(x, n int32) bool { return x >= 0 && x < n }
	cdAt := g.part(pCDAt)
	nb := int32(len(cdAt) - 1)
	switch {
	case int(ni) != f.NumInstrs() || int(nv) != f.NumValues() || int(nb) != f.NumBlocks():
		return fmt.Errorf("%d instructions, %d values, %d blocks: not the function's", ni, nv, nb)
	case !ir.ValidOffsets(cdAt, len(g.part(pCDeps))):
		return fmt.Errorf("bad block offsets")
	case len(g.part(pInstrIdx)) != int(ni):
		return fmt.Errorf("%d intra-block positions for %d instructions", len(g.part(pInstrIdx)), ni)
	case len(g.part(pCDCond)) != int(nb):
		return fmt.Errorf("%d control-dependence conditions for %d blocks", len(g.part(pCDCond)), nb)
	case len(g.part(pReach)) != int(nb*reachWords(nb)):
		return fmt.Errorf("%d reachability words for %d blocks", len(g.part(pReach)), nb)
	}
	if err := g.CheckWire(nb, nc); err != nil {
		return err
	}
	for _, o := range cdAt {
		if o%3 != 0 {
			return fmt.Errorf("control-dependence offset %d splits a triple", o)
		}
	}
	for _, c := range g.part(pCDCond) {
		if !within(c, nc) {
			return fmt.Errorf("bad control-dependence cond id %d", c)
		}
	}
	for cd := g.part(pCDeps); len(cd) > 0; cd = cd[3:] {
		if !within(cd[0], nb) || !g.HoldsValue(cd[1]) || cd[2]&^1 != 0 {
			return fmt.Errorf("bad control dependence (%d, %d, %d)", cd[0], cd[1], cd[2])
		}
	}
	for i, a := range g.part(pAtoms) {
		if !g.HoldsValue(a) || i > 0 && a <= g.part(pAtoms)[i-1] {
			return fmt.Errorf("bad atom value id %d", a)
		}
	}
	loads := g.part(pLoads)
	for in := int32(0); in < ni; in++ {
		if !g.HoldsInstr(in) || g.In(in).Op != ir.OpLoad {
			continue
		}
		at := g.LoadSlot(in)
		if !within(at, int32(len(loads))) {
			return fmt.Errorf("instr %d: sources past the loads", in)
		}
		if n := loads[at]; n < 0 || int(n) > (len(loads)-int(at)-1)/2 {
			return fmt.Errorf("instr %d: %d sources past the loads", in, n)
		}
		srcs := g.LoadSources(in)
		for i := 0; i < len(srcs); i += 2 {
			if !g.HoldsValue(srcs[i]) || !within(srcs[i+1], nc) {
				return fmt.Errorf("instr %d: bad load source (%d, cond %d)", in, srcs[i], srcs[i+1])
			}
		}
	}

	nn := int32(len(g.nodes))
	valueAt := make([]int32, nv)
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.val != -1 && !g.HoldsValue(n.val) {
			return fmt.Errorf("vertex %d: bad value id %d", i, n.val)
		}
		if n.instr != -1 && !g.HoldsInstr(n.instr) {
			return fmt.Errorf("vertex %d: bad instr id %d", i, n.instr)
		}
		switch n.Kind {
		case NValue:
			if n.val == -1 {
				return fmt.Errorf("value vertex %d without value", i)
			}
			if valueAt[n.val] != 0 {
				return fmt.Errorf("value vertex %d duplicates the vertex of value %d", i, n.val)
			}
			valueAt[n.val] = int32(i) + 1
		case NUse:
			if n.instr == -1 || n.val == -1 {
				return fmt.Errorf("use vertex %d without instruction or value", i)
			}
			if n.Role <= RoleNone || int(n.Role) >= numRoles {
				return fmt.Errorf("use vertex %d has unknown role %d", i, n.Role)
			}
			if !within(n.ArgIdx, int32(len(g.Args(n.instr)))) {
				return fmt.Errorf("use vertex %d names operand %d of %d", i, n.ArgIdx, len(g.Args(n.instr)))
			}
		default:
			return fmt.Errorf("vertex %d has unknown kind %d", i, n.Kind)
		}
	}
	copy(g.part(pValueAt), valueAt)
	succStart := g.part(pSuccStart)
	if len(succStart) != int(nn)+1 || !ir.ValidOffsets(succStart, len(g.edges)) {
		return fmt.Errorf("edge offsets of %d vertices do not add up to %d edges", len(succStart)-1, len(g.edges))
	}
	for _, e := range g.edges {
		if !within(e.To, nn) {
			return fmt.Errorf("bad edge target %d", e.To)
		}
		if !within(e.cond, nc) {
			return fmt.Errorf("bad edge cond id %d", e.cond)
		}
	}
	// Detection creates no vertex, so it must find every one it names here.
	vertex := func(v int32) bool { return v < 0 || valueAt[v] != 0 }
	for _, p := range g.Params() {
		if !vertex(p) {
			return fmt.Errorf("parameter %d has no vertex", p)
		}
	}
	for _, in := range g.Order() {
		if d := g.In(in).Dst; !vertex(d) {
			return fmt.Errorf("instr %d: Dst %d has no vertex", in, d)
		}
		for _, a := range g.Args(in) {
			if !vertex(a) {
				return fmt.Errorf("instr %d: operand %d has no vertex", in, a)
			}
		}
		for _, d := range g.Dsts(in) {
			if !vertex(d) {
				return fmt.Errorf("instr %d: receiver %d has no vertex", in, d)
			}
		}
	}
	return nil
}
