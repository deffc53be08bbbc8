package seg

import (
	"fmt"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/wirebin"
)

// A Graph persists as it is held, table by table (see body.go):
//
//	instruction records by ID: line, column, block, Dst, sub, refs, operand count, op, flags
//	value records by ID: Def, name, num, kind, flag bits
//	the symbols, end to end
//	the length of every part, then the int32 array
//	the return operand count
//	vertex records in creation order: kind, role, value ID, instruction ID, operand index
//	edges in source order: target vertex, condition ID
//
// The vertices' edge offsets, the blocks' control-dependence conditions and
// reachability rows are parts like the others; the condition builder is
// persisted beside the graph (cond.EncodeBuilder). A graph is final when
// built, so what is written is what Build made, whatever detection did with
// the graph since. Creation order is load-bearing: detection meets the use
// vertices of a role in creation order (vertex IDs ascending), so preserving
// the order preserves report determinism.

// Value flag bits on the wire.
const (
	wireBoolVal = 1 << iota
	wireWide
	wireBool
)

// EncodeGraph appends g to e.
func EncodeGraph(e *wirebin.Writer, g *Graph) {
	e.Uvarint(uint64(len(g.instrs)))
	for i := range g.instrs {
		r := &g.instrs[i]
		e.I32(r.Loc.Line)
		e.I32(r.Loc.Col)
		e.I32(r.Block)
		e.I32(r.Dst)
		e.I32(r.sub)
		e.I32(r.refs)
		e.Uvarint(uint64(r.nArgs))
		e.U8(uint8(r.Op))
		e.U8(r.flags)
	}
	e.Uvarint(uint64(len(g.values)))
	for i := range g.values {
		v := &g.values[i]
		e.I32(v.Def)
		e.I32(v.name)
		e.I32(v.num)
		e.U8(uint8(v.Kind))
		var bits uint8
		if v.BoolVal {
			bits |= wireBoolVal
		}
		if v.wide {
			bits |= wireWide
		}
		if v.Bool {
			bits |= wireBool
		}
		e.U8(bits)
	}
	e.Str(g.syms)
	for k := 0; k < numParts; k++ {
		e.Uvarint(uint64(g.at[k+1] - g.at[k]))
	}
	for _, x := range g.ints {
		e.I32(x)
	}
	e.I32(g.retArgs)
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
	g := &Graph{}
	g.conds = conds
	g.instrs = make([]Instr, r.Len())
	for i := range g.instrs {
		in := &g.instrs[i]
		in.Loc = ir.Loc{Line: w.i32(), Col: w.i32()}
		in.Block, in.Dst, in.sub, in.refs = w.i32(), w.i32(), w.i32(), w.i32()
		n := r.Uvarint()
		in.nArgs, in.Op, in.flags = uint16(n), ir.Op(r.U8()), r.U8()
		w.wide = w.wide || uint64(in.nArgs) != n
	}
	g.values = make([]Value, r.Len())
	for i := range g.values {
		v := &g.values[i]
		v.Def, v.name, v.num, v.Kind = w.i32(), w.i32(), w.i32(), ir.ValueKind(r.U8())
		bits := r.U8()
		v.BoolVal, v.wide, v.Bool = bits&wireBoolVal != 0, bits&wireWide != 0, bits&wireBool != 0
		w.wide = w.wide || bits&^(wireBoolVal|wireWide|wireBool) != 0 // no room for it either
	}
	g.syms = r.Str()
	for k := 0; k < numParts; k++ {
		g.at[k+1] = g.at[k] + int32(r.Len())
		if int(g.at[k+1]) > r.Rest() {
			return nil, r.Errorf("seg: decode: the parts exceed the input")
		}
	}
	g.ints = make([]int32, g.at[numParts])
	for i := range g.ints {
		g.ints[i] = w.i32()
	}
	g.retArgs = w.i32()
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

// arity is what each opcode's instructions have, as ir.Verify holds a
// function to it: the operand count (-1: any) and whether it defines Dst.
var arity = [...]struct {
	args int
	dst  bool
}{
	ir.OpCopy: {1, true}, ir.OpBin: {2, true}, ir.OpUn: {1, true}, ir.OpPhi: {-1, true},
	ir.OpLoad: {1, true}, ir.OpStore: {2, false}, ir.OpAlloc: {0, true}, ir.OpMalloc: {0, true},
	ir.OpFree: {1, false}, ir.OpCall: {-1, false}, ir.OpBr: {1, false}, ir.OpJmp: {-1, false},
	ir.OpRet: {-1, false}, ir.OpGlobalAddr: {0, true}, ir.OpFieldAddr: {1, true},
}

// check holds a decoded graph to what Build makes — every ID, offset and
// count inside the space it indexes, the ID spaces those of shell f, every
// value detection can name with its vertex — and indexes the value vertices
// on the way. It is what makes every accessor detection calls, on any
// instruction, value, block or vertex the graph holds, safe to call; it
// returns the first violation.
func (g *Graph) check(f *ir.Func) error {
	ni, nv, nc := int32(len(g.instrs)), int32(len(g.values)), int32(g.conds.NumNodes())
	within := func(x, n int32) bool { return x >= 0 && x < n }
	value := func(v int32) bool { return within(v, nv) && g.values[v].name >= 0 }
	instr := func(in int32) bool { return within(in, ni) && g.instrs[in].Block >= 0 }
	// offsets checks a part of offsets into a list of n entries.
	offsets := func(o []int32, n int) bool {
		if len(o) == 0 || o[0] != 0 || o[len(o)-1] != int32(n) {
			return false
		}
		for i := 1; i < len(o); i++ {
			if o[i] < o[i-1] {
				return false
			}
		}
		return true
	}

	syms := g.part(pSyms)
	if len(syms) < 3 || !offsets(syms, len(g.syms)) {
		return fmt.Errorf("bad symbol offsets")
	}
	nsym := int32(len(syms) - 1)
	cdAt := g.part(pCDAt)
	nb := int32(len(cdAt) - 1)
	switch {
	case int(ni) != f.NumInstrs() || int(nv) != f.NumValues() || int(nb) != f.NumBlocks():
		return fmt.Errorf("%d instructions, %d values, %d blocks: not the function's", ni, nv, nb)
	case !offsets(cdAt, len(g.part(pCDeps))):
		return fmt.Errorf("bad block offsets")
	case len(g.part(pInstrIdx)) != int(ni):
		return fmt.Errorf("%d intra-block positions for %d instructions", len(g.part(pInstrIdx)), ni)
	case len(g.part(pCDCond)) != int(nb):
		return fmt.Errorf("%d control-dependence conditions for %d blocks", len(g.part(pCDCond)), nb)
	case len(g.part(pReach)) != int(nb*reachWords(nb)):
		return fmt.Errorf("%d reachability words for %d blocks", len(g.part(pReach)), nb)
	case g.retArgs < 0:
		return fmt.Errorf("%d return operands", g.retArgs)
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
		if !within(cd[0], nb) || !value(cd[1]) || cd[2]&^1 != 0 {
			return fmt.Errorf("bad control dependence (%d, %d, %d)", cd[0], cd[1], cd[2])
		}
	}
	for _, in := range g.part(pOrder) {
		if !instr(in) {
			return fmt.Errorf("bad instr id %d in the block order", in)
		}
	}
	for i, p := range g.Params() {
		if !value(p) || g.values[p].Kind != ir.VParam || g.values[p].num != int32(i) {
			return fmt.Errorf("bad parameter value id %d", p)
		}
	}
	for i, a := range g.part(pAtoms) {
		if !value(a) || i > 0 && a <= g.part(pAtoms)[i-1] {
			return fmt.Errorf("bad atom value id %d", a)
		}
	}

	wide := g.part(pWide)
	for id := range g.values {
		v := &g.values[id]
		switch {
		case v.name < -1 || v.name >= nsym:
			return fmt.Errorf("value %d: bad symbol %d", id, v.name)
		case v.Def != -1 && !instr(v.Def):
			return fmt.Errorf("value %d: bad def instr id %d", id, v.Def)
		case v.Kind > ir.VConstNull:
			return fmt.Errorf("value %d has unknown kind %d", id, v.Kind)
		case v.wide && (v.Kind != ir.VConstInt || !within(v.num, int32(len(wide))-1)):
			return fmt.Errorf("value %d: bad wide constant at %d", id, v.num)
		}
	}

	refs, loads := g.part(pRefs), g.part(pLoads)
	for id := range g.instrs {
		r := &g.instrs[id]
		if r.Block == -1 {
			continue // no instruction holds the ID
		}
		in := int32(id)
		if int(r.Op) >= len(arity) {
			return fmt.Errorf("instr %d has unknown op %d", id, r.Op)
		}
		switch ar := arity[r.Op]; {
		case !within(r.Block, nb):
			return fmt.Errorf("instr %d: bad block id %d", id, r.Block)
		case r.sub < -1 || r.sub >= nsym || r.Op == ir.OpCall && r.sub < 0:
			return fmt.Errorf("instr %d: bad symbol %d", id, r.sub)
		case r.flags&^(flagSynthetic|flagEscapes) != 0:
			return fmt.Errorf("instr %d has unknown flags %#x", id, r.flags)
		case ar.args >= 0 && int(r.nArgs) != ar.args || r.Dst != -1 && !value(r.Dst) || ar.dst && r.Dst == -1:
			return fmt.Errorf("instr %d: bad arity for %s", id, r.Op)
		case r.refs < 0 || int(r.refs)+int(r.nArgs) > len(refs):
			return fmt.Errorf("instr %d: operands past the references", id)
		}
		for _, a := range g.Args(in) {
			if !value(a) {
				return fmt.Errorf("instr %d: bad operand value id %d", id, a)
			}
		}
		more := refs[g.more(in):] // what follows the operands
		switch r.Op {
		case ir.OpCall:
			if len(more) == 0 || more[0] < 0 || int(more[0]) >= len(more) {
				return fmt.Errorf("instr %d: receivers past the references", id)
			}
			for _, d := range more[1 : 1+more[0]] {
				if d != -1 && !value(d) {
					return fmt.Errorf("instr %d: bad receiver value id %d", id, d)
				}
			}
		case ir.OpPhi:
			if len(more) < int(r.nArgs) {
				return fmt.Errorf("instr %d: gates past the references", id)
			}
			for _, c := range more[:r.nArgs] {
				if !within(c, nc) {
					return fmt.Errorf("instr %d: bad gate cond id %d", id, c)
				}
			}
		case ir.OpLoad:
			if len(more) == 0 || !within(more[0], int32(len(loads))) {
				return fmt.Errorf("instr %d: sources past the loads", id)
			}
			at := more[0]
			if n := loads[at]; n < 0 || int(n) > (len(loads)-int(at)-1)/2 {
				return fmt.Errorf("instr %d: %d sources past the loads", id, n)
			}
			srcs := g.LoadSources(in)
			for i := 0; i < len(srcs); i += 2 {
				if !value(srcs[i]) || !within(srcs[i+1], nc) {
					return fmt.Errorf("instr %d: bad load source (%d, cond %d)", id, srcs[i], srcs[i+1])
				}
			}
		}
	}

	nn := int32(len(g.nodes))
	g.valueAt = make([]int32, nv)
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.val != -1 && !value(n.val) {
			return fmt.Errorf("vertex %d: bad value id %d", i, n.val)
		}
		if n.instr != -1 && !instr(n.instr) {
			return fmt.Errorf("vertex %d: bad instr id %d", i, n.instr)
		}
		switch n.Kind {
		case NValue:
			if n.val == -1 {
				return fmt.Errorf("value vertex %d without value", i)
			}
			if g.valueAt[n.val] != 0 {
				return fmt.Errorf("value vertex %d duplicates the vertex of value %d", i, n.val)
			}
			g.valueAt[n.val] = int32(i) + 1
		case NUse:
			if n.instr == -1 || n.val == -1 {
				return fmt.Errorf("use vertex %d without instruction or value", i)
			}
			if n.Role <= RoleNone || int(n.Role) >= numRoles {
				return fmt.Errorf("use vertex %d has unknown role %d", i, n.Role)
			}
			if !within(n.ArgIdx, int32(g.instrs[n.instr].nArgs)) {
				return fmt.Errorf("use vertex %d names operand %d of %d", i, n.ArgIdx, g.instrs[n.instr].nArgs)
			}
		default:
			return fmt.Errorf("vertex %d has unknown kind %d", i, n.Kind)
		}
	}
	succStart := g.part(pSuccStart)
	if len(succStart) != int(nn)+1 || !offsets(succStart, len(g.edges)) {
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
	vertex := func(v int32) bool { return v < 0 || g.valueAt[v] != 0 }
	for _, p := range g.Params() {
		if !vertex(p) {
			return fmt.Errorf("parameter %d has no vertex", p)
		}
	}
	for _, in := range g.Order() {
		if d := g.instrs[in].Dst; !vertex(d) {
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
