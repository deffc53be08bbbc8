// Package seg builds the Symbolic Expression Graph of Pinpoint §3.2 — the
// per-function sparse value-flow graph that compactly encodes conditional
// data dependence and control dependence, and supports querying "efficient
// path conditions" (Definition 3.2, Equation 1).
//
// Nodes are SSA value definitions plus use vertices at statements the
// checkers care about (dereference addresses, call arguments, free
// operands, return operands). Forward edges carry the condition under which
// the value flows:
//
//   - copies and operator results flow unconditionally;
//   - φ operands flow under their gate conditions;
//   - memory flows (store → load) come from the quasi path-sensitive
//     points-to analysis with their guards — this is where the "pointer
//     trap" is dodged: the edges are built from cheap local reasoning, yet
//     carry conditions precise enough for full path-sensitivity later.
//
// Control dependence is not materialized as edges, which keeps the graph
// small: the graph holds each block's control dependences (the paper's Lc
// labels are exactly Graph.CDeps) and their conjunction, Graph.CD, which path
// conditions read.
package seg

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/pta"
	"repro/internal/ssa"
)

// NodeKind discriminates SEG vertices.
type NodeKind uint8

const (
	// NValue is a value-definition vertex (the paper's v@s with s the
	// defining statement; in SSA the pair collapses to the value).
	NValue NodeKind = iota
	// NUse is a use vertex v@s for a value used at a statement of
	// interest.
	NUse
)

// UseRole classifies what a use vertex does with the value.
type UseRole uint8

const (
	// RoleNone marks value vertices.
	RoleNone UseRole = iota
	// RoleDerefAddr: the value is dereferenced (load or store address).
	RoleDerefAddr
	// RoleFreeArg: the value is freed.
	RoleFreeArg
	// RoleCallArg: the value is passed as a call argument (ArgIdx).
	RoleCallArg
	// RoleRetArg: the value is returned (ArgIdx within the return list).
	RoleRetArg
	// RoleStoreVal: the value is stored into memory.
	RoleStoreVal
)

var roleNames = [...]string{
	RoleNone: "value", RoleDerefAddr: "deref", RoleFreeArg: "free",
	RoleCallArg: "arg", RoleRetArg: "ret", RoleStoreVal: "storeval",
}

func (r UseRole) String() string { return roleNames[r] }

// numRoles bounds the roles (the decoder checks against it).
const numRoles = int(RoleStoreVal) + 1

// Node is a SEG vertex. A graph has about three vertices for every two
// instructions, so the record is kept to 16 bytes and holds no pointer: the
// collector never scans the vertex arrays. A vertex is named by its ID, its
// position in creation order (an int32); side tables over vertices — summary
// memos, reverse adjacency — are slices indexed by it. The value and the
// instruction are IDs in the function's spaces, resolved by Graph.Val and
// Graph.Instr.
type Node struct {
	val   int32
	instr int32 // defining instr (NValue, may be -1) or using instr
	// ArgIdx is the operand index of a use vertex.
	ArgIdx int32
	Kind   NodeKind
	Role   UseRole
}

// Edge is a conditional value-flow edge: its target vertex and the ID of its
// condition in the function's cond.Builder (Graph.Cond). Pointer-free, like
// Node.
type Edge struct {
	To   int32
	cond int32
}

// Graph is the SEG of one function, and all detection reads of it: besides
// the vertices and edges, the graph holds the function's body, the tables
// lowering wrote and the later passes rewrote (ir.Body), which it adopts
// when it is built, so that the SSA info and the points-to result the graph
// was built from can be dropped once it stands. To the body it adds its own
// lists (see body.go), in the body's array after the body's: the φ gates are
// the body's already, the load sources, control dependences, reachability
// rows and condition atoms are the graph's. A built graph holds exactly the
// tables DecodeGraph makes of its encoding.
//
// Every lookup structure is a slice indexed by a dense ID the IR or the
// graph itself assigns (value, instruction, block and vertex IDs). A graph is
// final when Build or DecodeGraph returns it: every value detection can name
// has its vertex, every block its control-dependence condition and its
// reachability row, and nothing writes to the graph afterwards, so detection
// workers share it as it is.
type Graph struct {
	ir.Body
	conds *cond.Builder
	// nodes holds the vertices, in one array of exactly their number.
	nodes []Node
	// Edges in compressed-sparse-row form: vertex i's outgoing edges are
	// edges[succStart[i]:succStart[i+1]], with succStart part pSuccStart.
	edges []Edge
}

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Node returns vertex n.
func (g *Graph) Node(n int32) Node { return g.nodes[n] }

// Val returns the value ID of vertex n: the value a value vertex defines,
// the operand a use vertex uses.
func (g *Graph) Val(n int32) int32 { return g.nodes[n].val }

// Instr returns the instruction ID of vertex n: the using instruction of a
// use vertex, the defining one of a value vertex (-1 for a parameter or a
// constant).
func (g *Graph) Instr(n int32) int32 { return g.nodes[n].instr }

// Cond returns the condition of an edge.
func (g *Graph) Cond(e Edge) *cond.Cond { return g.conds.Node(e.cond) }

// NodeString renders vertex n: the value of a value vertex,
// "<value>@<role>#<instruction ID>" for a use vertex.
func (g *Graph) NodeString(n int32) string {
	nd := &g.nodes[n]
	if nd.Kind == NValue {
		return g.ValueString(nd.val)
	}
	return fmt.Sprintf("%s@%s#%d", g.ValueString(nd.val), nd.Role, nd.instr)
}

// Footprint returns the bytes the graph's vertex and edge arrays occupy, by
// capacity and through size, which gives what an allocation of n bytes
// occupies; the body's are ir.Body.Footprint's.
func (g *Graph) Footprint(size func(n int) int) (nodes, edges int) {
	return size(cap(g.nodes) * int(unsafe.Sizeof(Node{}))), size(cap(g.edges) * int(unsafe.Sizeof(Edge{})))
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// GraphStats summarizes a graph's structure for the observability layer
// (gauges in the metrics registry, the -stats-json dump).
type GraphStats struct {
	Nodes      int
	Edges      int
	ValueNodes int
	UseNodes   int
}

// Stats computes the graph's structural counters.
func (g *Graph) Stats() GraphStats {
	s := GraphStats{Nodes: len(g.nodes), Edges: g.NumEdges()}
	for i := range g.nodes {
		switch g.nodes[i].Kind {
		case NValue:
			s.ValueNodes++
		case NUse:
			s.UseNodes++
		}
	}
	return s
}

// ValueNode returns the vertex of value v (-1 if it has none). Every
// parameter, operand, receiver and Dst has one.
func (g *Graph) ValueNode(v int32) int32 { return g.part(pValueAt)[v] - 1 }

// Succs returns the outgoing edges of vertex n. Callers must not mutate the
// slice.
func (g *Graph) Succs(n int32) []Edge {
	ss := g.part(pSuccStart)
	return g.edges[ss[n]:ss[n+1]:ss[n+1]]
}

// pendingEdge is an edge awaiting its place in the CSR arrays.
type pendingEdge struct {
	from int32
	Edge
}

// builder is Build's working state. Vertices and edges are collected here,
// by ID, and copied into arrays of exactly their number once the function
// has been walked; the collecting arrays are reused from one function to the
// next. valueAt is the graph's part of the same name while it is built, and
// parts[k] its part k (from ir.NumLists on) until the body adopts them.
type builder struct {
	f       *ir.Func
	valueAt []int32
	nodes   []Node
	pend    []pendingEdge
	fill    []int32
	parts   [pValueAt + 1][]int32
}

var builderPool = sync.Pool{New: func() any { return new(builder) }}

func (b *builder) value(v int32) int32 {
	if at := b.valueAt[v]; at != 0 {
		return at - 1
	}
	i := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{Kind: NValue, val: v, instr: b.f.Value(v).Def})
	b.valueAt[v] = i + 1
	return i
}

func (b *builder) use(in int32, argIdx int, role UseRole) int32 {
	i := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{Kind: NUse, Role: role, val: b.f.Args(in)[argIdx], instr: in, ArgIdx: int32(argIdx)})
	return i
}

func (b *builder) edge(from, to int32, c *cond.Cond) {
	if !c.IsFalse() {
		b.pend = append(b.pend, pendingEdge{from: from, Edge: Edge{To: to, cond: int32(c.ID())}})
	}
}

// Build constructs the SEG of one analyzed function, final (see Graph). It
// adopts f's body, which must be packed (ir.Func.Pack).
func Build(f *ir.Func, inf *ssa.Info, pr *pta.Result) *Graph {
	b := builderPool.Get().(*builder)
	b.f = f
	b.valueAt = append(b.valueAt[:0], make([]int32, f.NumValues())...)
	tr := inf.Conds.True()
	for _, in := range f.Order() {
		r, args := f.In(in), f.Args(in)
		switch r.Op {
		case ir.OpCopy, ir.OpUn, ir.OpFieldAddr:
			// A field address aliases the same object as its base: for
			// value-flow purposes (a freed base makes field accesses
			// dangling) the flow continues through it.
			b.edge(b.value(args[0]), b.value(r.Dst), tr)
		case ir.OpBin:
			// Both operands feed the result (the operator vertex of the
			// paper is folded into the defining instruction, which
			// DD-constraint generation consults directly).
			b.edge(b.value(args[0]), b.value(r.Dst), tr)
			b.edge(b.value(args[1]), b.value(r.Dst), tr)
		case ir.OpPhi:
			for i, a := range args {
				b.edge(b.value(a), b.value(r.Dst), inf.Gate(in, i))
			}
		case ir.OpLoad:
			// Deref use of the address.
			b.edge(b.value(args[0]), b.use(in, 0, RoleDerefAddr), tr)
			// Memory-induced data dependence from stored values.
			for _, gv := range pr.LoadSources(in) {
				b.edge(b.value(gv.Val), b.value(r.Dst), gv.Cond)
			}
		case ir.OpStore:
			b.edge(b.value(args[0]), b.use(in, 0, RoleDerefAddr), tr)
			b.edge(b.value(args[1]), b.use(in, 1, RoleStoreVal), tr)
		case ir.OpFree:
			b.edge(b.value(args[0]), b.use(in, 0, RoleFreeArg), tr)
		case ir.OpCall:
			for i, a := range args {
				b.edge(b.value(a), b.use(in, i, RoleCallArg), tr)
			}
			for _, d := range f.Dsts(in) {
				if d >= 0 {
					b.value(d)
				}
			}
		case ir.OpRet:
			for i, a := range args {
				b.edge(b.value(a), b.use(in, i, RoleRetArg), tr)
			}
		}
	}

	// Every value detection can name gets a vertex: the parameters, then each
	// instruction's operands and Dst in block order (the walk gave every
	// receiver one).
	for _, p := range f.Params {
		b.value(p.ID)
	}
	for _, in := range f.Order() {
		for _, a := range f.Args(in) {
			b.value(a)
		}
		if d := f.In(in).Dst; d >= 0 {
			b.value(d)
		}
	}

	addParts(b, f, inf, pr)
	g := &Graph{Body: f.Adopt(b.parts[ir.NumLists:]...), conds: inf.Conds, nodes: append(make([]Node, 0, len(b.nodes)), b.nodes...)}

	// Counting sort of the pending edges by source vertex; it is stable, so
	// every vertex keeps its edges in insertion order.
	succStart := g.part(pSuccStart)
	g.edges = make([]Edge, len(b.pend))
	b.fill = append(b.fill[:0], succStart[:len(g.nodes)]...)
	for i := range b.pend {
		e := &b.pend[i]
		g.edges[b.fill[e.from]] = e.Edge
		b.fill[e.from]++
	}

	b.f, b.nodes, b.pend = nil, b.nodes[:0], b.pend[:0]
	builderPool.Put(b)
	g.conds.Freeze()
	return g
}

// HappensAfter reports whether instruction b can execute after instruction
// a in some run of the function: either b is reachable from a's block, or
// they share a block and b comes later.
func (g *Graph) HappensAfter(a, b int32) bool {
	ba, bb := g.In(a).Block, g.In(b).Block
	if ba == bb {
		idx := g.part(pInstrIdx)
		return idx[b] > idx[a]
	}
	w, m := reachBit(bb)
	return g.part(pReach)[ba*reachWords(int32(g.NumBlocks()))+w]&m != 0
}

// reachWords is the length of a block's row of part pReach: one bit per
// block ID, in int32 words.
func reachWords(nb int32) int32 { return (nb + 31) / 32 }

// reachBit returns the word and the mask of block b's bit in a row.
func reachBit(b int32) (int32, int32) { return b / 32, int32(uint32(1) << (b % 32)) }
