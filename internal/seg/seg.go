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
// Control dependence is not materialized as edges; it is recovered from the
// graph's block table when path conditions are assembled, which keeps the
// graph small (the paper's Lc labels are exactly ir.Func.ControlDeps).
package seg

import (
	"fmt"
	"sync"

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
// the vertices and edges, the graph holds the function's body as the
// checkers and the SMT encoder see it (see body.go), so that the IR, the SSA
// info and the points-to result the graph was built from can be dropped once
// it stands.
//
// Every lookup structure is a slice indexed by a dense ID the IR or the
// graph itself assigns (Value.ID, Instr.ID, Block.ID, vertex ID). Build
// and DecodeGraph fill them on one goroutine; afterwards only ValueNode
// (for a value the graph has not seen), the control-dependence conditions
// and the lazy happens-after memo write, and detect.prepare runs all three to
// exhaustion (EnsureValueNodes, PrepareCD, PrecomputeReach) before detection
// workers share the graph read-only.
type Graph struct {
	body

	// valueAt holds, by Value.ID, 1 + the index of the value's definition
	// vertex (0 = none yet); it grows when a value created after Build is
	// looked up.
	valueAt []int32
	// nodes holds the vertices Build or DecodeGraph created, in one array of
	// exactly their number; late holds the ones created since, chunk after
	// chunk (EnsureValueNodes sizes its chunk exactly too). numNodes counts
	// both.
	nodes    []Node
	late     [][]Node
	numNodes int
	// Edges in compressed-sparse-row form: vertex i's outgoing edges are
	// edges[succStart[i]:succStart[i+1]], with succStart part pSuccStart.
	// Vertices created after construction have no edges and lie beyond
	// succStart.
	edges []Edge

	// reach memoizes block-level CFG reachability as one bitset row of
	// (number of blocks + 63) / 64 words per Block.ID; one more row marks
	// the rows computed.
	reach []uint64
}

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int { return g.numNodes }

// Node returns vertex n.
func (g *Graph) Node(n int32) Node { return *g.node(n) }

func (g *Graph) node(n int32) *Node {
	if int(n) < len(g.nodes) {
		return &g.nodes[n]
	}
	i := int(n) - len(g.nodes)
	for _, chunk := range g.late {
		if i < len(chunk) {
			return &chunk[i]
		}
		i -= len(chunk)
	}
	panic("seg: vertex ID out of range")
}

// Val returns the value ID of vertex n: the value a value vertex defines,
// the operand a use vertex uses.
func (g *Graph) Val(n int32) int32 { return g.node(n).val }

// Instr returns the instruction ID of vertex n: the using instruction of a
// use vertex, the defining one of a value vertex (-1 for a parameter or a
// constant).
func (g *Graph) Instr(n int32) int32 { return g.node(n).instr }

// Cond returns the condition of an edge.
func (g *Graph) Cond(e Edge) *cond.Cond { return g.conds.Node(e.cond) }

// NodeString renders vertex n: the value of a value vertex,
// "<value>@<role>#<instruction ID>" for a use vertex.
func (g *Graph) NodeString(n int32) string {
	nd := g.node(n)
	if nd.Kind == NValue {
		return g.ValueString(nd.val)
	}
	return fmt.Sprintf("%s@%s#%d", g.ValueString(nd.val), nd.Role, nd.instr)
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

// Stats computes the graph's structural counters. It reads the same state
// the detection workers read, so call it before detection starts or after
// it finishes, not concurrently with graph-mutating lazy paths.
func (g *Graph) Stats() GraphStats {
	s := GraphStats{Nodes: g.numNodes, Edges: g.NumEdges()}
	for n := int32(0); int(n) < g.numNodes; n++ {
		switch g.node(n).Kind {
		case NValue:
			s.ValueNodes++
		case NUse:
			s.UseNodes++
		}
	}
	return s
}

// lateChunk is how many vertices a chunk of Graph.late holds when nothing
// says how many are coming.
const lateChunk = 4

// reserve makes room for n more vertices in one chunk.
func (g *Graph) reserve(n int) {
	if n > 0 {
		g.late = append(g.late, make([]Node, 0, n))
	}
}

// newNode appends a vertex created after construction and returns its ID.
func (g *Graph) newNode(n Node) int32 {
	if k := len(g.late); k == 0 || len(g.late[k-1]) == cap(g.late[k-1]) {
		g.reserve(lateChunk)
	}
	chunk := &g.late[len(g.late)-1]
	*chunk = append(*chunk, n)
	g.numNodes++
	return int32(g.numNodes - 1)
}

// valueVertex is the record of value v's vertex.
func (g *Graph) valueVertex(v int32) Node {
	def := int32(-1)
	if int(v) < len(g.values) {
		def = g.values[v].Def
	}
	return Node{Kind: NValue, val: v, instr: def}
}

// ValueNode returns the vertex of a value definition, creating it on first
// use.
func (g *Graph) ValueNode(v int32) int32 {
	if int(v) < len(g.valueAt) {
		if at := g.valueAt[v]; at != 0 {
			return at - 1
		}
	} else {
		// A value created after the graph was built.
		g.valueAt = append(g.valueAt, make([]int32, int(v)+1-len(g.valueAt))...)
	}
	n := g.newNode(g.valueVertex(v))
	g.valueAt[v] = n + 1
	return n
}

// Succs returns the outgoing edges of vertex n. Callers must not mutate the
// slice.
func (g *Graph) Succs(n int32) []Edge {
	ss := g.part(pSuccStart)
	if int(n)+1 >= len(ss) {
		return nil
	}
	return g.edges[ss[n]:ss[n+1]]
}

// newGraph allocates a graph of n vertices and reads the function's body
// into it.
func newGraph(f *ir.Func, inf *ssa.Info, pr *pta.Result, n int) *Graph {
	g := &Graph{valueAt: make([]int32, f.NumValues()), nodes: make([]Node, n), numNodes: n}
	g.read(f, inf, pr, n)
	return g
}

// pendingEdge is an edge awaiting its place in the CSR arrays.
type pendingEdge struct {
	from int32
	Edge
}

// builder is Build's working state. Vertices and edges are collected here,
// by ID, and copied into arrays of exactly their number once the function
// has been walked; the collecting arrays are reused from one function to the
// next. valueAt is the graph's table of the same name while it is built.
type builder struct {
	valueAt []int32
	nodes   []Node
	pend    []pendingEdge
	fill    []int32
}

var builderPool = sync.Pool{New: func() any { return new(builder) }}

func (b *builder) value(v *ir.Value) int32 {
	if at := b.valueAt[v.ID]; at != 0 {
		return at - 1
	}
	i := int32(len(b.nodes))
	def := int32(-1)
	if v.Def != nil {
		def = v.Def.ID
	}
	b.nodes = append(b.nodes, Node{Kind: NValue, val: v.ID, instr: def})
	b.valueAt[v.ID] = i + 1
	return i
}

func (b *builder) use(in *ir.Instr, argIdx int, role UseRole) int32 {
	i := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{Kind: NUse, Role: role, val: in.Args[argIdx].ID, instr: in.ID, ArgIdx: int32(argIdx)})
	return i
}

func (b *builder) edge(from, to int32, c *cond.Cond) {
	if !c.IsFalse() {
		b.pend = append(b.pend, pendingEdge{from: from, Edge: Edge{To: to, cond: int32(c.ID())}})
	}
}

// Build constructs the SEG for one analyzed function.
func Build(f *ir.Func, inf *ssa.Info, pr *pta.Result) *Graph {
	b := builderPool.Get().(*builder)
	nv := f.NumValues()
	b.valueAt = append(b.valueAt[:0], make([]int32, nv)...)
	tr := inf.Conds.True()
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			switch in.Op {
			case ir.OpCopy:
				b.edge(b.value(in.Args[0]), b.value(in.Dst), tr)
			case ir.OpUn, ir.OpFieldAddr:
				// A field address aliases the same object as its base:
				// for value-flow purposes (a freed base makes field
				// accesses dangling) the flow continues through it.
				b.edge(b.value(in.Args[0]), b.value(in.Dst), tr)
			case ir.OpBin:
				// Both operands feed the result (the operator vertex of
				// the paper is folded into the defining instruction,
				// which DD-constraint generation consults directly).
				b.edge(b.value(in.Args[0]), b.value(in.Dst), tr)
				b.edge(b.value(in.Args[1]), b.value(in.Dst), tr)
			case ir.OpPhi:
				gates := inf.GatesOf(in)
				for i, a := range in.Args {
					c := tr
					if gates != nil {
						c = gates[i]
					}
					b.edge(b.value(a), b.value(in.Dst), c)
				}
			case ir.OpLoad:
				// Deref use of the address.
				b.edge(b.value(in.Args[0]), b.use(in, 0, RoleDerefAddr), tr)
				// Memory-induced data dependence from stored values.
				for _, gv := range pr.LoadSources(in) {
					b.edge(b.value(gv.Val), b.value(in.Dst), gv.Cond)
				}
			case ir.OpStore:
				b.edge(b.value(in.Args[0]), b.use(in, 0, RoleDerefAddr), tr)
				b.edge(b.value(in.Args[1]), b.use(in, 1, RoleStoreVal), tr)
			case ir.OpFree:
				b.edge(b.value(in.Args[0]), b.use(in, 0, RoleFreeArg), tr)
			case ir.OpCall:
				for i, a := range in.Args {
					b.edge(b.value(a), b.use(in, i, RoleCallArg), tr)
				}
				for _, d := range in.Dsts() {
					if d != nil {
						b.value(d)
					}
				}
			case ir.OpRet:
				for i, a := range in.Args {
					b.edge(b.value(a), b.use(in, i, RoleRetArg), tr)
				}
			}
		}
	}

	g := newGraph(f, inf, pr, len(b.nodes))
	copy(g.nodes, b.nodes)
	copy(g.valueAt, b.valueAt)

	// Counting sort of the pending edges by source vertex; it is stable, so
	// every vertex keeps its edges in insertion order.
	succStart := g.part(pSuccStart)
	for i := range b.pend {
		succStart[b.pend[i].from+1]++
	}
	for i := range g.nodes {
		succStart[i+1] += succStart[i]
	}
	g.edges = make([]Edge, len(b.pend))
	b.fill = append(b.fill[:0], succStart[:len(g.nodes)]...)
	for i := range b.pend {
		e := &b.pend[i]
		g.edges[b.fill[e.from]] = e.Edge
		b.fill[e.from]++
	}

	b.nodes, b.pend = b.nodes[:0], b.pend[:0]
	builderPool.Put(b)
	return g
}

// EnsureValueNodes pre-creates the value vertex of every parameter and every
// instruction operand/result of the function. The detection engine requests
// value vertices lazily (ValueNode creates on first use, mutating the
// graph); pre-creating every vertex the search can possibly name freezes the
// graph, so concurrent detection workers only ever read it.
func (g *Graph) EnsureValueNodes() {
	// Two passes over the same values, so that the vertices land in one
	// chunk of exactly their number: mark the ones without a vertex, then
	// create them in the order they were met.
	const pending = -1
	var missing []int32
	want := func(v int32) {
		if v >= 0 && g.valueAt[v] == 0 {
			g.valueAt[v] = pending
			missing = append(missing, v)
		}
	}
	for _, p := range g.Params() {
		want(p)
	}
	for _, in := range g.Order() {
		for _, a := range g.Args(in) {
			want(a)
		}
		want(g.instrs[in].Dst)
		for _, d := range g.Dsts(in) {
			want(d)
		}
	}
	g.reserve(len(missing))
	for _, v := range missing {
		g.valueAt[v] = 0
		g.ValueNode(v)
	}
}

// PrecomputeReach fills the block-reachability memo for every block, so
// HappensAfter becomes a pure read (safe from concurrent detection workers).
func (g *Graph) PrecomputeReach() {
	for _, b := range g.part(pBlocks) {
		g.reachableBlocks(b)
	}
}

// HappensAfter reports whether instruction b can execute after instruction
// a in some run of the function: either b is reachable from a's block, or
// they share a block and b comes later.
func (g *Graph) HappensAfter(a, b int32) bool {
	ba, bb := g.instrs[a].Block, g.instrs[b].Block
	if ba == bb {
		idx := g.part(pInstrIdx)
		return idx[b] > idx[a]
	}
	row := g.reachableBlocks(ba)
	return row[bb/64]&(1<<(bb%64)) != 0
}

// reachableBlocks returns the bitset (by Block.ID) of blocks reachable from
// a block through at least one CFG edge, computing it on first request.
func (g *Graph) reachableBlocks(from int32) []uint64 {
	nb := g.numBlocks()
	w := (nb + 63) / 64
	if g.reach == nil {
		g.reach = make([]uint64, (nb+1)*w)
	}
	row := g.reach[from*w : (from+1)*w]
	done := g.reach[nb*w:]
	if done[from/64]&(1<<(from%64)) != 0 {
		return row
	}
	stack := []int32{from}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.succs(b) {
			if row[s/64]&(1<<(s%64)) == 0 {
				row[s/64] |= 1 << (s % 64)
				stack = append(stack, s)
			}
		}
	}
	done[from/64] |= 1 << (from % 64)
	return row
}
