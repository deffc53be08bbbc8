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
// Control dependence is not materialized as edges; it is recovered from
// ssa.Info (package cfg) when path conditions are assembled, which keeps
// the graph small (the paper's Lc labels are exactly cfg.ControlDeps).
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
// instructions, so the record is kept to 32 bytes.
type Node struct {
	Val   *ir.Value
	Instr *ir.Instr // defining instr (NValue, may be nil) or using instr
	// idx is the vertex's dense index: its position in creation order.
	idx    int32
	ArgIdx int32 // operand index for NUse
	Kind   NodeKind
	Role   UseRole
}

// Index returns the vertex's dense per-graph index (Graph.Node's argument).
// Side tables over vertices — summary memos, reverse adjacency — are slices
// indexed by it.
func (n *Node) Index() int { return int(n.idx) }

func (n *Node) String() string {
	if n.Kind == NValue {
		return n.Val.String()
	}
	return fmt.Sprintf("%s@%s#%d", n.Val, n.Role, n.Instr.ID)
}

// Edge is a conditional value-flow edge.
type Edge struct {
	To   *Node
	Cond *cond.Cond
}

// Graph is the SEG of one function.
//
// Every lookup structure is a slice indexed by a dense ID the IR or the
// graph itself assigns (Value.ID, Instr.ID, Block.ID, Node.Index). Build
// and DecodeGraph fill them on one goroutine; afterwards only ValueNode
// (for a value the graph has not seen) and the lazy happens-after memo
// write, and detect.prepare runs both to exhaustion (EnsureValueNodes,
// PrecomputeReach) before detection workers share the graph read-only.
type Graph struct {
	Fn   *ir.Func
	Info *ssa.Info
	PTA  *pta.Result

	// valueAt holds, by Value.ID, 1 + the index of the value's definition
	// vertex (0 = none yet); it grows when a value created after Build is
	// looked up. instrIdx holds intra-block instruction positions by
	// Instr.ID, for happens-after queries. The two start out as parts of one
	// array.
	valueAt  []int32
	instrIdx []int32
	// nodes holds the vertices Build or DecodeGraph created, in one array of
	// exactly their number; late holds the ones created since, chunk after
	// chunk (EnsureValueNodes sizes its chunk exactly too). numNodes counts
	// both.
	nodes    []Node
	late     [][]Node
	numNodes int
	// Edges in compressed-sparse-row form: vertex i's outgoing edges are
	// edges[succStart[i]:succStart[i+1]]. Vertices created after
	// construction have no edges and lie beyond succStart.
	succStart []int32
	edges     []Edge

	// reach memoizes block-level CFG reachability as one bitset row of
	// reachWords words per Block.ID; one more row marks the rows computed.
	reach      []uint64
	reachWords int
}

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int { return g.numNodes }

// Node returns the vertex with index i.
func (g *Graph) Node(i int) *Node {
	if i < len(g.nodes) {
		return &g.nodes[i]
	}
	i -= len(g.nodes)
	for _, chunk := range g.late {
		if i < len(chunk) {
			return &chunk[i]
		}
		i -= len(chunk)
	}
	panic("seg: vertex index out of range")
}

// Uses returns the use vertices of one role, in creation order (which is
// instruction order).
func (g *Graph) Uses(role UseRole) []*Node {
	var out []*Node
	for i := 0; i < g.numNodes; i++ {
		if n := g.Node(i); n.Role == role {
			out = append(out, n)
		}
	}
	return out
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
	for i := 0; i < g.numNodes; i++ {
		switch g.Node(i).Kind {
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

// newNode appends a vertex created after construction.
func (g *Graph) newNode(n Node) *Node {
	if k := len(g.late); k == 0 || len(g.late[k-1]) == cap(g.late[k-1]) {
		g.reserve(lateChunk)
	}
	chunk := &g.late[len(g.late)-1]
	n.idx = int32(g.numNodes)
	*chunk = append(*chunk, n)
	g.numNodes++
	return &(*chunk)[len(*chunk)-1]
}

// ValueNode returns the vertex of a value definition, creating it on first
// use.
func (g *Graph) ValueNode(v *ir.Value) *Node {
	if int(v.ID) < len(g.valueAt) {
		if at := g.valueAt[v.ID]; at != 0 {
			return g.Node(int(at - 1))
		}
	} else {
		// A value created after the graph was built (the function's value
		// count only grows).
		g.valueAt = append(g.valueAt, make([]int32, g.Fn.NumValues()-len(g.valueAt))...)
	}
	n := g.newNode(Node{Kind: NValue, Val: v, Instr: v.Def})
	g.valueAt[v.ID] = n.idx + 1
	return n
}

// Succs returns the outgoing edges of n. Callers must not mutate the slice.
func (g *Graph) Succs(n *Node) []Edge {
	if int(n.idx)+1 >= len(g.succStart) {
		return nil
	}
	return g.edges[g.succStart[n.idx]:g.succStart[n.idx+1]]
}

// newGraph allocates a graph's ID-indexed tables and records the
// intra-block instruction positions.
func newGraph(f *ir.Func, inf *ssa.Info, pr *pta.Result) *Graph {
	nv := f.NumValues()
	tab := make([]int32, nv+f.NumInstrs())
	g := &Graph{Fn: f, Info: inf, PTA: pr, valueAt: tab[:nv:nv], instrIdx: tab[nv:]}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			g.instrIdx[in.ID] = int32(i)
		}
	}
	return g
}

// pendingEdge is an edge awaiting its place in the CSR arrays.
type pendingEdge struct {
	from, to int32
	cond     *cond.Cond
}

// builder is Build's working state. Vertices and edges are collected here,
// by index, and copied into arrays of exactly their number once the function
// has been walked; the collecting arrays are reused from one function to the
// next.
type builder struct {
	g     *Graph
	nodes []Node
	pend  []pendingEdge
	fill  []int32
}

var builderPool = sync.Pool{New: func() any { return new(builder) }}

func (b *builder) value(v *ir.Value) int32 {
	if at := b.g.valueAt[v.ID]; at != 0 {
		return at - 1
	}
	i := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{Kind: NValue, Val: v, Instr: v.Def, idx: i})
	b.g.valueAt[v.ID] = i + 1
	return i
}

func (b *builder) use(in *ir.Instr, argIdx int, role UseRole) int32 {
	i := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{Kind: NUse, Role: role, Val: in.Args[argIdx], Instr: in, ArgIdx: int32(argIdx), idx: i})
	return i
}

func (b *builder) edge(from, to int32, c *cond.Cond) {
	if !c.IsFalse() {
		b.pend = append(b.pend, pendingEdge{from: from, to: to, cond: c})
	}
}

// Build constructs the SEG for one analyzed function.
func Build(f *ir.Func, inf *ssa.Info, pr *pta.Result) *Graph {
	g := newGraph(f, inf, pr)
	b := builderPool.Get().(*builder)
	b.g = g
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

	g.nodes = append(make([]Node, 0, len(b.nodes)), b.nodes...)
	g.numNodes = len(g.nodes)

	// Counting sort of the pending edges by source vertex; it is stable, so
	// every vertex keeps its edges in insertion order.
	g.succStart = make([]int32, len(g.nodes)+1)
	for i := range b.pend {
		g.succStart[b.pend[i].from+1]++
	}
	for i := range g.nodes {
		g.succStart[i+1] += g.succStart[i]
	}
	g.edges = make([]Edge, len(b.pend))
	b.fill = append(b.fill[:0], g.succStart[:len(g.nodes)]...)
	for i := range b.pend {
		e := &b.pend[i]
		g.edges[b.fill[e.from]] = Edge{To: &g.nodes[e.to], Cond: e.cond}
		b.fill[e.from]++
	}

	// The collecting arrays go back without what they point to.
	clear(b.nodes)
	clear(b.pend)
	b.g, b.nodes, b.pend = nil, b.nodes[:0], b.pend[:0]
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
	var missing []*ir.Value
	want := func(v *ir.Value) {
		if v == nil {
			return
		}
		if int(v.ID) >= len(g.valueAt) {
			g.valueAt = append(g.valueAt, make([]int32, g.Fn.NumValues()-len(g.valueAt))...)
		}
		if g.valueAt[v.ID] == 0 {
			g.valueAt[v.ID] = pending
			missing = append(missing, v)
		}
	}
	for _, p := range g.Fn.Params {
		want(p)
	}
	for _, b := range g.Fn.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				want(a)
			}
			want(in.Dst)
			for _, d := range in.Dsts() {
				want(d)
			}
		}
	}
	g.reserve(len(missing))
	for _, v := range missing {
		g.valueAt[v.ID] = 0
		g.ValueNode(v)
	}
}

// PrecomputeReach fills the block-reachability memo for every block, so
// HappensAfter becomes a pure read (safe from concurrent detection workers).
func (g *Graph) PrecomputeReach() {
	for _, b := range g.Fn.Blocks {
		g.reachableBlocks(b)
	}
}

// HappensAfter reports whether instruction b can execute after instruction
// a in some run of the function: either b is reachable from a's block, or
// they share a block and b comes later.
func (g *Graph) HappensAfter(a, b *ir.Instr) bool {
	if a.Block == b.Block {
		return g.instrIdx[b.ID] > g.instrIdx[a.ID]
	}
	row := g.reachableBlocks(a.Block)
	return row[b.Block.ID/64]&(1<<(b.Block.ID%64)) != 0
}

// reachableBlocks returns the bitset (by Block.ID) of blocks reachable from
// a block through at least one CFG edge, computing it on first request.
func (g *Graph) reachableBlocks(from *ir.Block) []uint64 {
	nb := g.Fn.NumBlocks()
	if g.reach == nil {
		g.reachWords = (nb + 63) / 64
		g.reach = make([]uint64, (nb+1)*g.reachWords)
	}
	row := g.reach[from.ID*g.reachWords : (from.ID+1)*g.reachWords]
	done := g.reach[nb*g.reachWords:]
	if done[from.ID/64]&(1<<(from.ID%64)) != 0 {
		return row
	}
	stack := []*ir.Block{from}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if row[s.ID/64]&(1<<(s.ID%64)) == 0 {
				row[s.ID/64] |= 1 << (s.ID % 64)
				stack = append(stack, s)
			}
		}
	}
	done[from.ID/64] |= 1 << (from.ID % 64)
	return row
}

// CD returns the direct control-dependence condition of the statement an
// instruction belongs to (the CD(v@s) of Equation 1, non-recursive part).
func (g *Graph) CD(in *ir.Instr) *cond.Cond {
	return g.Info.CDCond(in.Block)
}
