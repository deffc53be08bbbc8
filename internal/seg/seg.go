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

// numRoles sizes role-indexed tables.
const numRoles = int(RoleStoreVal) + 1

// Node is a SEG vertex.
type Node struct {
	Kind   NodeKind
	Role   UseRole
	Val    *ir.Value
	Instr  *ir.Instr // defining instr (NValue, may be nil) or using instr
	ArgIdx int       // operand index for NUse
	// idx is the vertex's dense index: its position in Graph.AllNodes.
	idx int32
	// nextUse chains the use vertices of one instruction: 1 + the index of
	// the next one, 0 at the end (see Graph.useHead).
	nextUse int32
}

// Index returns the vertex's dense per-graph index (its position in
// AllNodes). Side tables over vertices — summary memos, reverse adjacency —
// are slices indexed by it.
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
	// looked up.
	valueAt []int32
	// useHead holds, by Instr.ID, 1 + the index of the instruction's first
	// use vertex (0 = none); the rest follow through Node.nextUse.
	useHead []int32
	nodes   []*Node
	// slab is the current allocation chunk of vertices: they live and die
	// with the graph, so they are not allocated one by one.
	slab []Node
	// Edges in compressed-sparse-row form: vertex i's outgoing edges are
	// edges[succStart[i]:succStart[i+1]]. Vertices created after
	// construction have no edges and lie beyond succStart.
	succStart []int32
	edges     []Edge

	// ByRole indexes use vertices for the checkers, in creation order.
	ByRole [numRoles][]*Node

	// instrIdx holds intra-block instruction positions by Instr.ID, for
	// happens-after queries.
	instrIdx []int32
	// reach memoizes block-level CFG reachability as one bitset row of
	// reachWords words per Block.ID; reachDone marks the rows computed.
	reach      []uint64
	reachWords int
	reachDone  []bool
}

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// AllNodes returns every vertex, indexed by Node.Index (callers must not
// mutate the slice).
func (g *Graph) AllNodes() []*Node { return g.nodes }

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
	s := GraphStats{Nodes: len(g.nodes), Edges: g.NumEdges()}
	for _, n := range g.nodes {
		switch n.Kind {
		case NValue:
			s.ValueNodes++
		case NUse:
			s.UseNodes++
		}
	}
	return s
}

// newNode appends a vertex carved from the slab. Build and DecodeGraph size
// the first chunk for the whole graph; later chunks only serve stragglers.
func (g *Graph) newNode(n Node) *Node {
	if len(g.slab) == cap(g.slab) {
		g.slab = make([]Node, 0, 16)
	}
	g.slab = append(g.slab, n)
	p := &g.slab[len(g.slab)-1]
	p.idx = int32(len(g.nodes))
	g.nodes = append(g.nodes, p)
	return p
}

// ValueNode returns the vertex of a value definition, creating it on first
// use.
func (g *Graph) ValueNode(v *ir.Value) *Node {
	if v.ID < len(g.valueAt) {
		if at := g.valueAt[v.ID]; at != 0 {
			return g.nodes[at-1]
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

func (g *Graph) useNode(in *ir.Instr, argIdx int, role UseRole, v *ir.Value) *Node {
	if n := g.UseNode(in, argIdx, role); n != nil {
		return n
	}
	n := g.newNode(Node{Kind: NUse, Role: role, Val: v, Instr: in, ArgIdx: argIdx})
	g.linkUse(n)
	return n
}

// linkUse enters a use vertex into its instruction's chain and ByRole.
func (g *Graph) linkUse(n *Node) {
	n.nextUse = g.useHead[n.Instr.ID]
	g.useHead[n.Instr.ID] = n.idx + 1
	g.ByRole[n.Role] = append(g.ByRole[n.Role], n)
}

// UseNode returns the use vertex for (instr, argIdx, role) if it exists.
func (g *Graph) UseNode(in *ir.Instr, argIdx int, role UseRole) *Node {
	if in.ID >= len(g.useHead) {
		return nil // an instruction created after the graph was built
	}
	for at := g.useHead[in.ID]; at != 0; {
		n := g.nodes[at-1]
		if n.ArgIdx == argIdx && n.Role == role {
			return n
		}
		at = n.nextUse
	}
	return nil
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
	g := &Graph{
		Fn:       f,
		Info:     inf,
		PTA:      pr,
		valueAt:  make([]int32, f.NumValues()),
		useHead:  make([]int32, f.NumInstrs()),
		instrIdx: make([]int32, f.NumInstrs()),
	}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			g.instrIdx[in.ID] = int32(i)
		}
	}
	return g
}

// pendingEdge is an edge awaiting its place in the CSR arrays.
type pendingEdge struct {
	from int32
	Edge
}

// Build constructs the SEG for one analyzed function.
func Build(f *ir.Func, inf *ssa.Info, pr *pta.Result) *Graph {
	g := newGraph(f, inf, pr)
	g.nodes = make([]*Node, 0, f.NumValues()+f.NumInstrs()/2)
	g.slab = make([]Node, 0, cap(g.nodes))
	pend := make([]pendingEdge, 0, f.NumInstrs())
	addEdge := func(from, to *Node, c *cond.Cond) {
		if !c.IsFalse() {
			pend = append(pend, pendingEdge{from: from.idx, Edge: Edge{To: to, Cond: c}})
		}
	}
	tr := inf.Conds.True()
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpCopy:
				addEdge(g.ValueNode(in.Args[0]), g.ValueNode(in.Dst), tr)
			case ir.OpUn, ir.OpFieldAddr:
				// A field address aliases the same object as its base:
				// for value-flow purposes (a freed base makes field
				// accesses dangling) the flow continues through it.
				addEdge(g.ValueNode(in.Args[0]), g.ValueNode(in.Dst), tr)
			case ir.OpBin:
				// Both operands feed the result (the operator vertex of
				// the paper is folded into the defining instruction,
				// which DD-constraint generation consults directly).
				addEdge(g.ValueNode(in.Args[0]), g.ValueNode(in.Dst), tr)
				addEdge(g.ValueNode(in.Args[1]), g.ValueNode(in.Dst), tr)
			case ir.OpPhi:
				gates := inf.GatesOf(in)
				for i, a := range in.Args {
					c := tr
					if gates != nil {
						c = gates[i]
					}
					addEdge(g.ValueNode(a), g.ValueNode(in.Dst), c)
				}
			case ir.OpLoad:
				// Deref use of the address.
				addEdge(g.ValueNode(in.Args[0]), g.useNode(in, 0, RoleDerefAddr, in.Args[0]), tr)
				// Memory-induced data dependence from stored values.
				for _, gv := range pr.LoadSources(in) {
					addEdge(g.ValueNode(gv.Val), g.ValueNode(in.Dst), gv.Cond)
				}
			case ir.OpStore:
				addEdge(g.ValueNode(in.Args[0]), g.useNode(in, 0, RoleDerefAddr, in.Args[0]), tr)
				addEdge(g.ValueNode(in.Args[1]), g.useNode(in, 1, RoleStoreVal, in.Args[1]), tr)
			case ir.OpFree:
				addEdge(g.ValueNode(in.Args[0]), g.useNode(in, 0, RoleFreeArg, in.Args[0]), tr)
			case ir.OpCall:
				for i, a := range in.Args {
					addEdge(g.ValueNode(a), g.useNode(in, i, RoleCallArg, a), tr)
				}
				for _, d := range in.Dsts {
					if d != nil {
						g.ValueNode(d)
					}
				}
			case ir.OpRet:
				for i, a := range in.Args {
					addEdge(g.ValueNode(a), g.useNode(in, i, RoleRetArg, a), tr)
				}
			}
		}
	}

	// Counting sort of the pending edges by source vertex; it is stable, so
	// every vertex keeps its edges in insertion order.
	g.succStart = make([]int32, len(g.nodes)+1)
	for i := range pend {
		g.succStart[pend[i].from+1]++
	}
	for i := range g.nodes {
		g.succStart[i+1] += g.succStart[i]
	}
	g.edges = make([]Edge, len(pend))
	fill := append([]int32(nil), g.succStart[:len(g.nodes)]...)
	for i := range pend {
		e := &pend[i]
		g.edges[fill[e.from]] = e.Edge
		fill[e.from]++
	}
	return g
}

// EnsureValueNodes pre-creates the value vertex of every parameter and every
// instruction operand/result of the function. The detection engine requests
// value vertices lazily (ValueNode creates on first use, mutating the
// graph); pre-creating every vertex the search can possibly name freezes the
// graph, so concurrent detection workers only ever read it.
func (g *Graph) EnsureValueNodes() {
	for _, p := range g.Fn.Params {
		g.ValueNode(p)
	}
	for _, b := range g.Fn.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a != nil {
					g.ValueNode(a)
				}
			}
			if in.Dst != nil {
				g.ValueNode(in.Dst)
			}
			for _, d := range in.Dsts {
				if d != nil {
					g.ValueNode(d)
				}
			}
		}
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
	if g.reachDone == nil {
		nb := g.Fn.NumBlocks()
		g.reachWords = (nb + 63) / 64
		g.reach = make([]uint64, nb*g.reachWords)
		g.reachDone = make([]bool, nb)
	}
	row := g.reach[from.ID*g.reachWords : (from.ID+1)*g.reachWords]
	if g.reachDone[from.ID] {
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
	g.reachDone[from.ID] = true
	return row
}

// CD returns the direct control-dependence condition of the statement an
// instruction belongs to (the CD(v@s) of Equation 1, non-recursive part).
func (g *Graph) CD(in *ir.Instr) *cond.Cond {
	return g.Info.CDCond(in.Block)
}
