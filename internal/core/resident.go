package core

import (
	"slices"
	"unsafe"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/modref"
	"repro/internal/seg"
)

// Resident is the structural ledger of an analysis: the bytes its
// per-function tables occupy, by table, computed from their lengths and
// capacities and rounded to the allocator's size classes — what the heap
// holds of the program at rest, without a heap profile. The program-level
// indexes (the layout, detection's) are not in it.
type Resident struct {
	// Instrs and Values are the bodies' instruction and value records.
	Instrs int64 `json:"instrs"`
	Values int64 `json:"values"`
	// Lists are the int32 arrays: each graph's one array of its body's
	// lists and its own, offsets first.
	Lists int64 `json:"lists"`
	// Symbols are the bodies' symbol strings.
	Symbols int64 `json:"symbols"`
	// SEGNodes and SEGEdges are the graphs' vertex and edge records.
	SEGNodes int64 `json:"seg_nodes"`
	SEGEdges int64 `json:"seg_edges"`
	// Graphs, Builders and Shells are the headers: seg.Graph (the adopted
	// body inside it), cond.Builder, and ir.Func with its parameter and aux
	// lists.
	Graphs   int64 `json:"graphs"`
	Builders int64 `json:"builders"`
	Shells   int64 `json:"shells"`
	// CondNodes are the condition nodes, their operand lists and each
	// builder's node list; CondIndex the builders' intern tables.
	CondNodes int64 `json:"cond_nodes"`
	CondIndex int64 `json:"cond_index"`
	// Summaries are the Mod/Ref summaries and their path lists.
	Summaries int64 `json:"summaries"`
	// Total sums the rows.
	Total int64 `json:"total"`
}

// Resident computes the analysis's structural ledger.
func (a *Analysis) Resident() Resident {
	var r Resident
	for pos := range a.Module.NumFuncs() {
		f := a.Module.Func(pos)
		r.Shells += int64(allocSize(int(unsafe.Sizeof(*f))) +
			allocSize(cap(f.Params)*int(unsafe.Sizeof(ir.Param{}))) +
			allocSize(cap(f.AuxIn)*int(unsafe.Sizeof(ir.AuxSpec{}))) +
			allocSize(cap(f.AuxOut)*int(unsafe.Sizeof(ir.AuxSpec{}))))
		if g := a.SEGs.At(f.ID); g != nil {
			r.addGraph(g)
		}
		if s := a.Summaries.At(f.ID); s != nil && len(s.Ref)+len(s.Mod) > 0 {
			path := int(unsafe.Sizeof(modref.Path{}))
			r.Summaries += int64(allocSize(int(unsafe.Sizeof(*s))) + allocSize(cap(s.Ref)*path) + allocSize(cap(s.Mod)*path))
		}
	}
	r.sum()
	return r
}

// sum sets Total.
func (r *Resident) sum() {
	r.Total = r.Instrs + r.Values + r.Lists + r.Symbols + r.SEGNodes + r.SEGEdges + r.Graphs + r.Builders +
		r.Shells + r.CondNodes + r.CondIndex + r.Summaries
}

// addGraph adds what graph g holds: its header, its body's tables, its own,
// and its condition builder.
func (r *Resident) addGraph(g *seg.Graph) {
	instrs, values, lists, syms := g.Body.Footprint(allocSize)
	nodes, edges := g.Footprint(allocSize)
	condNodes, index := g.Conds().Footprint(allocSize)
	r.Instrs += int64(instrs)
	r.Values += int64(values)
	r.Lists += int64(lists)
	r.Symbols += int64(syms)
	r.SEGNodes += int64(nodes)
	r.SEGEdges += int64(edges)
	r.CondNodes += int64(condNodes)
	r.CondIndex += int64(index)
	r.Graphs += int64(allocSize(int(unsafe.Sizeof(seg.Graph{}))))
	r.Builders += int64(allocSize(int(unsafe.Sizeof(cond.Builder{}))))
}

// sizeClasses are the Go allocator's small object sizes (runtime's
// sizeclasses.go): an allocation of n bytes up to the last occupies the
// first class that holds it, a larger one whole 8 KiB pages.
var sizeClasses = [...]int{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256,
	288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896, 1024, 1152, 1280, 1408, 1536, 1792,
	2048, 2304, 2688, 3072, 3200, 3456, 4096, 4864, 5376, 6144, 6528, 6784, 6912, 8192, 9472, 9728, 10240,
	10880, 12288, 13568, 14336, 16384, 18432, 19072, 20480, 21760, 24576, 27264, 28672, 32768}

// allocSize returns what an allocation of n bytes occupies on the heap.
func allocSize(n int) int {
	if n <= 0 {
		return 0
	}
	if n > sizeClasses[len(sizeClasses)-1] {
		return (n + 8191) &^ 8191
	}
	i, _ := slices.BinarySearch(sizeClasses[:], n)
	return sizeClasses[i]
}
