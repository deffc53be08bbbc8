// Package modref computes function side-effect summaries: which memory
// access paths rooted at formal parameters or globals each function
// references (loads) or modifies (stores), the MOD/REF sets of Pinpoint
// §3.1.2.
//
// The analysis tags SSA pointer values with access paths (root, depth),
// where root is a formal parameter or a global and depth counts
// dereferences from the root. A load through an address tagged (r, k)
// references *(r, k+1); a store through it modifies *(r, k+1). Call sites
// import the callee's summary, composing the callee's root-relative paths
// with the tags of the actual arguments, so the analysis runs bottom-up
// over the call graph; strongly connected components (recursion) iterate to
// a fixpoint. Access paths deeper than MaxDepth are dropped — the standard
// soundy depth cut-off.
package modref

import (
	"cmp"
	"slices"
	"strconv"

	"repro/internal/conc"
	"repro/internal/ir"
)

// MaxDepth is the deepest access path tracked.
const MaxDepth = 3

// Root identifies an access-path root: parameter index or global name.
type Root struct {
	Param  int // parameter index, or -1 for globals
	Global string
}

// IsGlobal reports whether the root is a global variable.
func (r Root) IsGlobal() bool { return r.Param < 0 }

// Path is an access path *(root, depth) with depth >= 1.
type Path struct {
	Root  Root
	Depth int
}

// Summary is a function's side-effect summary: the paths it references and
// the paths it modifies, each a set kept sorted (ComparePaths) in a slice of
// exactly its length. A function's sets are a handful of paths, so a search
// is a few comparisons and a summary at rest is at most two small arrays.
type Summary struct {
	Ref []Path
	Mod []Path
}

// NewSummary returns an empty summary.
func NewSummary() *Summary { return &Summary{} }

// none is the summary of every function without side effects whose
// summary has settled.
var none Summary

// Settled returns the summary to keep once s's fixpoint has converged: s, or
// for an empty s — most functions' — the one empty summary they all share,
// which never grows.
func (s *Summary) Settled() *Summary {
	if len(s.Ref)+len(s.Mod) == 0 {
		return &none
	}
	return s
}

// Refs and Mods report whether the summary references or modifies p.
func (s *Summary) Refs(p Path) bool { return has(s.Ref, p) }
func (s *Summary) Mods(p Path) bool { return has(s.Mod, p) }

// AddRef and AddMod add p to the summary, reporting whether it was new.
func (s *Summary) AddRef(p Path) bool { return add(&s.Ref, p) }
func (s *Summary) AddMod(p Path) bool { return add(&s.Mod, p) }

func has(set []Path, p Path) bool {
	_, ok := slices.BinarySearchFunc(set, p, ComparePaths)
	return ok
}

// add inserts p into a sorted set. The set grows into a new array: the old
// one is left as it was to whoever ranges over it (a recursive function
// imports its own summary).
func add(set *[]Path, p Path) bool {
	at, ok := slices.BinarySearchFunc(*set, p, ComparePaths)
	if !ok {
		*set = slices.Concat((*set)[:at], []Path{p}, (*set)[at:])
	}
	return !ok
}

// Paths returns the union of Ref and Mod paths, sorted: parameters before
// globals, then by root, then by depth. The connector transformation relies
// on this order being deterministic.
func (s *Summary) Paths() []Path {
	out := slices.Concat(s.Ref, s.Mod)
	slices.SortFunc(out, ComparePaths)
	return slices.Compact(out)
}

// ComparePaths orders paths the way a Summary keeps them: parameters before
// globals, then by parameter index or global name, then by depth.
func ComparePaths(a, b Path) int {
	ag, bg := a.Root.IsGlobal(), b.Root.IsGlobal()
	switch {
	case ag != bg:
		if ag {
			return 1
		}
		return -1
	case !ag && a.Root.Param != b.Root.Param:
		return cmp.Compare(a.Root.Param, b.Root.Param)
	case ag && a.Root.Global != b.Root.Global:
		return cmp.Compare(a.Root.Global, b.Root.Global)
	}
	return cmp.Compare(a.Depth, b.Depth)
}

// Fingerprint renders the summary as a canonical string — equal summaries
// (same Ref and Mod path sets) always produce equal fingerprints. The
// incremental session uses fingerprint equality as its change-propagation
// cutoff: a recomputed summary with an unchanged fingerprint stops the
// callee→caller invalidation wave.
func (s *Summary) Fingerprint() string { return string(s.AppendFingerprint(nil)) }

// AppendFingerprint appends the bytes of Fingerprint to b.
func (s *Summary) AppendFingerprint(b []byte) []byte {
	for _, p := range s.Paths() {
		if s.Refs(p) {
			b = append(b, 'R')
		}
		if s.Mods(p) {
			b = append(b, 'M')
		}
		if p.Root.IsGlobal() {
			b = append(append(b, '@'), p.Root.Global...)
		} else {
			b = strconv.AppendInt(append(b, 'p'), int64(p.Root.Param), 10)
		}
		b = strconv.AppendInt(append(b, '.'), int64(p.Depth), 10)
		b = append(b, ';')
	}
	return b
}

// Result maps functions to their summaries.
type Result struct {
	Summaries map[*ir.Func]*Summary
}

// Analyze computes Mod/Ref summaries for every function in m, bottom-up
// over the call graph.
func Analyze(m *ir.Module) *Result {
	res, _ := AnalyzeWith(m, 1)
	return res
}

// AnalyzeWith is Analyze on a bounded worker pool: the SCCs of the
// condensed call graph run as a dependency-counting wavefront, so every
// SCC whose external callees are all summarized proceeds concurrently.
// The result is identical to the sequential analysis at any worker
// count — each SCC's fixpoint writes only its own members' summaries,
// reads only completed callee summaries, and the merge into a summary
// is a commutative set union.
//
// The second result is the peak wavefront width — the largest number of
// SCCs simultaneously ready or running — which the build pipeline
// surfaces as the modref.wavefront_width gauge.
func AnalyzeWith(m *ir.Module, workers int) (*Result, int) {
	res := &Result{Summaries: make(map[*ir.Func]*Summary, m.NumFuncs())}
	for pos := range m.NumFuncs() {
		res.Summaries[m.Func(pos)] = NewSummary()
	}
	lookup := func(name string) *Summary {
		if g := m.Lookup(name); g != nil {
			return res.Summaries[g]
		}
		return nil
	}
	c := condenseModule(m)
	deps := make([][]int, len(c.SCCs))
	for j := range deps {
		for _, jj := range c.Callees.Of(int32(j)) {
			deps[j] = append(deps[j], int(jj))
		}
	}
	width, err := conc.Wavefront(len(deps), deps, workers, func(_, i int) error {
		// Iterate to a fixpoint; this also covers self-recursion within
		// singleton SCCs.
		for changed := true; changed; {
			changed = false
			for _, v := range c.SCCs[i] {
				f := m.Func(int(v))
				if AnalyzeFunc(f, res.Summaries[f], lookup) {
					changed = true
				}
			}
		}
		return nil
	})
	if err != nil {
		// The node function never fails and Condense emits an acyclic
		// condensation, so this is unreachable; guard against regressions.
		panic(err)
	}
	for f, sum := range res.Summaries {
		res.Summaries[f] = sum.Settled()
	}
	return res, width
}

// tag is the access-path annotation of an SSA value.
type tag struct {
	root  Root
	depth int
	ok    bool
}

// AnalyzeFunc grows sum with one intraprocedural pass over f, resolving
// callee summaries through lookup (which returns nil for externals); it
// reports whether sum grew. Callers drive this to a fixpoint — package-level
// Analyze over whole-module SCCs, and the incremental session over just the
// dirty frontier.
func AnalyzeFunc(f *ir.Func, sum *Summary, lookup func(name string) *Summary) bool {
	before := len(sum.Ref) + len(sum.Mod)

	tags := make([]tag, f.NumValues()) // by value ID; a value without one is not ok
	for i, p := range f.Params {
		tags[p.ID] = tag{root: Root{Param: i}, ok: true}
	}
	addRef := func(tg tag, extra int) {
		d := tg.depth + extra
		if d >= 1 && d <= MaxDepth {
			sum.AddRef(Path{Root: tg.root, Depth: d})
		}
	}
	addMod := func(tg tag, extra int) {
		d := tg.depth + extra
		if d >= 1 && d <= MaxDepth {
			sum.AddMod(Path{Root: tg.root, Depth: d})
		}
	}

	// Blocks are visited in layout order; since defs dominate uses and
	// the CFG is acyclic, a single pass over blocks in topological order
	// would suffice, but iterating keeps this robust to any ordering.
	for pass := 0; pass < 2; pass++ {
		for _, in := range f.Order() {
			r, args := f.In(in), f.Args(in)
			switch r.Op {
			case ir.OpGlobalAddr:
				// The address of global g is a root pointer at depth 0,
				// exactly like a parameter: loading through it references
				// *(g, 1), the global's own cell.
				tags[r.Dst] = tag{root: Root{Param: -1, Global: f.Sub(in)}, ok: true}
			case ir.OpCopy, ir.OpUn, ir.OpBin, ir.OpFieldAddr:
				// Pointer arithmetic and field selection keep the base's
				// tag (array elements and, across function boundaries,
				// fields collapse).
				if t := tags[args[0]]; t.ok {
					tags[r.Dst] = t
				}
			case ir.OpPhi:
				// Propagate only when all operands agree.
				t := tags[args[0]]
				for _, a := range args[1:] {
					if tags[a] != t {
						t.ok = false
					}
				}
				if t.ok {
					tags[r.Dst] = t
				}
			case ir.OpLoad:
				if t := tags[args[0]]; t.ok {
					addRef(t, 1)
					nt := t
					nt.depth++
					if nt.depth < MaxDepth {
						tags[r.Dst] = nt
					}
				}
			case ir.OpStore:
				if t := tags[args[0]]; t.ok {
					addMod(t, 1)
				}
			case ir.OpCall:
				if cs := lookup(f.Callee(in)); cs != nil {
					importSummary(sum, cs, args, tags)
				}
			}
		}
	}
	return len(sum.Ref)+len(sum.Mod) > before
}

// importSummary composes a callee summary into the caller at a call site.
func importSummary(sum *Summary, callee *Summary, args []int32, tags []tag) {
	apply := func(p Path, dst *[]Path) {
		if p.Root.IsGlobal() {
			// Global paths are caller paths verbatim: globals are
			// program-wide roots.
			if p.Depth <= MaxDepth {
				add(dst, p)
			}
			return
		}
		j := p.Root.Param
		if j >= len(args) {
			return
		}
		t := tags[args[j]]
		if !t.ok {
			return
		}
		// The callee's *(param_j, k) is the caller's *(root, depth+k).
		d := t.depth + p.Depth
		if d >= 1 && d <= MaxDepth {
			add(dst, Path{Root: t.root, Depth: d})
		}
	}
	for _, p := range callee.Ref {
		apply(p, &sum.Ref)
	}
	for _, p := range callee.Mod {
		apply(p, &sum.Mod)
	}
}

// condenseModule condenses m's call graph, whose vertices are the
// functions' positions in m.
func condenseModule(m *ir.Module) *Condensation {
	calls := Graph{Start: make([]int32, 1, m.NumFuncs()+1)}
	roots := make([]int32, m.NumFuncs())
	for i := range roots {
		f := m.Func(i)
		roots[i] = int32(i)
		for _, in := range f.Order() {
			if id := m.Layout.ID(f.Callee(in)); id >= 0 {
				calls.Items = append(calls.Items, int32(m.Layout.Pos(id)))
			}
		}
		calls.Start = append(calls.Start, int32(len(calls.Items)))
	}
	return Condense(calls, roots)
}

// Graph is a directed graph in compressed-sparse-row form: the successors of
// vertex v are Items[Start[v]:Start[v+1]].
type Graph struct {
	Start []int32
	Items []int32
}

// Of returns the successors of v.
func (g *Graph) Of(v int32) []int32 { return g.Items[g.Start[v]:g.Start[v+1]] }

// Condensation is a call graph cut into its strongly connected components:
// SCCs in callee-first order, members in the order Tarjan's algorithm reached
// them; Of maps a vertex to its component (-1 if no root reaches it); Callees
// and Callers are the condensed edges, each once, in both directions.
type Condensation struct {
	SCCs             [][]int32
	Of               []int32
	Callees, Callers Graph
}

// Condense runs Tarjan's algorithm over calls from each root in turn. It emits
// a component only after every component it reaches, so the order is
// callee-first, as bottom-up analyses want: every condensed edge points down.
func Condense(calls Graph, roots []int32) *Condensation {
	const unseen = -1
	n := len(calls.Start) - 1
	c := &Condensation{Of: make([]int32, n)}
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i], c.Of[i] = unseen, unseen
	}
	var stack []int32
	counter := int32(0)
	var strongconnect func(v int32)
	strongconnect = func(v int32) {
		index[v], low[v] = counter, counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range calls.Of(v) {
			if index[w] == unseen {
				strongconnect(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			at := len(stack) - 1
			for stack[at] != v {
				at--
			}
			scc := slices.Clone(stack[at:])
			slices.Reverse(scc)
			stack = stack[:at]
			for _, m := range scc {
				onStack[m] = false
				c.Of[m] = int32(len(c.SCCs))
			}
			c.SCCs = append(c.SCCs, scc)
		}
	}
	for _, v := range roots {
		if index[v] == unseen {
			strongconnect(v)
		}
	}

	nS := len(c.SCCs)
	c.Callees.Start = make([]int32, nS+1)
	c.Callers.Start = make([]int32, nS+1)
	seenFrom := make([]int32, nS) // component j+1 has an edge to this one already
	for j, scc := range c.SCCs {
		seenFrom[j] = int32(j + 1)
		for _, m := range scc {
			for _, w := range calls.Of(m) {
				if jj := c.Of[w]; seenFrom[jj] != int32(j+1) {
					seenFrom[jj] = int32(j + 1)
					c.Callees.Items = append(c.Callees.Items, jj)
					c.Callers.Start[jj+1]++
				}
			}
		}
		c.Callees.Start[j+1] = int32(len(c.Callees.Items))
	}
	for j := 0; j < nS; j++ {
		c.Callers.Start[j+1] += c.Callers.Start[j]
	}
	c.Callers.Items = make([]int32, len(c.Callees.Items))
	fill := slices.Clone(c.Callers.Start[:nS])
	for j := int32(0); j < int32(nS); j++ {
		for _, jj := range c.Callees.Of(j) {
			c.Callers.Items[fill[jj]] = j
			fill[jj]++
		}
	}
	return c
}
