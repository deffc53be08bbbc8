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
	res := &Result{Summaries: make(map[*ir.Func]*Summary, len(m.Funcs))}
	for _, f := range m.Funcs {
		res.Summaries[f] = NewSummary()
	}
	lookup := func(name string) *Summary {
		if g := m.Lookup(name); g != nil {
			return res.Summaries[g]
		}
		return nil
	}
	sccs := CallGraphSCCs(m)
	width, err := conc.Wavefront(len(sccs), SCCDeps(m, sccs), workers, func(_, i int) error {
		// Iterate to a fixpoint; this also covers self-recursion within
		// singleton SCCs.
		for changed := true; changed; {
			changed = false
			for _, f := range sccs[i] {
				if AnalyzeFunc(f, res.Summaries[f], lookup) {
					changed = true
				}
			}
		}
		return nil
	})
	if err != nil {
		// The node function never fails and CallGraphSCCs emits an acyclic
		// condensation, so this is unreachable; guard against regressions.
		panic(err)
	}
	for f, sum := range res.Summaries {
		res.Summaries[f] = sum.Settled()
	}
	return res, width
}

// SCCDeps returns, for each SCC of sccs (as produced by CallGraphSCCs),
// the indices of the SCCs containing its external callees — the edges
// of the condensed call graph, deduplicated, in deterministic order.
func SCCDeps(m *ir.Module, sccs [][]*ir.Func) [][]int {
	idx := make(map[*ir.Func]int, len(m.Funcs))
	for i, scc := range sccs {
		for _, f := range scc {
			idx[f] = i
		}
	}
	deps := make([][]int, len(sccs))
	for i, scc := range sccs {
		seen := map[int]bool{i: true}
		for _, f := range scc {
			for _, in := range f.Order() {
				g := m.Lookup(f.Callee(in))
				if g == nil {
					continue
				}
				if j := idx[g]; !seen[j] {
					seen[j] = true
					deps[i] = append(deps[i], j)
				}
			}
		}
	}
	return deps
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

// CallGraphSCCs returns the strongly connected components of the call graph
// in bottom-up (callee-first) order, via Tarjan's algorithm.
func CallGraphSCCs(m *ir.Module) [][]*ir.Func {
	callees := make(map[*ir.Func][]*ir.Func, len(m.Funcs))
	for _, f := range m.Funcs {
		seen := make(map[*ir.Func]bool)
		for _, in := range f.Order() {
			if g := m.Lookup(f.Callee(in)); g != nil && !seen[g] {
				seen[g] = true
				callees[f] = append(callees[f], g)
			}
		}
	}

	index := make(map[*ir.Func]int)
	low := make(map[*ir.Func]int)
	onStack := make(map[*ir.Func]bool)
	var stack []*ir.Func
	var sccs [][]*ir.Func
	counter := 0

	var strongconnect func(f *ir.Func)
	strongconnect = func(f *ir.Func) {
		index[f] = counter
		low[f] = counter
		counter++
		stack = append(stack, f)
		onStack[f] = true
		for _, g := range callees[f] {
			if _, ok := index[g]; !ok {
				strongconnect(g)
				if low[g] < low[f] {
					low[f] = low[g]
				}
			} else if onStack[g] && index[g] < low[f] {
				low[f] = index[g]
			}
		}
		if low[f] == index[f] {
			var scc []*ir.Func
			for {
				g := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[g] = false
				scc = append(scc, g)
				if g == f {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, f := range m.Funcs {
		if _, ok := index[f]; !ok {
			strongconnect(f)
		}
	}
	// Tarjan emits SCCs in reverse topological order of the condensation
	// — exactly callee-first, which bottom-up analysis wants.
	return sccs
}
