// Package transform implements Pinpoint's connector model (§3.1.2,
// Figure 3): it rewrites every function so that the non-local memory it
// references or modifies is passed in and out explicitly through Aux formal
// parameters and Aux return values.
//
// For a function whose Mod/Ref summary mentions access paths *(root, k)
// (root a formal parameter or a global), the transformation:
//
//   - appends one Aux formal parameter F(root,k) per referenced depth and
//     inserts entry stores  *(root,k) ← F(root,k), chaining through the aux
//     values themselves so each store is a single-level IR store;
//   - appends one Aux return value R(root,k) per modified depth, loading
//     the final contents *(root,k) right before the return and extending
//     the return operand list;
//   - rewrites every call site to the new signature: it loads the actual
//     values A(root,k) from the actual argument (or global) before the
//     call, and stores the received C(root,k) values back afterwards.
//
// Depths are made contiguous (an access at depth k implies connectors for
// 1..k), and modified paths also get input connectors so the unmodified-
// path value is preserved across the call. All inserted instructions define
// fresh values exactly once, so SSA form — and the gating/control-dependence
// information computed by package ssa — remains valid.
package transform

import (
	"fmt"
	"slices"

	"repro/internal/conc"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/modref"
)

// rootPlan is the per-root connector plan for one function.
type rootPlan struct {
	root     modref.Root
	inDepth  int // aux formals for depths 1..inDepth
	outDepth int // aux returns for depths 1..outDepth
}

// Apply rewrites all functions of m according to the Mod/Ref result.
// It must run after SSA conversion and before the points-to analysis.
func Apply(m *ir.Module, mr *modref.Result) error {
	return ApplyFuncs(m, m.Funcs, func(f *ir.Func) *modref.Summary {
		return mr.Summaries[f]
	})
}

// ApplyFuncs rewrites only funcs (a subset of m's functions) according to
// the per-function summaries resolved by sumOf. Rewriting a subset is sound
// when every function NOT in funcs already carries its final AuxIn/AuxOut:
// call-site rewriting reads nothing from a callee beyond its parameter types
// and aux specs, so retained callees feed rebuilt callers correctly, and
// retained callers remain valid as long as their callees' specs did not
// change. All signatures are extended before any body is rewritten so that
// intra-subset call sites see final specs too.
func ApplyFuncs(m *ir.Module, funcs []*ir.Func, sumOf func(*ir.Func) *modref.Summary) error {
	return ApplyFuncsWith(m, funcs, sumOf, 1)
}

// ApplyFuncsWith is ApplyFuncs on a bounded worker pool. Planning and
// signature extension mutate only each function's own signature, and
// body rewriting reads callees only through their (by then final)
// parameter types and aux specs, so both phases parallelize per
// function with a single barrier between them. Output is identical to
// the sequential transformation at any worker count.
func ApplyFuncsWith(m *ir.Module, funcs []*ir.Func, sumOf func(*ir.Func) *modref.Summary, workers int) error {
	// Phases 1–2: plan the connector interface and extend the signature.
	// Each Prep touches only funcs[i] itself.
	preps := make([]*Prepped, len(funcs))
	if err := conc.ForEach(len(funcs), workers, func(_, i int) error {
		preps[i] = Prep(m, funcs[i], sumOf(funcs[i]))
		return nil
	}); err != nil {
		return err
	}
	// Barrier: every signature is final before any body is rewritten.
	// Phase 3: rewrite bodies — entry stores, exit loads, call sites.
	return conc.ForEach(len(funcs), workers, func(_, i int) error {
		if err := preps[i].Rewrite(m, nil); err != nil {
			return fmt.Errorf("transform %s: %w", funcs[i].Name, err)
		}
		return nil
	})
}

// Prepped carries one function's connector plan after its signature has
// been extended (phases 1–2 of the transformation): the function is
// ready for body rewriting, and callers can already read its final
// AuxIn/AuxOut specs. The wavefront build extends a whole dependency
// frontier before rewriting any body.
type Prepped struct {
	f     *ir.Func
	plans []rootPlan
	aux   map[modref.Path]int32
}

// Prep decides f's connector interface from its Mod/Ref summary and
// extends its signature (aux formals and aux return specs). It mutates
// only f, so distinct functions may be prepped concurrently.
func Prep(m *ir.Module, f *ir.Func, sum *modref.Summary) *Prepped {
	plans := makePlans(paramTypes(f), moduleGlobalCap(m), sum)
	return &Prepped{f: f, plans: plans, aux: extendSignature(m, f, plans)}
}

// Rewrite performs phase 3 for the prepped function: entry stores, exit
// loads, and call-site glue. resolve maps a callee name to the function
// whose (final) signature governs the call site; nil falls back to
// m.Lookup. Every callee's signature must be final before Rewrite runs;
// Rewrite itself mutates only p's function body, so distinct functions
// may be rewritten concurrently.
func (p *Prepped) Rewrite(m *ir.Module, resolve func(string) *ir.Func) error {
	if resolve == nil {
		resolve = func(name string) *ir.Func { return m.Lookup(name) }
	}
	if err := rewriteBody(m, p.f, p.plans, p.aux, resolve); err != nil {
		return err
	}
	return p.f.Pack()
}

// ConnectorSpecs predicts the aux parameter and aux return specs that a
// function with the given pre-transform parameter types and Mod/Ref summary
// receives from the connector transformation, without lowered IR. The
// incremental session uses it to derive connector signatures straight from
// summaries, so signature stability can be detected before deciding whether
// callers need rebuilding.
func ConnectorSpecs(paramTypes []minic.Type, globals map[string]minic.Type, sum *modref.Summary) (in, out []ir.AuxSpec) {
	capOf := func(name string) int {
		t, ok := globals[name]
		if !ok {
			return 0
		}
		return t.Ptr + 1
	}
	for _, pl := range makePlans(paramTypes, capOf, sum) {
		for k := 1; k <= pl.inDepth; k++ {
			in = append(in, ir.AuxSpec{Root: pl.root.Param, Global: pl.root.Global, Depth: k})
		}
		for k := 1; k <= pl.outDepth; k++ {
			out = append(out, ir.AuxSpec{Root: pl.root.Param, Global: pl.root.Global, Depth: k})
		}
	}
	return in, out
}

// paramTypes extracts the original (pre-transform) parameter types of f.
func paramTypes(f *ir.Func) []minic.Type {
	out := make([]minic.Type, len(f.Params))
	for i, p := range f.Params {
		out[i] = p.Type
	}
	return out
}

// moduleGlobalCap adapts a module's global table to makePlans' cap lookup.
func moduleGlobalCap(m *ir.Module) func(string) int {
	return func(name string) int { return globalDepthCap(m, name) }
}

// makePlans derives contiguous in/out depths per root from a summary.
func makePlans(params []minic.Type, globalCap func(string) int, sum *modref.Summary) []rootPlan {
	if sum == nil {
		return nil
	}
	byRoot := make(map[modref.Root]*rootPlan)
	var order []modref.Root
	get := func(r modref.Root) *rootPlan {
		if p, ok := byRoot[r]; ok {
			return p
		}
		p := &rootPlan{root: r}
		byRoot[r] = p
		order = append(order, r)
		return p
	}
	for _, p := range sum.Paths() {
		pl := get(p.Root)
		if sum.Refs(p) && p.Depth > pl.inDepth {
			pl.inDepth = p.Depth
		}
		if sum.Mods(p) && p.Depth > pl.outDepth {
			pl.outDepth = p.Depth
		}
	}
	var out []rootPlan
	for _, r := range order {
		pl := byRoot[r]
		// Modified paths also need inputs (to preserve values along
		// unmodified paths), and depths must be contiguous. Cap by the
		// static pointer depth of the root so the chains stay typed.
		if pl.outDepth > pl.inDepth {
			pl.inDepth = pl.outDepth
		}
		var maxD int
		if r.IsGlobal() {
			maxD = globalCap(r.Global)
			if maxD > modref.MaxDepth {
				maxD = modref.MaxDepth
			}
		} else if r.Param < len(params) {
			maxD = params[r.Param].Ptr
		}
		if pl.inDepth > maxD {
			pl.inDepth = maxD
		}
		if pl.outDepth > maxD {
			pl.outDepth = maxD
		}
		if pl.inDepth == 0 && pl.outDepth == 0 {
			continue
		}
		out = append(out, *pl)
	}
	return out
}

// globalDepthCap returns the depth cap for a global root in module m.
func globalDepthCap(m *ir.Module, name string) int {
	g, ok := m.GlobalByName[name]
	if !ok {
		return 0
	}
	return g.Type.Ptr + 1
}

// pathType returns the type of the value at *(root, depth).
func pathType(m *ir.Module, f *ir.Func, r modref.Root, depth int) minic.Type {
	if r.IsGlobal() {
		t := m.GlobalByName[r.Global].Type
		for i := 1; i < depth; i++ {
			if !t.IsPointer() {
				break
			}
			t = t.Elem()
		}
		return t
	}
	t := f.Params[r.Param].Type
	for i := 0; i < depth; i++ {
		if !t.IsPointer() {
			break
		}
		t = t.Elem()
	}
	return t
}

// extendSignature appends aux formal parameters and records aux specs.
// Depth caps are already folded into the plans by makePlans.
func extendSignature(m *ir.Module, f *ir.Func, plans []rootPlan) map[modref.Path]int32 {
	aux := make(map[modref.Path]int32)
	for _, pl := range plans {
		for k := 1; k <= pl.inDepth; k++ {
			spec := ir.AuxSpec{Root: pl.root.Param, Global: pl.root.Global, Depth: k}
			name := auxName("F", pl.root, k)
			v := f.NewParam(name, pathType(m, f, pl.root, k), true)
			f.AuxIn = append(f.AuxIn, spec)
			aux[modref.Path{Root: pl.root, Depth: k}] = v
		}
	}
	for _, pl := range plans {
		for k := 1; k <= pl.outDepth; k++ {
			spec := ir.AuxSpec{Root: pl.root.Param, Global: pl.root.Global, Depth: k}
			f.AuxOut = append(f.AuxOut, spec)
		}
	}
	if len(plans) > 0 {
		// The function's interface outlives its body: it keeps no append
		// slack.
		f.Params, f.AuxIn, f.AuxOut = slices.Clip(slices.Clone(f.Params)), slices.Clip(slices.Clone(f.AuxIn)), slices.Clip(slices.Clone(f.AuxOut))
	}
	return aux
}

func auxName(prefix string, r modref.Root, k int) string {
	if r.IsGlobal() {
		return fmt.Sprintf("%s@%s.%d", prefix, r.Global, k)
	}
	return fmt.Sprintf("%s%d.%d", prefix, r.Param, k)
}

// rewriteBody inserts entry stores, exit loads, and call-site glue.
func rewriteBody(m *ir.Module, f *ir.Func, plans []rootPlan, aux map[modref.Path]int32, resolve func(string) *ir.Func) error {
	// Entry stores: *(root,k) ← F(root,k), chained through the aux
	// values. Insert after any Alloc/param-spill prologue? Inserting at
	// index 0 is safe: roots are parameters or globals, and the values
	// stored are parameters — none depend on body instructions.
	at := 0
	for _, pl := range plans {
		prev, err := rootValue(m, f, pl.root, f.Entry, &at)
		if err != nil {
			return err
		}
		for k := 1; k <= pl.inDepth; k++ {
			fv, ok := aux[modref.Path{Root: pl.root, Depth: k}]
			if !ok {
				return fmt.Errorf("missing aux formal for %v depth %d", pl.root, k)
			}
			f.InsertAt(f.Entry, at, ir.Spec{Op: ir.OpStore, Args: []int32{prev, fv}, Loc: f.Loc(), Synthetic: true})
			at++
			if !f.Type(fv).IsPointer() {
				break
			}
			prev = fv
		}
	}

	// Exit loads feeding the aux return values.
	ret := f.Term(f.Exit)
	if ret < 0 || f.In(ret).Op != ir.OpRet {
		return fmt.Errorf("exit block lacks a return")
	}
	retIdx := len(f.Instrs(f.Exit)) - 1
	for _, pl := range plans {
		if pl.outDepth == 0 {
			continue
		}
		prev, err := rootValue(m, f, pl.root, f.Exit, &retIdx)
		if err != nil {
			return err
		}
		for k := 1; k <= pl.outDepth; k++ {
			rv := f.NewVar(auxName("R", pl.root, k), pathType(m, f, pl.root, k), 0)
			f.InsertAt(f.Exit, retIdx, ir.Spec{Op: ir.OpLoad, Dst: rv, Args: []int32{prev}, Loc: f.Loc(), Synthetic: true})
			f.SetAux(rv)
			retIdx++
			f.AppendArgs(ret, rv)
			prev = rv
		}
	}

	// Call sites.
	for _, b := range f.Blocks() {
		for idx := 0; idx < len(f.Instrs(b)); idx++ {
			in := f.Instrs(b)[idx]
			if f.In(in).Op != ir.OpCall {
				continue
			}
			callee := resolve(f.Callee(in))
			if callee == nil {
				continue
			}
			n, err := rewriteCallSite(m, f, b, idx, in, callee)
			if err != nil {
				return err
			}
			idx += n
		}
	}
	return nil
}

// rootValue materializes the root pointer value in block b (for globals,
// inserts a gaddr at *at, advancing it).
func rootValue(m *ir.Module, f *ir.Func, r modref.Root, b int32, at *int) (int32, error) {
	if r.IsGlobal() {
		return globalAddr(m, f, b, at, r.Global, f.Loc()), nil
	}
	if r.Param >= len(f.Params) {
		return -1, fmt.Errorf("root param %d out of range", r.Param)
	}
	return f.Params[r.Param].ID, nil
}

// globalAddr inserts the address of global name at *at of block b, advancing
// *at, and returns it.
func globalAddr(m *ir.Module, f *ir.Func, b int32, at *int, name string, loc ir.Loc) int32 {
	addr := f.NewVar("&@"+name, m.GlobalByName[name].Type.Pointer(), 0)
	f.InsertAt(b, *at, ir.Spec{Op: ir.OpGlobalAddr, Dst: addr, Sub: name, Loc: loc, Synthetic: true})
	*at++
	return addr
}

// rewriteCallSite threads aux values through one call, reading only the
// callee's parameter types and final AuxIn/AuxOut specs. It returns how many
// instructions were inserted before the call (so the caller can adjust its
// scan index past the call and its epilogue).
func rewriteCallSite(m *ir.Module, f *ir.Func, b int32, idx int, call int32, callee *ir.Func) (int, error) {
	loc := f.In(call).Loc
	inserted := 0
	insertBefore := func(s ir.Spec) {
		s.Synthetic, s.Loc = true, loc
		f.InsertAt(b, idx+inserted, s)
		inserted++
	}
	// Pre-call: compute A(root,k) actuals per callee aux-in spec order.
	// Chain per root.
	type chainKey struct {
		param  int
		global string
	}
	chains := make(map[chainKey]int32)
	rootPtr := func(spec ir.AuxSpec) (int32, error) {
		if spec.Root >= 0 {
			if args := f.Args(call); spec.Root >= len(args) {
				return -1, fmt.Errorf("call to %s: aux root %d beyond %d args", callee.Name, spec.Root, len(args))
			}
			return f.Args(call)[spec.Root], nil
		}
		key := chainKey{param: -2, global: spec.Global}
		if v, ok := chains[key]; ok {
			return v, nil
		}
		at := idx + inserted
		addr := globalAddr(m, f, b, &at, spec.Global, loc)
		inserted++
		chains[key] = addr
		return addr, nil
	}

	var extraArgs []int32
	for _, spec := range callee.AuxIn {
		key := chainKey{param: spec.Root, global: spec.Global}
		var prev int32
		if spec.Depth == 1 {
			var err error
			if prev, err = rootPtr(spec); err != nil {
				return inserted, err
			}
		} else {
			var ok bool
			if prev, ok = chains[key]; !ok {
				return inserted, fmt.Errorf("non-contiguous aux-in specs for %s", callee.Name)
			}
		}
		root := modref.Root{Param: spec.Root, Global: spec.Global}
		av := f.NewVar(auxName("A", root, spec.Depth), pathType(m, callee, root, spec.Depth), 0)
		insertBefore(ir.Spec{Op: ir.OpLoad, Dst: av, Args: []int32{prev}})
		f.SetAux(av)
		extraArgs = append(extraArgs, av)
		chains[key] = av
	}
	f.AppendArgs(call, extraArgs...)

	// Receivers for aux returns.
	var recvs []int32
	for _, spec := range callee.AuxOut {
		root := modref.Root{Param: spec.Root, Global: spec.Global}
		cv := f.NewVar(auxName("C", root, spec.Depth), pathType(m, callee, root, spec.Depth), 0)
		f.SetAux(cv)
		f.AddDst(call, cv)
		recvs = append(recvs, cv)
	}

	// Post-call stores: *(root,k) ← C(root,k), chained through the
	// received values. Insert after the call.
	after := idx + inserted + 1
	chains = make(map[chainKey]int32)
	for i, spec := range callee.AuxOut {
		key := chainKey{param: spec.Root, global: spec.Global}
		var prev int32
		switch {
		case spec.Depth == 1 && spec.Root >= 0:
			prev = f.Args(call)[spec.Root]
		case spec.Depth == 1:
			prev = globalAddr(m, f, b, &after, spec.Global, loc)
		default:
			var ok bool
			if prev, ok = chains[key]; !ok {
				return inserted, fmt.Errorf("non-contiguous aux-out specs for %s", callee.Name)
			}
		}
		f.InsertAt(b, after, ir.Spec{Op: ir.OpStore, Args: []int32{prev, recvs[i]}, Loc: loc, Synthetic: true})
		after++
		chains[key] = recvs[i]
	}
	return after - idx - 1, nil
}
