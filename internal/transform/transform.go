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
	aux   map[modref.Path]*ir.Value
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
	return rewriteBody(m, p.f, p.plans, p.aux, resolve)
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
func extendSignature(m *ir.Module, f *ir.Func, plans []rootPlan) map[modref.Path]*ir.Value {
	aux := make(map[modref.Path]*ir.Value)
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
	return aux
}

func auxName(prefix string, r modref.Root, k int) string {
	if r.IsGlobal() {
		return fmt.Sprintf("%s@%s.%d", prefix, r.Global, k)
	}
	return fmt.Sprintf("%s%d.%d", prefix, r.Param, k)
}

// rewriteBody inserts entry stores, exit loads, and call-site glue.
func rewriteBody(m *ir.Module, f *ir.Func, plans []rootPlan, aux map[modref.Path]*ir.Value, resolve func(string) *ir.Func) error {
	// Entry stores: *(root,k) ← F(root,k), chained through the aux
	// values. Insert after any Alloc/param-spill prologue? Inserting at
	// index 0 is safe: roots are parameters or globals, and the values
	// stored are parameters — none depend on body instructions.
	at := 0
	for _, pl := range plans {
		prev, err := rootValue(m, f, pl.root, &at)
		if err != nil {
			return err
		}
		for k := 1; k <= pl.inDepth; k++ {
			fv := aux[modref.Path{Root: pl.root, Depth: k}]
			if fv == nil {
				return fmt.Errorf("missing aux formal for %v depth %d", pl.root, k)
			}
			f.InsertAt(f.Entry, at, ir.Instr{Op: ir.OpStore, Args: []*ir.Value{prev, fv}, Loc: f.Loc(), Synthetic: true})
			at++
			if !fv.Type.IsPointer() {
				break
			}
			prev = fv
		}
	}

	// Exit loads feeding the aux return values.
	ret := f.Exit.Term()
	if ret == nil || ret.Op != ir.OpRet {
		return fmt.Errorf("exit block lacks a return")
	}
	retIdx := len(f.Exit.Instrs) - 1
	for _, pl := range plans {
		if pl.outDepth == 0 {
			continue
		}
		prev, err := rootValueAtExit(m, f, pl.root, &retIdx)
		if err != nil {
			return err
		}
		for k := 1; k <= pl.outDepth; k++ {
			rv := f.NewDef(auxName("R", pl.root, k), pathType(m, f, pl.root, k))
			ld := f.InsertAt(f.Exit, retIdx, ir.Instr{Op: ir.OpLoad, Dst: rv, Args: []*ir.Value{prev}, Loc: f.Loc(), Synthetic: true})
			rv.Def = ld
			rv.Aux = true
			retIdx++
			ret.Args = append(ret.Args, rv)
			if !rv.Type.IsPointer() {
				// Deeper levels cannot exist; plans guarantee this.
				prev = rv
				continue
			}
			prev = rv
		}
	}

	// Call sites.
	for _, b := range f.Blocks {
		for idx := 0; idx < len(b.Instrs); idx++ {
			in := b.Instrs[idx]
			if in.Op != ir.OpCall {
				continue
			}
			callee := resolve(in.Callee())
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

// rootValue materializes the root pointer value at the entry (for globals,
// inserts a gaddr at *at, advancing it).
func rootValue(m *ir.Module, f *ir.Func, r modref.Root, at *int) (*ir.Value, error) {
	if !r.IsGlobal() {
		if r.Param >= len(f.Params) {
			return nil, fmt.Errorf("root param %d out of range", r.Param)
		}
		return f.Params[r.Param], nil
	}
	g := m.GlobalByName[r.Global]
	addr := f.NewDef("&@"+r.Global, g.Type.Pointer())
	ins := f.InsertAt(f.Entry, *at, ir.Instr{Op: ir.OpGlobalAddr, Dst: addr, Sub: r.Global, Loc: f.Loc(), Synthetic: true})
	addr.Def = ins
	*at++
	return addr, nil
}

// rootValueAtExit is rootValue but inserts into the exit block at *retIdx.
func rootValueAtExit(m *ir.Module, f *ir.Func, r modref.Root, retIdx *int) (*ir.Value, error) {
	if !r.IsGlobal() {
		return f.Params[r.Param], nil
	}
	g := m.GlobalByName[r.Global]
	addr := f.NewDef("&@"+r.Global, g.Type.Pointer())
	ins := f.InsertAt(f.Exit, *retIdx, ir.Instr{Op: ir.OpGlobalAddr, Dst: addr, Sub: r.Global, Loc: f.Loc(), Synthetic: true})
	addr.Def = ins
	*retIdx++
	return addr, nil
}

// rewriteCallSite threads aux values through one call, reading only the
// callee's parameter types and final AuxIn/AuxOut specs. It returns how many
// instructions were inserted before the call (so the caller can adjust its
// scan index past the call and its epilogue).
func rewriteCallSite(m *ir.Module, f *ir.Func, b *ir.Block, idx int, call *ir.Instr, callee *ir.Func) (int, error) {
	inserted := 0
	insertBefore := func(in ir.Instr) *ir.Instr {
		in.Synthetic = true
		p := f.InsertAt(b, idx+inserted, in)
		inserted++
		return p
	}
	// Pre-call: compute A(root,k) actuals per callee aux-in spec order.
	// Chain per root.
	type chainKey struct {
		param  int
		global string
	}
	chains := make(map[chainKey]*ir.Value)
	rootPtr := func(spec ir.AuxSpec) (*ir.Value, error) {
		key := chainKey{param: spec.Root, global: spec.Global}
		if spec.Root >= 0 {
			if spec.Root >= len(call.Args) {
				return nil, fmt.Errorf("call to %s: aux root %d beyond %d args", callee.Name, spec.Root, len(call.Args))
			}
			return call.Args[spec.Root], nil
		}
		if v, ok := chains[chainKey{param: -2, global: spec.Global}]; ok {
			return v, nil
		}
		g := m.GlobalByName[spec.Global]
		addr := f.NewDef("&@"+spec.Global, g.Type.Pointer())
		ins := insertBefore(ir.Instr{Op: ir.OpGlobalAddr, Dst: addr, Sub: spec.Global, Loc: call.Loc})
		addr.Def = ins
		chains[chainKey{param: -2, global: spec.Global}] = addr
		_ = key
		return addr, nil
	}

	var extraArgs []*ir.Value
	for _, spec := range callee.AuxIn {
		key := chainKey{param: spec.Root, global: spec.Global}
		var prev *ir.Value
		if spec.Depth == 1 {
			var err error
			prev, err = rootPtr(spec)
			if err != nil {
				return inserted, err
			}
		} else {
			prev = chains[key]
			if prev == nil {
				return inserted, fmt.Errorf("non-contiguous aux-in specs for %s", callee.Name)
			}
		}
		av := f.NewDef(auxName("A", modref.Root{Param: spec.Root, Global: spec.Global}, spec.Depth), pathType(m, callee, modref.Root{Param: spec.Root, Global: spec.Global}, spec.Depth))
		ld := insertBefore(ir.Instr{Op: ir.OpLoad, Dst: av, Args: []*ir.Value{prev}, Loc: call.Loc})
		av.Def = ld
		av.Aux = true
		extraArgs = append(extraArgs, av)
		chains[key] = av
	}
	call.Args = append(call.Args, extraArgs...)

	// Receivers for aux returns.
	var recvs []*ir.Value
	for _, spec := range callee.AuxOut {
		cv := f.NewDef(auxName("C", modref.Root{Param: spec.Root, Global: spec.Global}, spec.Depth), pathType(m, callee, modref.Root{Param: spec.Root, Global: spec.Global}, spec.Depth))
		cv.Def = call
		cv.Aux = true
		call.AddDst(cv)
		recvs = append(recvs, cv)
	}

	// Post-call stores: *(root,k) ← C(root,k), chained through the
	// received values. Insert after the call.
	after := idx + inserted + 1
	insertAfter := func(in ir.Instr) *ir.Instr {
		in.Synthetic = true
		p := f.InsertAt(b, after, in)
		after++
		return p
	}
	chains = make(map[chainKey]*ir.Value)
	for i, spec := range callee.AuxOut {
		key := chainKey{param: spec.Root, global: spec.Global}
		var prev *ir.Value
		if spec.Depth == 1 {
			if spec.Root >= 0 {
				prev = call.Args[spec.Root]
			} else {
				g := m.GlobalByName[spec.Global]
				addr := f.NewDef("&@"+spec.Global, g.Type.Pointer())
				ins := insertAfter(ir.Instr{Op: ir.OpGlobalAddr, Dst: addr, Sub: spec.Global, Loc: call.Loc})
				addr.Def = ins
				prev = addr
			}
		} else {
			prev = chains[key]
			if prev == nil {
				return inserted, fmt.Errorf("non-contiguous aux-out specs for %s", callee.Name)
			}
		}
		insertAfter(ir.Instr{Op: ir.OpStore, Args: []*ir.Value{prev, recvs[i]}, Loc: call.Loc})
		chains[key] = recvs[i]
	}
	return after - idx - 1, nil
}
