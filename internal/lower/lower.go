// Package lower translates MiniC ASTs into the CFG-based IR of package ir,
// in SSA form.
//
// Lowering applies the soundiness policies of Pinpoint §4.2 at the earliest
// possible stage:
//
//   - while-loops are unrolled once (the body is guarded by the condition
//     and executed at most one time);
//   - functions are normalized to a single return (the paper's language
//     assumes one return statement per function);
//   - short-circuit && and || become explicit control flow so their
//     evaluation order contributes branch conditions;
//   - malloc/free are intrinsics; all other undefined callees remain
//     external calls that the checkers model by name.
//
// Local variables whose address is never taken stay virtual registers:
// every assignment defines a new value, and a join gets a φ for a variable
// read after it whose incoming values differ (see ssa.go; package ssa then
// only gates the φs). Address-taken locals get an explicit stack slot
// (OpAlloc) accessed through loads and stores, exactly the memory the local
// points-to analysis reasons about.
//
// The lowering tracks only which blocks are reachable. It ends by sealing
// the CFG (ir.Func.SealCFG), which computes the block order and the dominator
// trees in one pass; the values are numbered in dominator-tree preorder from
// them, and package ssa gates from the same facts.
package lower

import (
	"fmt"
	"strconv"

	"repro/internal/conc"
	"repro/internal/ir"
	"repro/internal/minic"
)

// Intrinsic names recognized by lowering.
const (
	mallocName = "malloc"
	freeName   = "free"
)

// Program lowers a parsed program into an IR module. Duplicate function
// definitions (same name in any units) are rejected: the analysis resolves
// calls by name, so a second body would silently shadow the first.
func Program(prog *minic.Program) (*ir.Module, error) {
	return ProgramWith(prog, 1)
}

// ProgramWith is Program on a bounded worker pool: function declarations
// lower independently (FuncWith reads the module's global table and the
// pre-collected signature/struct tables, all frozen by then), so they
// run per-function in parallel and are appended to the module in
// declaration order afterwards. Output is identical to the sequential
// lowering at any worker count.
func ProgramWith(prog *minic.Program, workers int) (*ir.Module, error) {
	m := ir.NewModule()
	m.Units = len(prog.Files)
	for _, file := range prog.Files {
		for _, g := range file.Globals {
			m.AddGlobal(&ir.Global{Name: g.Name, Type: g.Type})
		}
	}
	sigs := make(sigTable)
	for _, fn := range prog.Funcs() {
		sigs[fn.Name] = fn.Ret
	}
	structs := Structs(prog)
	seen := make(map[string]*minic.FuncDecl)
	var decls []*minic.FuncDecl
	for _, file := range prog.Files {
		for _, fn := range file.Funcs {
			if prev, ok := seen[fn.Name]; ok {
				return nil, fmt.Errorf("duplicate function %q (at %s and %s)", fn.Name, prev.Pos, fn.Pos)
			}
			seen[fn.Name] = fn
			decls = append(decls, fn)
		}
	}
	fns := make([]*ir.Func, len(decls))
	if err := conc.ForEach(len(decls), workers, func(_, i int) error {
		lf, err := FuncWith(m, decls[i], sigs.lookup, structs)
		if err != nil {
			return err
		}
		fns[i] = lf
		return nil
	}); err != nil {
		return nil, err
	}
	for _, lf := range fns {
		m.AddFunc(lf)
	}
	return m, nil
}

// sigTable holds every function's declared return type, so forward calls
// resolve their result type during lowering.
type sigTable map[string]minic.Type

func (t sigTable) lookup(name string) (minic.Type, bool) {
	ret, ok := t[name]
	return ret, ok
}

// Structs pre-collects every struct layout so field accesses resolve their
// types during lowering.
func Structs(prog *minic.Program) map[string][]minic.Param {
	structs := make(map[string][]minic.Param)
	for _, file := range prog.Files {
		for _, sd := range file.Structs {
			structs[sd.Name] = sd.Fields
		}
	}
	return structs
}

// FuncWith lowers a single declaration with explicit signature and struct
// tables — the per-function artifact producer the incremental session
// builds on. sigs gives a called name's declared return type (false for an
// external); it is asked only about the functions decl calls. Lowering one
// declaration with the same tables always yields a structurally identical
// ir.Func, whichever other functions exist.
func FuncWith(m *ir.Module, decl *minic.FuncDecl, sigs func(name string) (minic.Type, bool), structs map[string][]minic.Param) (*ir.Func, error) {
	addrOf, nvars, nblocks := collectAddressTaken(decl)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.reset(nvars+len(decl.Params)+1, nblocks)
	lw := &lowerer{
		m:       m,
		f:       ir.NewFunc(decl.Name, decl.Ret, decl.Unit, decl.Pos),
		addrOf:  addrOf,
		sigs:    sigs,
		structs: structs,
		retKey:  -1,
		retIn:   -1,
		cur:     -1,
		scratch: sc,
	}
	f := lw.f
	f.Entry = f.NewBlock()
	lw.enter(f.Entry)

	// Exit block with single return; its operand is what ret$ holds there,
	// known once every return is lowered.
	f.Exit = f.NewBlock()
	if !decl.Ret.IsVoid() {
		lw.retKey = lw.declare("ret$"+decl.Name, decl.Ret)
		lw.retIn = f.Append(f.Exit, ir.Spec{Op: ir.OpRet, Args: []int32{-1}, Loc: lw.loc(decl.Pos)})
	} else {
		f.Append(f.Exit, ir.Spec{Op: ir.OpRet, Loc: lw.loc(decl.Pos)})
	}

	// Parameters. Address-taken parameters are spilled to a slot.
	for _, p := range decl.Params {
		pv := f.NewParam(p.Name, p.Type, false)
		if lw.addrOf[p.Name] {
			slot := lw.emitAlloc(p.Name, p.Type, decl.Pos)
			lw.emit(ir.Spec{Op: ir.OpStore, Args: lw.ops(slot, pv), Loc: lw.loc(decl.Pos)})
			lw.bind(p.Name, binding{key: -1, val: slot, slot: true, typ: p.Type})
		} else {
			lw.bind(p.Name, binding{key: -1, val: pv, typ: p.Type})
		}
	}

	if err := lw.stmt(decl.Body); err != nil {
		return nil, err
	}
	if lw.posErr != nil {
		return nil, lw.posErr
	}
	// Fall-through at end of body: default return value.
	if lw.cur >= 0 {
		v := int32(-1)
		if lw.retKey >= 0 {
			v = lw.defaultValue(decl.Ret)
		}
		lw.ret(v, decl.Pos)
	}
	if err := lw.finish(); err != nil {
		return nil, fmt.Errorf("lower %s: %w", decl.Name, err)
	}
	if err := f.Pack(); err != nil {
		return nil, fmt.Errorf("lower %s: %w", decl.Name, err)
	}
	if err := ir.Verify(f); err != nil {
		return nil, fmt.Errorf("lower %s: %w", decl.Name, err)
	}
	return f, nil
}

// binding is a name resolution result: a register variable, a parameter not
// written yet, or a memory slot address.
type binding struct {
	key int32 // the register variable's key (-1 if none)
	// val is the stack slot's address (slot), or else, when key is -1, the
	// parameter.
	val  int32
	slot bool
	typ  minic.Type
}

// boundName is one entry of the lowerer's binding stack.
type boundName struct {
	name string
	b    binding
}

type lowerer struct {
	m   *ir.Module
	f   *ir.Func
	cur int32 // -1 after a terminator, until a new block starts
	// live is whether cur is reachable from the entry; code after a return
	// is lowered into blocks that are not, and pruned.
	live    bool
	addrOf  map[string]bool
	sigs    func(string) (minic.Type, bool)
	structs map[string][]minic.Param
	// retKey is the key of ret$, the variable every return assigns (-1 for
	// a void function); retIn is the Exit block's ret, which reads it.
	retKey int32
	retIn  int32
	tmpN   int
	// posErr is the first source position an instruction could not carry.
	posErr error
	*scratch
}

// loc narrows a source position to what an instruction carries: line and
// column, the file being the function's. A position past that range is a
// lowering error (reported once the body is lowered), not a wrapped number.
func (lw *lowerer) loc(p minic.Pos) ir.Loc {
	l, ok := ir.LocOf(p)
	if !ok && lw.posErr == nil {
		lw.posErr = fmt.Errorf("%s: position beyond the range an instruction can carry", p)
	}
	return l
}

// fieldType resolves the type of base->field, where base is a pointer to a
// struct. Unknown structs or fields default to int (soundy typing).
func (lw *lowerer) fieldType(base minic.Type, field string) minic.Type {
	if !base.IsPointer() {
		return minic.IntType
	}
	elem := base.Elem()
	for _, f := range lw.structs[elem.StructName()] {
		if f.Name == field {
			return f.Type
		}
	}
	return minic.IntType
}

func (lw *lowerer) pushScope() { lw.scopes = append(lw.scopes, len(lw.bound)) }

func (lw *lowerer) popScope() {
	lw.bound = lw.bound[:lw.scopes[len(lw.scopes)-1]]
	lw.scopes = lw.scopes[:len(lw.scopes)-1]
}

func (lw *lowerer) bind(name string, b binding) {
	lw.bound = append(lw.bound, boundName{name: name, b: b})
}

// lookup resolves a name innermost scope first: the latest binding wins. A
// function binds a handful of names, so the scan is shorter than a hash.
func (lw *lowerer) lookup(name string) (binding, bool) {
	for i := len(lw.bound) - 1; i >= 0; i-- {
		if lw.bound[i].name == name {
			return lw.bound[i].b, true
		}
	}
	return binding{}, false
}

func (lw *lowerer) emit(s ir.Spec) int32 {
	if lw.cur < 0 {
		// Unreachable code (after return); emit into a fresh dead block
		// that SealCFG drops.
		lw.cur = lw.f.NewBlock()
	}
	in := lw.f.Append(lw.cur, s)
	lw.note(in)
	return in
}

// emitJmp ends the block with a jump to block to; its successor is the
// jump's target.
func (lw *lowerer) emitJmp(to int32, pos minic.Pos) {
	if lw.cur < 0 {
		return
	}
	lw.emit(ir.Spec{Op: ir.OpJmp, Loc: lw.loc(pos)})
	lw.f.Connect(lw.cur, to)
	lw.cur, lw.live = -1, false
}

// emitBr ends the block with a branch on cond to block t, else e: its
// successors, in that order.
func (lw *lowerer) emitBr(cond, t, e int32, pos minic.Pos) {
	if lw.cur < 0 {
		return
	}
	lw.emit(ir.Spec{Op: ir.OpBr, Args: lw.ops(cond), Loc: lw.loc(pos)})
	lw.f.Connect(lw.cur, t)
	lw.f.Connect(lw.cur, e)
	lw.cur, lw.live = -1, false
}

func (lw *lowerer) emitAlloc(name string, t minic.Type, pos minic.Pos) int32 {
	slot := lw.temp("&"+name, t.Pointer())
	lw.emit(ir.Spec{Op: ir.OpAlloc, Dst: slot, Sub: name, Loc: lw.loc(pos)})
	return slot
}

// tmp returns the one definition of a fresh temporary.
func (lw *lowerer) tmp(t minic.Type) int32 {
	return lw.temp(lw.tmpName(), t)
}

// tmpName names the next temporary: t1, t2, ... in each function.
func (lw *lowerer) tmpName() string {
	lw.tmpN++
	if lw.tmpN < len(tmpNames) {
		return tmpNames[lw.tmpN]
	}
	return "t" + strconv.Itoa(lw.tmpN)
}

// tmpNames holds the names of the first temporaries, which every function
// shares.
var tmpNames = func() (names [1024]string) {
	for i := range names {
		names[i] = "t" + strconv.Itoa(i)
	}
	return names
}()

// temp returns the one definition of a fresh variable that is never
// assigned again, so needs no tracking.
func (lw *lowerer) temp(name string, t minic.Type) int32 {
	return lw.f.NewSSA(lw.reserve(), name, t)
}

// ret assigns v to ret$ and jumps to the exit block.
func (lw *lowerer) ret(v int32, pos minic.Pos) {
	if lw.retKey >= 0 {
		lw.emit(ir.Spec{Op: ir.OpCopy, Dst: lw.define(lw.retKey), Args: lw.ops(v), Loc: lw.loc(pos)})
		if lw.live {
			lw.rets = append(lw.rets, lw.v(lw.retKey).cur)
		}
	}
	lw.emitJmp(lw.f.Exit, pos)
}

func (lw *lowerer) defaultValue(t minic.Type) int32 {
	switch {
	case t.IsPointer():
		return lw.f.ConstNull()
	case t.Base == "bool":
		return lw.f.ConstBool(false)
	default:
		return lw.f.ConstInt(0)
	}
}

func (lw *lowerer) stmt(s minic.Stmt) error {
	switch st := s.(type) {
	case *minic.BlockStmt:
		lw.pushScope()
		for _, inner := range st.Stmts {
			if err := lw.stmt(inner); err != nil {
				return err
			}
		}
		lw.popScope()
		return nil
	case *minic.DeclStmt:
		return lw.declStmt(st)
	case *minic.AssignStmt:
		return lw.assignStmt(st)
	case *minic.IfStmt:
		return lw.ifStmt(st)
	case *minic.WhileStmt:
		// Unroll once: while (c) S  ==>  if (c) { S }.
		return lw.ifStmt(&minic.IfStmt{Pos: st.Pos, Cond: st.Cond, Then: st.Body})
	case *minic.ReturnStmt:
		v := int32(-1)
		if st.Value != nil {
			var err error
			if v, err = lw.expr(st.Value, lw.f.Ret); err != nil {
				return err
			}
		} else if lw.retKey >= 0 {
			v = lw.defaultValue(lw.f.Ret)
		}
		lw.ret(v, st.Pos)
		return nil
	case *minic.ExprStmt:
		if id, ok := st.X.(*minic.Ident); ok {
			// A register read for nothing is no use: it must not make
			// the φ it would read.
			if b, g, err := lw.resolve(id); err != nil || (g == nil && !b.slot) {
				return err
			}
		}
		_, err := lw.expr(st.X, minic.VoidType)
		return err
	default:
		return fmt.Errorf("lower: unknown statement %T", s)
	}
}

func (lw *lowerer) declStmt(st *minic.DeclStmt) error {
	d := st.Decl
	var init int32
	if d.Init != nil {
		v, err := lw.expr(d.Init, d.Type)
		if err != nil {
			return err
		}
		init = v
	} else {
		init = lw.defaultValue(d.Type)
	}
	if lw.addrOf[d.Name] {
		slot := lw.emitAlloc(d.Name, d.Type, d.Pos)
		lw.emit(ir.Spec{Op: ir.OpStore, Args: lw.ops(slot, init), Loc: lw.loc(d.Pos)})
		lw.bind(d.Name, binding{key: -1, val: slot, slot: true, typ: d.Type})
	} else {
		key := lw.declare(d.Name, d.Type)
		lw.emit(ir.Spec{Op: ir.OpCopy, Dst: lw.define(key), Args: lw.ops(init), Loc: lw.loc(d.Pos)})
		lw.bind(d.Name, binding{key: key, typ: d.Type})
	}
	return nil
}

func (lw *lowerer) assignStmt(st *minic.AssignStmt) error {
	switch target := st.Target.(type) {
	case *minic.Ident:
		b, global, err := lw.resolve(target)
		if err != nil {
			return err
		}
		v, verr := lw.expr(st.Value, bindingType(b, global))
		if verr != nil {
			return verr
		}
		return lw.storeTo(target, b, global, v, st.Pos)
	case *minic.ArrowExpr: // p->f = v
		addr, err := lw.fieldAddr(target)
		if err != nil {
			return err
		}
		v, err := lw.expr(st.Value, lw.elem(addr))
		if err != nil {
			return err
		}
		lw.emit(ir.Spec{Op: ir.OpStore, Args: lw.ops(addr, v), Loc: lw.loc(st.Pos)})
		return nil
	case *minic.UnaryExpr: // *e = v (possibly multi-level)
		if target.Op != "*" {
			return fmt.Errorf("%s: invalid assignment target", st.Pos)
		}
		addr, err := lw.expr(target.X, minic.VoidType)
		if err != nil {
			return err
		}
		v, err := lw.expr(st.Value, lw.elem(addr))
		if err != nil {
			return err
		}
		lw.emit(ir.Spec{Op: ir.OpStore, Args: lw.ops(addr, v), Loc: lw.loc(st.Pos)})
		return nil
	default:
		return fmt.Errorf("%s: invalid assignment target", st.Pos)
	}
}

// resolve looks up an identifier as a local binding or a global.
func (lw *lowerer) resolve(id *minic.Ident) (binding, *ir.Global, error) {
	if b, ok := lw.lookup(id.Name); ok {
		return b, nil, nil
	}
	if g, ok := lw.m.GlobalByName[id.Name]; ok {
		return binding{key: -1}, g, nil
	}
	return binding{key: -1}, nil, fmt.Errorf("%s: undefined variable %q", id.Pos, id.Name)
}

func bindingType(b binding, g *ir.Global) minic.Type {
	if g != nil {
		return g.Type
	}
	return b.typ
}

func (lw *lowerer) storeTo(id *minic.Ident, b binding, g *ir.Global, v int32, pos minic.Pos) error {
	switch {
	case g != nil:
		addr := lw.tmp(g.Type.Pointer())
		lw.emit(ir.Spec{Op: ir.OpGlobalAddr, Dst: addr, Sub: g.Name, Loc: lw.loc(pos)})
		lw.emit(ir.Spec{Op: ir.OpStore, Args: lw.ops(addr, v), Loc: lw.loc(pos)})
	case b.slot:
		lw.emit(ir.Spec{Op: ir.OpStore, Args: lw.ops(b.val, v), Loc: lw.loc(pos)})
	case b.key < 0:
		// Parameters are immutable SSA values; introduce a shadow
		// register on first write.
		key := lw.declare(id.Name, b.typ)
		lw.emit(ir.Spec{Op: ir.OpCopy, Dst: lw.define(key), Args: lw.ops(v), Loc: lw.loc(pos)})
		lw.rebind(id.Name, binding{key: key, typ: b.typ})
	default:
		lw.emit(ir.Spec{Op: ir.OpCopy, Dst: lw.define(b.key), Args: lw.ops(v), Loc: lw.loc(pos)})
	}
	return nil
}

// rebind updates the innermost scope that binds name.
func (lw *lowerer) rebind(name string, b binding) {
	for i := len(lw.bound) - 1; i >= 0; i-- {
		if lw.bound[i].name == name {
			lw.bound[i].b = b
			return
		}
	}
	lw.bind(name, b)
}

func (lw *lowerer) ifStmt(st *minic.IfStmt) error {
	cond, err := lw.boolExpr(st.Cond)
	if err != nil {
		return err
	}
	thenB := lw.f.NewBlock()
	elseB := int32(-1)
	join := lw.f.NewBlock()
	if st.Else != nil {
		elseB = lw.f.NewBlock()
		lw.emitBr(cond, thenB, elseB, st.Pos)
	} else {
		lw.emitBr(cond, thenB, join, st.Pos)
	}
	arms := [2]arm{{end: -1}, {end: -1}}
	blocks := [2]int32{thenB, elseB}
	for i, body := range [2]minic.Stmt{st.Then, st.Else} {
		if body == nil {
			continue
		}
		mark := lw.openArm()
		lw.enter(blocks[i])
		if err := lw.stmt(body); err != nil {
			return err
		}
		arms[i].end = lw.cur
		lw.emitJmp(join, st.Pos)
		arms[i].writes = lw.closeArm(mark)
	}
	if len(lw.f.Preds(join)) == 0 {
		// Both arms returned; everything after is unreachable, join too
		// (SealCFG drops it).
		lw.saved = lw.saved[:arms[0].writes.from]
		return nil
	}
	lw.enter(join)
	lw.merge(join, arms)
	return nil
}

// boolExpr lowers a condition into a bool-typed value, materializing a named
// branch variable so that path conditions have stable atoms.
func (lw *lowerer) boolExpr(e minic.Expr) (int32, error) {
	v, err := lw.expr(e, minic.BoolType)
	if err != nil {
		return -1, err
	}
	if lw.f.Value(v).Bool() {
		return v, nil
	}
	// Coerce: c = (v != 0) for ints, (v != null) for pointers.
	var zero int32
	if lw.f.Type(v).IsPointer() {
		zero = lw.f.ConstNull()
	} else {
		zero = lw.f.ConstInt(0)
	}
	c := lw.tmp(minic.BoolType)
	lw.emit(ir.Spec{Op: ir.OpBin, Dst: c, Sub: "!=", Args: lw.ops(v, zero), Loc: lw.loc(e.ExprPos())})
	return c, nil
}

// elem is the type of what addr points to: int when it is not a pointer.
func (lw *lowerer) elem(addr int32) minic.Type {
	if t := lw.f.Type(addr); t.IsPointer() {
		return t.Elem()
	}
	return minic.IntType
}

// collectAddressTaken finds all variable names whose address is taken
// anywhere in the function (nil when there are none). It also counts the
// declarations and short circuits, the variables the lowering tracks
// besides ret$ and parameters, and the blocks the lowering will make, at
// most.
func collectAddressTaken(fn *minic.FuncDecl) (addrOf map[string]bool, vars, blocks int) {
	s := survey{blocks: 2}
	s.stmt(fn.Body)
	return s.addrOf, s.vars, s.blocks
}

type survey struct {
	addrOf       map[string]bool
	vars, blocks int
}

func (s *survey) expr(e minic.Expr) {
	switch x := e.(type) {
	case *minic.UnaryExpr:
		if id, ok := x.X.(*minic.Ident); ok && x.Op == "&" {
			if s.addrOf == nil {
				s.addrOf = make(map[string]bool)
			}
			s.addrOf[id.Name] = true
		}
		s.expr(x.X)
	case *minic.BinaryExpr:
		if x.Op == "&&" || x.Op == "||" {
			s.vars++
			s.blocks += 2
		}
		s.expr(x.X)
		s.expr(x.Y)
	case *minic.CallExpr:
		for _, a := range x.Args {
			s.expr(a)
		}
	}
}

func (s *survey) stmt(st minic.Stmt) {
	switch st := st.(type) {
	case *minic.BlockStmt:
		for _, inner := range st.Stmts {
			s.stmt(inner)
		}
	case *minic.DeclStmt:
		s.vars++
		if st.Decl.Init != nil {
			s.expr(st.Decl.Init)
		}
	case *minic.AssignStmt:
		s.expr(st.Target)
		s.expr(st.Value)
	case *minic.IfStmt:
		s.blocks += 3
		s.expr(st.Cond)
		s.stmt(st.Then)
		if st.Else != nil {
			s.stmt(st.Else)
		}
	case *minic.WhileStmt:
		s.blocks += 2
		s.expr(st.Cond)
		s.stmt(st.Body)
	case *minic.ReturnStmt:
		if st.Value != nil {
			s.expr(st.Value)
		}
	case *minic.ExprStmt:
		s.expr(st.X)
	}
}
