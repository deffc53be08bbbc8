package lower

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/minic"
)

// expr lowers an expression; hint suggests the result type when the
// expression alone cannot determine it (malloc, external calls, null).
func (lw *lowerer) expr(e minic.Expr, hint minic.Type) (int32, error) {
	switch x := e.(type) {
	case *minic.IntLit:
		return lw.f.ConstInt(x.Val), nil
	case *minic.BoolLit:
		return lw.f.ConstBool(x.Val), nil
	case *minic.NullLit:
		return lw.f.ConstNull(), nil
	case *minic.Ident:
		return lw.loadIdent(x)
	case *minic.UnaryExpr:
		return lw.unary(x, hint)
	case *minic.BinaryExpr:
		return lw.binary(x)
	case *minic.ArrowExpr:
		addr, err := lw.fieldAddr(x)
		if err != nil {
			return -1, err
		}
		v := lw.tmp(lw.elem(addr))
		lw.emit(ir.Spec{Op: ir.OpLoad, Dst: v, Args: lw.ops(addr), Loc: lw.loc(x.Pos)})
		return v, nil
	case *minic.CallExpr:
		return lw.call(x, hint)
	default:
		return -1, fmt.Errorf("lower: unknown expression %T", e)
	}
}

// fieldAddr lowers &(base->field): the base pointer is evaluated and an
// OpFieldAddr computes the field's address.
func (lw *lowerer) fieldAddr(x *minic.ArrowExpr) (int32, error) {
	base, err := lw.expr(x.X, minic.IntType.Pointer())
	if err != nil {
		return -1, err
	}
	ft := lw.fieldType(lw.f.Type(base), x.Field)
	addr := lw.tmp(ft.Pointer())
	lw.emit(ir.Spec{Op: ir.OpFieldAddr, Dst: addr, Sub: x.Field, Args: lw.ops(base), Loc: lw.loc(x.Pos)})
	return addr, nil
}

func (lw *lowerer) loadIdent(id *minic.Ident) (int32, error) {
	b, g, err := lw.resolve(id)
	if err != nil {
		return -1, err
	}
	switch {
	case g != nil:
		addr := lw.tmp(g.Type.Pointer())
		lw.emit(ir.Spec{Op: ir.OpGlobalAddr, Dst: addr, Sub: g.Name, Loc: lw.loc(id.Pos)})
		v := lw.tmp(g.Type)
		lw.emit(ir.Spec{Op: ir.OpLoad, Dst: v, Args: lw.ops(addr), Loc: lw.loc(id.Pos)})
		return v, nil
	case b.slot:
		v := lw.tmp(b.typ)
		lw.emit(ir.Spec{Op: ir.OpLoad, Dst: v, Args: lw.ops(b.val), Loc: lw.loc(id.Pos)})
		return v, nil
	case b.key < 0:
		return b.val, nil
	default:
		return lw.read(b.key), nil
	}
}

func (lw *lowerer) unary(x *minic.UnaryExpr, hint minic.Type) (int32, error) {
	switch x.Op {
	case "*":
		addr, err := lw.expr(x.X, hint.Pointer())
		if err != nil {
			return -1, err
		}
		v := lw.tmp(lw.elem(addr))
		lw.emit(ir.Spec{Op: ir.OpLoad, Dst: v, Args: lw.ops(addr), Loc: lw.loc(x.Pos)})
		return v, nil
	case "&":
		id, ok := x.X.(*minic.Ident)
		if !ok {
			return -1, fmt.Errorf("%s: '&' requires a variable operand", x.Pos)
		}
		b, g, err := lw.resolve(id)
		if err != nil {
			return -1, err
		}
		switch {
		case g != nil:
			addr := lw.tmp(g.Type.Pointer())
			lw.emit(ir.Spec{Op: ir.OpGlobalAddr, Dst: addr, Sub: g.Name, Loc: lw.loc(x.Pos)})
			return addr, nil
		case b.slot:
			return b.val, nil
		default:
			return -1, fmt.Errorf("%s: internal: %q address-taken but not spilled", x.Pos, id.Name)
		}
	case "-", "!":
		v, err := lw.expr(x.X, hint)
		if err != nil {
			return -1, err
		}
		t := lw.f.Type(v)
		if x.Op == "!" {
			t = minic.BoolType
		}
		d := lw.tmp(t)
		lw.emit(ir.Spec{Op: ir.OpUn, Dst: d, Sub: x.Op, Args: lw.ops(v), Loc: lw.loc(x.Pos)})
		return d, nil
	default:
		return -1, fmt.Errorf("%s: unknown unary operator %q", x.Pos, x.Op)
	}
}

func (lw *lowerer) binary(x *minic.BinaryExpr) (int32, error) {
	switch x.Op {
	case "&&", "||":
		return lw.shortCircuit(x)
	}
	a, err := lw.expr(x.X, minic.IntType)
	if err != nil {
		return -1, err
	}
	b, err := lw.expr(x.Y, lw.f.Type(a))
	if err != nil {
		return -1, err
	}
	t := lw.f.Type(a)
	switch x.Op {
	case "==", "!=", "<", "<=", ">", ">=":
		t = minic.BoolType
	}
	d := lw.tmp(t)
	lw.emit(ir.Spec{Op: ir.OpBin, Dst: d, Sub: x.Op, Args: lw.ops(a, b), Loc: lw.loc(x.Pos)})
	return d, nil
}

// shortCircuit lowers && and || into control flow:
//
//	t = X; if (t) { t = Y }        for &&  (skip Y when X is false)
//	t = X; if (!t) { t = Y }       for ||
//
// The φ the lowerer places for t at the join carries the gate condition, so
// the evaluation-order semantics surface in path conditions.
func (lw *lowerer) shortCircuit(x *minic.BinaryExpr) (int32, error) {
	a, err := lw.boolExpr(x.X)
	if err != nil {
		return -1, err
	}
	t := lw.declare(lw.tmpName(), minic.BoolType)
	lw.emit(ir.Spec{Op: ir.OpCopy, Dst: lw.define(t), Args: lw.ops(a), Loc: lw.loc(x.Pos)})
	evalY := lw.f.NewBlock()
	join := lw.f.NewBlock()
	if x.Op == "&&" {
		lw.emitBr(a, evalY, join, x.Pos)
	} else {
		lw.emitBr(a, join, evalY, x.Pos)
	}
	mark := lw.openArm()
	lw.enter(evalY)
	b, err := lw.boolExpr(x.Y)
	if err != nil {
		return -1, err
	}
	lw.emit(ir.Spec{Op: ir.OpCopy, Dst: lw.define(t), Args: lw.ops(b), Loc: lw.loc(x.Pos)})
	arms := [2]arm{{end: lw.cur}, {end: -1}}
	lw.emitJmp(join, x.Pos)
	arms[0].writes = lw.closeArm(mark)
	lw.enter(join)
	lw.merge(join, arms)
	return lw.read(t), nil
}

func (lw *lowerer) call(x *minic.CallExpr, hint minic.Type) (int32, error) {
	switch x.Fun {
	case mallocName:
		if len(x.Args) != 0 {
			return -1, fmt.Errorf("%s: malloc takes no arguments", x.Pos)
		}
		t := hint
		if !t.IsPointer() {
			t = minic.IntType.Pointer()
		}
		d := lw.tmp(t)
		lw.emit(ir.Spec{Op: ir.OpMalloc, Dst: d, Loc: lw.loc(x.Pos)})
		return d, nil
	case freeName:
		if len(x.Args) != 1 {
			return -1, fmt.Errorf("%s: free takes one argument", x.Pos)
		}
		p, err := lw.expr(x.Args[0], minic.IntType.Pointer())
		if err != nil {
			return -1, err
		}
		lw.emit(ir.Spec{Op: ir.OpFree, Args: lw.ops(p), Loc: lw.loc(x.Pos)})
		return p, nil
	}
	// The operands wait on a stack: lowering one may lower a call.
	base := len(lw.callArgs)
	defer func() { lw.callArgs = lw.callArgs[:base] }()
	for _, a := range x.Args {
		v, err := lw.expr(a, minic.IntType)
		if err != nil {
			return -1, err
		}
		lw.callArgs = append(lw.callArgs, v)
	}
	// Result type: known callee's declared return; externals get the
	// hint (or int when called for effect).
	var retT minic.Type
	if sig, ok := lw.sigs(x.Fun); ok {
		retT = sig
	} else {
		retT = hint
		if retT.IsVoid() {
			retT = minic.IntType
		}
	}
	dst := int32(-1)
	if !retT.IsVoid() {
		dst = lw.tmp(retT)
	}
	lw.dstBuf = append(lw.dstBuf[:0], dst)
	lw.emit(ir.Spec{Op: ir.OpCall, Dsts: lw.dstBuf, Sub: x.Fun, Args: lw.callArgs[base:], Loc: lw.loc(x.Pos)})
	if dst < 0 {
		// Void call in expression position: produce a dummy 0 so the
		// caller always gets a value.
		return lw.f.ConstInt(0), nil
	}
	return dst, nil
}
