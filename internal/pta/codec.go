package pta

import (
	"fmt"
	"slices"

	"repro/internal/cond"
	"repro/internal/dense"
	"repro/internal/ir"
	"repro/internal/ssa"
	"repro/internal/wirebin"
)

// A Result persists as its three tables — points-to sets by value ID, load
// sources and store targets by instruction ID — then its Stats. Values,
// instructions, and conditions are referenced by their dense per-function
// IDs (-1 = nil); table entries go out in ascending key ID so the encoding
// is deterministic, while the guarded lists keep their original order
// (downstream traversals iterate them in order). Loc names and fields repeat
// heavily across a function's points-to sets, so they are wirebin symbols.
// Nil and empty guarded lists are distinct on the wire (0 = nil, n+1 = list
// of n): an empty entry caches "no targets" and must survive the round trip.

func encodeLocs(e *wirebin.Writer, id int, ls []GuardedLoc) {
	e.Int(id)
	if ls == nil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(len(ls)) + 1)
	for _, gl := range ls {
		e.U8(uint8(gl.Loc.Kind))
		instr, val := int32(-1), int32(-1)
		if gl.Loc.Instr != nil {
			instr = int32(gl.Loc.Instr.ID)
		}
		if gl.Loc.Val != nil {
			val = int32(gl.Loc.Val.ID)
		}
		e.I32(instr)
		e.I32(val)
		e.Sym(gl.Loc.Name)
		e.Sym(gl.Loc.Field)
		e.I32(cond.Ref(gl.Cond))
	}
}

func encodeVals(e *wirebin.Writer, id int, vs []GuardedVal) {
	e.Int(id)
	if vs == nil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(len(vs)) + 1)
	for _, gv := range vs {
		e.I32(gv.Val.ID)
		e.I32(cond.Ref(gv.Cond))
	}
}

// EncodeResult appends res to e.
func EncodeResult(e *wirebin.Writer, res *Result) {
	nv, locs, loads := int(res.numVals), &res.locs, &res.loadSources
	e.Uvarint(uint64(locs.Each(0, nv, nil)))
	locs.Each(0, nv, func(id int, ls []GuardedLoc) { encodeLocs(e, id, ls) })
	e.Uvarint(uint64(loads.Each(0, loads.IDs(), nil)))
	loads.Each(0, loads.IDs(), func(id int, vs []GuardedVal) { encodeVals(e, id, vs) })
	e.Uvarint(uint64(locs.Each(nv, locs.IDs(), nil)))
	locs.Each(nv, locs.IDs(), func(id int, ls []GuardedLoc) { encodeLocs(e, id, ls) })
	e.Int(res.Stats.GuardsPruned)
	e.Int(res.Stats.GuardsKept)
	e.Int(res.Stats.CapWidened)
	e.Int(res.Stats.LinearQueries)
	e.Int(res.Stats.LinearUnsat)
}

type decoder struct {
	r     *wirebin.Reader
	fn    *ir.Func
	ix    *ir.Index
	nodes cond.Nodes
	last  int32 // the previous key of the table being read
}

func (d *decoder) errorf(format string, args ...any) error {
	return d.r.Errorf("pta: decode %s: %s", d.fn.Name, fmt.Sprintf(format, args...))
}

// key reads a table key, which must name one of the function's values or
// instructions (through resolve) and exceed the table's previous key.
func key[T any](d *decoder, what string, resolve func(int32) (*T, error)) (int, error) {
	id := d.r.I32()
	if x, err := resolve(id); err != nil || x == nil || id <= d.last {
		return 0, d.errorf("bad table %s id %d", what, id)
	}
	d.last = id
	return int(id), nil
}

// listLen reads a guarded list's length: -1 for the nil list.
func (d *decoder) listLen() int { return d.r.Len() - 1 }

func (d *decoder) locs() ([]GuardedLoc, error) {
	n := d.listLen()
	if n < 0 {
		return nil, nil
	}
	out := make([]GuardedLoc, n)
	for i := range out {
		gl := &out[i]
		gl.Loc.Kind = LocKind(d.r.U8())
		var err error
		if gl.Loc.Instr, err = d.ix.Instr(d.r.I32()); err != nil {
			return nil, d.errorf("%v", err)
		}
		if gl.Loc.Val, err = d.ix.Value(d.r.I32()); err != nil {
			return nil, d.errorf("%v", err)
		}
		gl.Loc.Name, gl.Loc.Field = d.r.Sym(), d.r.Sym()
		if gl.Cond, err = d.nodes.At(d.r.I32()); err != nil {
			return nil, d.errorf("%v", err)
		}
		switch k := gl.Loc.Kind; {
		case k > LNull:
			return nil, d.errorf("unknown location kind %d", k)
		case (k == LAlloc || k == LMalloc) && gl.Loc.Instr == nil:
			return nil, d.errorf("allocation site without instruction")
		case k == LExt && gl.Loc.Val == nil:
			return nil, d.errorf("external location without root value")
		}
	}
	return out, nil
}

func (d *decoder) vals() ([]GuardedVal, error) {
	n := d.listLen()
	if n < 0 {
		return nil, nil
	}
	out := make([]GuardedVal, n)
	for i := range out {
		id := d.r.I32()
		v, err := d.ix.Value(id)
		if err != nil || v == nil {
			return nil, d.errorf("bad source value id %d", id)
		}
		c, err := d.nodes.At(d.r.I32())
		if err != nil {
			return nil, d.errorf("%v", err)
		}
		out[i] = GuardedVal{Val: v, Cond: c}
	}
	return out, nil
}

// DecodeResult reads the Result of f from r. ix and nodes must come from the
// ir and cond sections of the same artifact. Keys out of ascending order and
// references to values, instructions or conditions f does not have are
// errors.
func DecodeResult(r *wirebin.Reader, f *ir.Func, inf *ssa.Info, ix *ir.Index, nodes cond.Nodes) (*Result, error) {
	d := &decoder{r: r, fn: f, ix: ix, nodes: nodes}
	nv := f.NumValues()
	res := &Result{Fn: f, Info: inf, numVals: int32(nv)}
	locs := dense.NewLists[GuardedLoc](nv + f.NumInstrs())
	loadSources := dense.NewLists[GuardedVal](f.NumInstrs())
	d.last = -1
	for n := r.Len(); n > 0; n-- {
		id, err := key(d, "value", ix.Value)
		if err != nil {
			return nil, err
		}
		ls, err := d.locs()
		if err != nil {
			return nil, err
		}
		locs.Put(id, ls)
	}
	d.last = -1
	for n := r.Len(); n > 0; n-- {
		id, err := key(d, "instr", ix.Instr)
		if err != nil {
			return nil, err
		}
		vs, err := d.vals()
		if err != nil {
			return nil, err
		}
		loadSources.Put(id, vs)
	}
	// A store's targets are the points-to set of its address: the list is
	// shared, as Analyze shares it, when it is that one.
	d.last = -1
	for n := r.Len(); n > 0; n-- {
		id, err := key(d, "instr", ix.Instr)
		if err != nil {
			return nil, err
		}
		ls, err := d.locs()
		if err != nil {
			return nil, err
		}
		if args := ix.Instrs[id].Args; len(args) > 0 && int(args[0].ID) < nv {
			if addr, ok := locs.Get(int(args[0].ID)); ok && (addr == nil) == (ls == nil) && slices.Equal(addr, ls) {
				ls = addr
			}
		}
		locs.Put(nv+id, ls)
	}
	res.locs, res.loadSources = locs.Freeze(), loadSources.Freeze()
	res.Stats = Stats{
		GuardsPruned: r.Int(), GuardsKept: r.Int(), CapWidened: r.Int(),
		LinearQueries: r.Int(), LinearUnsat: r.Int(),
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return res, nil
}
