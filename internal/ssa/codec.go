package ssa

import (
	"fmt"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/wirebin"
)

// An Info persists as only the state that cannot be recomputed from the
// (already persisted) function and condition builder: the φ gates by
// ascending instruction ID, the values registered as condition atoms by
// ascending ID (an atom's ID is its value's), and the canonical reach
// conditions by ascending block ID; conditions are node IDs, -1 = nil.
// Control dependences are a pure function of the CFG and are rebuilt on
// decode (ir.Func.ControlDeps). The lazy memo (JoinGates) starts
// empty and replay into the decoded builder, which hash-conses them back to
// the identical nodes.

// EncodeInfo appends inf to e. The caller must ensure no concurrent
// mutation (no in-flight detection on this function).
func EncodeInfo(e *wirebin.Writer, inf *Info) {
	e.Uvarint(uint64(inf.gates.Len()))
	inf.gates.Each(func(id int, gates []*cond.Cond) {
		e.Int(id)
		e.Uvarint(uint64(len(gates)))
		for _, g := range gates {
			e.I32(cond.Ref(g))
		}
	})
	e.Uvarint(uint64(len(inf.atoms)))
	for _, v := range inf.atoms {
		e.I32(v.ID)
	}
	n := 0
	for _, c := range inf.reachCond {
		if c != nil {
			n++
		}
	}
	e.Uvarint(uint64(n))
	for id, c := range inf.reachCond {
		if c != nil {
			e.Int(id)
			e.I32(cond.Ref(c))
		}
	}
}

// DecodeInfo reads the Info of f from r. ix must be the Index ir.DecodeFunc
// returned for f; b and nodes what cond.DecodeBuilder returned for the same
// artifact. Keys out of ascending order, or naming an instruction, value or
// block f does not have, are errors.
func DecodeInfo(r *wirebin.Reader, f *ir.Func, ix *ir.Index, b *cond.Builder, nodes cond.Nodes) (*Info, error) {
	errorf := func(format string, args ...any) error {
		return r.Errorf("ssa: decode %s: %s", f.Name, fmt.Sprintf(format, args...))
	}
	_, err := f.Order()
	if err != nil {
		return nil, errorf("%v", err)
	}
	inf := newInfo(f, b)

	last := int32(-1)
	n := r.Len()
	if n > 0 {
		inf.gates.Grow(f.NumInstrs())
	}
	for ; n > 0; n-- {
		id := r.I32()
		if in, err := ix.Instr(id); err != nil || in == nil || id <= last {
			return nil, errorf("bad gate instr id %d", id)
		}
		last = id
		gates := make([]*cond.Cond, r.Len())
		for i := range gates {
			if gates[i], err = nodes.At(r.I32()); err != nil {
				return nil, errorf("gate of instr %d: %v", id, err)
			}
		}
		inf.gates.Put(int(id), gates)
	}
	last = -1
	n = r.Len()
	inf.atoms = make([]*ir.Value, 0, n)
	for ; n > 0; n-- {
		id := r.I32()
		v, err := ix.Value(id)
		if err != nil || v == nil || id <= last {
			return nil, errorf("bad atom value id %d", id)
		}
		last = id
		inf.atoms = append(inf.atoms, v)
	}
	last = -1
	for n := r.Len(); n > 0; n-- {
		id := r.I32()
		if blk, err := ix.Block(id); err != nil || blk == nil || id <= last {
			return nil, errorf("bad reach block id %d", id)
		}
		last = id
		if inf.reachCond[id], err = nodes.At(r.I32()); err != nil {
			return nil, errorf("reach condition of block %d: %v", id, err)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return inf, nil
}
