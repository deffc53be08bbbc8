package ssa

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/wirebin"
)

// Wire form of an Info for the persistent artifact store. Only state that
// cannot be recomputed deterministically from the (already serialized)
// function and condition builder goes on the wire: the φ gates, the
// atom-to-value mapping, and the canonical reach conditions. Dominator
// trees, control dependences, and RPO numbering are pure functions of the
// CFG and are rebuilt at import; the lazy memos (JoinGates, CDCond) start
// empty and replay into the imported builder, which hash-conses them back
// to the identical nodes.

// GateWire serializes one φ's gate list (parallel to the φ's Args).
type GateWire struct {
	Instr int32
	Gates []int32 // condition node IDs, -1 = nil
}

// AtomWire serializes one AtomValue entry.
type AtomWire struct {
	Atom int32
	Val  int32
}

// ReachWire serializes one block's canonical reach condition.
type ReachWire struct {
	Block int32
	Cond  int32
}

// InfoWire is the serialized form of an Info (minus Fn and Conds, which
// are serialized separately and passed back in at import).
type InfoWire struct {
	Gates     []GateWire
	AtomValue []AtomWire
	Reach     []ReachWire
}

func condID(c *cond.Cond) int32 {
	if c == nil {
		return -1
	}
	return int32(c.ID())
}

// ExportInfo flattens inf into wire form. The caller must ensure no
// concurrent mutation (no in-flight detection on this function).
func ExportInfo(inf *Info) *InfoWire {
	w := &InfoWire{}
	// The tables are ID-indexed, so walking them emits entries in ascending
	// key order — the order the wire format has always used.
	inf.gates.Each(func(id int, gates []*cond.Cond) {
		gw := GateWire{Instr: int32(id), Gates: make([]int32, len(gates))}
		for i, g := range gates {
			gw.Gates[i] = condID(g)
		}
		w.Gates = append(w.Gates, gw)
	})
	for a, v := range inf.AtomValue {
		w.AtomValue = append(w.AtomValue, AtomWire{Atom: int32(a), Val: int32(v.ID)})
	}
	sort.Slice(w.AtomValue, func(i, j int) bool { return w.AtomValue[i].Atom < w.AtomValue[j].Atom })
	for id, c := range inf.reachCond {
		if c != nil {
			w.Reach = append(w.Reach, ReachWire{Block: int32(id), Cond: condID(c)})
		}
	}
	return w
}

// ImportInfo rebuilds an Info for f from wire form. ix must be the Index
// returned by ir.ImportFunc for f; b and nodes the builder and dense node
// slice returned by cond.ImportBuilder.
func ImportInfo(w *InfoWire, f *ir.Func, ix *ir.Index, b *cond.Builder, nodes []*cond.Cond) (*Info, error) {
	order, err := cfg.Topological(f)
	if err != nil {
		return nil, fmt.Errorf("ssa: import %s: %w", f.Name, err)
	}
	inf := newInfo(f, b, order, cfg.Dominators(f), cfg.PostDominators(f))

	node := func(id int32) (*cond.Cond, error) {
		if id == -1 {
			return nil, nil
		}
		if id < 0 || int(id) >= len(nodes) {
			return nil, fmt.Errorf("ssa: import %s: bad cond id %d", f.Name, id)
		}
		return nodes[id], nil
	}
	for _, gw := range w.Gates {
		if gw.Instr < 0 || int(gw.Instr) >= len(ix.Instrs) || ix.Instrs[gw.Instr] == nil {
			return nil, fmt.Errorf("ssa: import %s: bad gate instr id %d", f.Name, gw.Instr)
		}
		gates := make([]*cond.Cond, len(gw.Gates))
		for i, id := range gw.Gates {
			if gates[i], err = node(id); err != nil {
				return nil, err
			}
		}
		inf.gates.Put(int(gw.Instr), gates)
	}
	for _, aw := range w.AtomValue {
		if aw.Val < 0 || int(aw.Val) >= len(ix.Values) || ix.Values[aw.Val] == nil {
			return nil, fmt.Errorf("ssa: import %s: bad atom value id %d", f.Name, aw.Val)
		}
		inf.AtomValue[int(aw.Atom)] = ix.Values[aw.Val]
	}
	for _, rw := range w.Reach {
		if rw.Block < 0 || int(rw.Block) >= len(ix.Blocks) || ix.Blocks[rw.Block] == nil {
			return nil, fmt.Errorf("ssa: import %s: bad reach block id %d", f.Name, rw.Block)
		}
		c, err := node(rw.Cond)
		if err != nil {
			return nil, err
		}
		inf.reachCond[rw.Block] = c
	}
	return inf, nil
}

// AppendWire appends w's binary encoding to e.
func (w *InfoWire) AppendWire(e *wirebin.Writer) {
	e.Uvarint(uint64(len(w.Gates)))
	for i := range w.Gates {
		e.I32(w.Gates[i].Instr)
		e.I32s(w.Gates[i].Gates)
	}
	e.Uvarint(uint64(len(w.AtomValue)))
	for i := range w.AtomValue {
		e.I32(w.AtomValue[i].Atom)
		e.I32(w.AtomValue[i].Val)
	}
	e.Uvarint(uint64(len(w.Reach)))
	for i := range w.Reach {
		e.I32(w.Reach[i].Block)
		e.I32(w.Reach[i].Cond)
	}
}

// DecodeInfoWire reads one InfoWire from r.
func DecodeInfoWire(r *wirebin.Reader) (*InfoWire, error) {
	w := &InfoWire{}
	if n := r.Len(); n > 0 {
		w.Gates = make([]GateWire, n)
		for i := range w.Gates {
			w.Gates[i] = GateWire{Instr: r.I32(), Gates: r.I32s()}
		}
	}
	if n := r.Len(); n > 0 {
		w.AtomValue = make([]AtomWire, n)
		for i := range w.AtomValue {
			w.AtomValue[i] = AtomWire{Atom: r.I32(), Val: r.I32()}
		}
	}
	if n := r.Len(); n > 0 {
		w.Reach = make([]ReachWire, n)
		for i := range w.Reach {
			w.Reach[i] = ReachWire{Block: r.I32(), Cond: r.I32()}
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ssa: decode info wire: %w", err)
	}
	return w, nil
}
