package pta

import (
	"fmt"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/ssa"
	"repro/internal/wirebin"
)

// Wire form of a Result for the persistent artifact store. Values,
// instructions, and conditions are referenced by their dense per-function
// IDs (-1 = nil); table entries go out in ascending key ID so the encoding is
// deterministic, while the guarded-pair slices keep their original order
// (downstream traversals iterate them in order).

// LocWire is the serialized form of a Loc.
type LocWire struct {
	Kind  LocKind
	Instr int32
	Val   int32
	Name  string
	Field string
}

// GuardedLocWire is the serialized form of a GuardedLoc.
type GuardedLocWire struct {
	Loc  LocWire
	Cond int32
}

// GuardedValWire is the serialized form of a GuardedVal.
type GuardedValWire struct {
	Val  int32
	Cond int32
}

// PTSWire is one PTS entry. An entry with an empty Locs list is still
// meaningful: it caches "not a pointer / no targets".
type PTSWire struct {
	Val  int32
	Locs []GuardedLocWire
}

// InstrLocsWire is one StoredAt entry.
type InstrLocsWire struct {
	Instr int32
	Locs  []GuardedLocWire
}

// InstrValsWire is one LoadSources entry.
type InstrValsWire struct {
	Instr int32
	Vals  []GuardedValWire
}

// ResultWire is the serialized form of a Result (minus Fn and Info, which
// are re-attached at import).
type ResultWire struct {
	PTS         []PTSWire
	LoadSources []InstrValsWire
	StoredAt    []InstrLocsWire
	Stats       Stats
}

func wireLoc(l Loc) LocWire {
	w := LocWire{Kind: l.Kind, Instr: -1, Val: -1, Name: l.Name, Field: l.Field}
	if l.Instr != nil {
		w.Instr = int32(l.Instr.ID)
	}
	if l.Val != nil {
		w.Val = int32(l.Val.ID)
	}
	return w
}

func wireCond(c *cond.Cond) int32 {
	if c == nil {
		return -1
	}
	return int32(c.ID())
}

func wireLocs(ls []GuardedLoc) []GuardedLocWire {
	if ls == nil {
		return nil
	}
	out := make([]GuardedLocWire, len(ls))
	for i, gl := range ls {
		out[i] = GuardedLocWire{Loc: wireLoc(gl.Loc), Cond: wireCond(gl.Cond)}
	}
	return out
}

// ExportResult flattens r into wire form. The tables are ID-indexed, so
// walking them emits entries in ascending key order.
func ExportResult(r *Result) *ResultWire {
	w := &ResultWire{Stats: r.Stats}
	r.pts.Each(func(id int, locs []GuardedLoc) {
		w.PTS = append(w.PTS, PTSWire{Val: int32(id), Locs: wireLocs(locs)})
	})
	r.loadSources.Each(func(id int, vals []GuardedVal) {
		vw := InstrValsWire{Instr: int32(id)}
		if vals != nil {
			vw.Vals = make([]GuardedValWire, len(vals))
			for i, gv := range vals {
				vw.Vals[i] = GuardedValWire{Val: int32(gv.Val.ID), Cond: wireCond(gv.Cond)}
			}
		}
		w.LoadSources = append(w.LoadSources, vw)
	})
	r.storedAt.Each(func(id int, locs []GuardedLoc) {
		w.StoredAt = append(w.StoredAt, InstrLocsWire{Instr: int32(id), Locs: wireLocs(locs)})
	})
	return w
}

type importer struct {
	fn    *ir.Func
	ix    *ir.Index
	nodes []*cond.Cond
}

func (im *importer) value(id int32) (*ir.Value, error) {
	if id == -1 {
		return nil, nil
	}
	if id < 0 || int(id) >= len(im.ix.Values) || im.ix.Values[id] == nil {
		return nil, fmt.Errorf("pta: import %s: bad value id %d", im.fn.Name, id)
	}
	return im.ix.Values[id], nil
}

func (im *importer) instr(id int32) (*ir.Instr, error) {
	if id == -1 {
		return nil, nil
	}
	if id < 0 || int(id) >= len(im.ix.Instrs) || im.ix.Instrs[id] == nil {
		return nil, fmt.Errorf("pta: import %s: bad instr id %d", im.fn.Name, id)
	}
	return im.ix.Instrs[id], nil
}

func (im *importer) cond(id int32) (*cond.Cond, error) {
	if id == -1 {
		return nil, nil
	}
	if id < 0 || int(id) >= len(im.nodes) {
		return nil, fmt.Errorf("pta: import %s: bad cond id %d", im.fn.Name, id)
	}
	return im.nodes[id], nil
}

func (im *importer) locs(ws []GuardedLocWire) ([]GuardedLoc, error) {
	if ws == nil {
		return nil, nil
	}
	out := make([]GuardedLoc, len(ws))
	for i, glw := range ws {
		l := Loc{Kind: glw.Loc.Kind, Name: glw.Loc.Name, Field: glw.Loc.Field}
		var err error
		if l.Instr, err = im.instr(glw.Loc.Instr); err != nil {
			return nil, err
		}
		if l.Val, err = im.value(glw.Loc.Val); err != nil {
			return nil, err
		}
		c, err := im.cond(glw.Cond)
		if err != nil {
			return nil, err
		}
		out[i] = GuardedLoc{Loc: l, Cond: c}
	}
	return out, nil
}

// ImportResult rebuilds a Result for f from wire form. ix and nodes must
// come from the companion ir/cond imports of the same artifact.
func ImportResult(w *ResultWire, f *ir.Func, inf *ssa.Info, ix *ir.Index, nodes []*cond.Cond) (*Result, error) {
	im := &importer{fn: f, ix: ix, nodes: nodes}
	r := newResult(f, inf)
	r.Stats = w.Stats
	for _, pw := range w.PTS {
		v, err := im.value(pw.Val)
		if err != nil || v == nil {
			return nil, fmt.Errorf("pta: import %s: bad PTS value id %d", f.Name, pw.Val)
		}
		locs, err := im.locs(pw.Locs)
		if err != nil {
			return nil, err
		}
		r.pts.Put(v.ID, locs)
	}
	for _, lw := range w.LoadSources {
		in, err := im.instr(lw.Instr)
		if err != nil || in == nil {
			return nil, fmt.Errorf("pta: import %s: bad load instr id %d", f.Name, lw.Instr)
		}
		var vals []GuardedVal
		if lw.Vals != nil {
			vals = make([]GuardedVal, len(lw.Vals))
			for i, gvw := range lw.Vals {
				v, err := im.value(gvw.Val)
				if err != nil || v == nil {
					return nil, fmt.Errorf("pta: import %s: bad source value id %d", f.Name, gvw.Val)
				}
				c, err := im.cond(gvw.Cond)
				if err != nil {
					return nil, err
				}
				vals[i] = GuardedVal{Val: v, Cond: c}
			}
		}
		r.loadSources.Put(in.ID, vals)
	}
	for _, sw := range w.StoredAt {
		in, err := im.instr(sw.Instr)
		if err != nil || in == nil {
			return nil, fmt.Errorf("pta: import %s: bad store instr id %d", f.Name, sw.Instr)
		}
		locs, err := im.locs(sw.Locs)
		if err != nil {
			return nil, err
		}
		r.storedAt.Put(in.ID, locs)
	}
	return r, nil
}

// Binary codec for ResultWire. Loc names and fields repeat heavily across
// a function's points-to sets, so they are interned into a per-result
// string table (index -1 = ""). Nil and empty guarded lists are distinct
// on the wire (0 = nil, n+1 = list of n): an empty PTS entry caches "no
// targets" and must survive the round trip.

type strTable struct {
	ids map[string]int32
	s   []string
}

func (t *strTable) id(s string) int32 {
	if s == "" {
		return -1
	}
	if id, ok := t.ids[s]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]int32)
	}
	id := int32(len(t.s))
	t.ids[s] = id
	t.s = append(t.s, s)
	return id
}

func appendLocList(e *wirebin.Writer, t *strTable, ls []GuardedLocWire) {
	if ls == nil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(len(ls)) + 1)
	for i := range ls {
		gl := &ls[i]
		e.U8(uint8(gl.Loc.Kind))
		e.I32(gl.Loc.Instr)
		e.I32(gl.Loc.Val)
		e.I32(t.id(gl.Loc.Name))
		e.I32(t.id(gl.Loc.Field))
		e.I32(gl.Cond)
	}
}

func decodeLocList(r *wirebin.Reader, strs []string) ([]GuardedLocWire, error) {
	n := r.Uvarint()
	if n == 0 {
		return nil, nil
	}
	n--
	if n > uint64(r.Rest()) {
		return nil, fmt.Errorf("pta: decode: loc list length %d exceeds input", n)
	}
	str := func(id int32) (string, error) {
		if id == -1 {
			return "", nil
		}
		if id < 0 || int(id) >= len(strs) {
			return "", fmt.Errorf("pta: decode: bad string id %d", id)
		}
		return strs[id], nil
	}
	out := make([]GuardedLocWire, n)
	for i := range out {
		gl := &out[i]
		gl.Loc.Kind = LocKind(r.U8())
		gl.Loc.Instr = r.I32()
		gl.Loc.Val = r.I32()
		var err error
		if gl.Loc.Name, err = str(r.I32()); err != nil {
			return nil, err
		}
		if gl.Loc.Field, err = str(r.I32()); err != nil {
			return nil, err
		}
		gl.Cond = r.I32()
	}
	return out, nil
}

// AppendWire appends w's binary encoding to e.
func (w *ResultWire) AppendWire(e *wirebin.Writer) {
	// The string table is built while encoding entries into a side buffer,
	// then emitted first so decoding can resolve indices in one pass.
	var body wirebin.Writer
	var t strTable
	body.Uvarint(uint64(len(w.PTS)))
	for i := range w.PTS {
		body.I32(w.PTS[i].Val)
		appendLocList(&body, &t, w.PTS[i].Locs)
	}
	body.Uvarint(uint64(len(w.LoadSources)))
	for i := range w.LoadSources {
		vw := &w.LoadSources[i]
		body.I32(vw.Instr)
		if vw.Vals == nil {
			body.Uvarint(0)
		} else {
			body.Uvarint(uint64(len(vw.Vals)) + 1)
			for j := range vw.Vals {
				body.I32(vw.Vals[j].Val)
				body.I32(vw.Vals[j].Cond)
			}
		}
	}
	body.Uvarint(uint64(len(w.StoredAt)))
	for i := range w.StoredAt {
		body.I32(w.StoredAt[i].Instr)
		appendLocList(&body, &t, w.StoredAt[i].Locs)
	}
	body.Int(w.Stats.GuardsPruned)
	body.Int(w.Stats.GuardsKept)
	body.Int(w.Stats.CapWidened)
	body.Int(w.Stats.LinearQueries)
	body.Int(w.Stats.LinearUnsat)
	e.Strs(t.s)
	e.B = append(e.B, body.B...)
}

// DecodeResultWire reads one ResultWire from r.
func DecodeResultWire(r *wirebin.Reader) (*ResultWire, error) {
	strs := r.Strs()
	w := &ResultWire{}
	var err error
	if n := r.Len(); n > 0 {
		w.PTS = make([]PTSWire, n)
		for i := range w.PTS {
			w.PTS[i].Val = r.I32()
			if w.PTS[i].Locs, err = decodeLocList(r, strs); err != nil {
				return nil, err
			}
		}
	}
	if n := r.Len(); n > 0 {
		w.LoadSources = make([]InstrValsWire, n)
		for i := range w.LoadSources {
			vw := &w.LoadSources[i]
			vw.Instr = r.I32()
			if m := r.Uvarint(); m > 0 {
				m--
				if m > uint64(r.Rest()) {
					return nil, fmt.Errorf("pta: decode: val list length %d exceeds input", m)
				}
				vw.Vals = make([]GuardedValWire, m)
				for j := range vw.Vals {
					vw.Vals[j] = GuardedValWire{Val: r.I32(), Cond: r.I32()}
				}
			}
		}
	}
	if n := r.Len(); n > 0 {
		w.StoredAt = make([]InstrLocsWire, n)
		for i := range w.StoredAt {
			w.StoredAt[i].Instr = r.I32()
			if w.StoredAt[i].Locs, err = decodeLocList(r, strs); err != nil {
				return nil, err
			}
		}
	}
	w.Stats.GuardsPruned = r.Int()
	w.Stats.GuardsKept = r.Int()
	w.Stats.CapWidened = r.Int()
	w.Stats.LinearQueries = r.Int()
	w.Stats.LinearUnsat = r.Int()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("pta: decode result wire: %w", err)
	}
	return w, nil
}
