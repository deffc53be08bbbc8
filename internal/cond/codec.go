package cond

import (
	"fmt"

	"repro/internal/wirebin"
)

// A Builder persists as its full node set in ID order: a count, then per
// node its kind byte and what the kind carries — the atom of a KAtom, the
// operand of a KNot, the operand list of a KAnd/KOr, as node IDs. Operands
// are created before the nodes that use them, so every reference points
// back. The round trip is exact: node IDs, intern tables, and therefore the
// operand order of future And/Or calls (which sort by node ID).

// Ref is the serialized reference to c: its node ID, -1 for nil.
func Ref(c *Cond) int32 {
	if c == nil {
		return -1
	}
	return int32(c.id)
}

// EncodeBuilder appends b's node set to e.
func EncodeBuilder(e *wirebin.Writer, b *Builder) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	nodes := make([]*Cond, b.nextID)
	reg := func(c *Cond) error {
		if c.id < 0 || c.id >= len(nodes) || nodes[c.id] != nil {
			return fmt.Errorf("cond: encode: bad node id %d", c.id)
		}
		nodes[c.id] = c
		return nil
	}
	if err := reg(b.trueC); err != nil {
		return err
	}
	if err := reg(b.falseC); err != nil {
		return err
	}
	for _, tab := range []map[int]*Cond{b.atoms, b.nots} {
		for _, c := range tab {
			if err := reg(c); err != nil {
				return err
			}
		}
	}
	for _, c := range b.nary {
		if err := reg(c); err != nil {
			return err
		}
	}
	e.Uvarint(uint64(len(nodes)))
	for i, c := range nodes {
		if c == nil {
			return fmt.Errorf("cond: encode: unregistered node id %d", i)
		}
		e.U8(uint8(c.kind))
		switch c.kind {
		case KAtom:
			e.Int(c.atom)
		case KNot:
			e.Int(c.ops[0].id)
		case KAnd, KOr:
			e.Uvarint(uint64(len(c.ops)))
			for _, op := range c.ops {
				e.Int(op.id)
			}
		}
	}
	return nil
}

// DecodeBuilder reads a node set from r and rebuilds the Builder around it.
// A node that names an operand not before it, a second true or false, or a
// node the intern tables already hold (a genuine Builder hash-conses them
// away) is an error.
func DecodeBuilder(r *wirebin.Reader) (*Builder, error) {
	n := r.Len()
	b := &Builder{nextID: n}
	// The nodes live and die with the builder: one allocation for all but
	// the first two — a genuine Builder's constants — which have their place
	// inside it.
	var slab []Cond
	if n > len(b.consts) {
		slab = make([]Cond, n-len(b.consts))
		b.made = make([]*Cond, len(slab))
	}
	node := func(id int) *Cond {
		if id < len(b.consts) {
			return &b.consts[id]
		}
		return b.made[id-len(b.consts)]
	}
	operand := func(i int) (*Cond, error) {
		id := r.Int()
		if id < 0 || id >= i {
			return nil, r.Errorf("cond: decode: node %d references out-of-order operand %d", i, id)
		}
		return node(id), nil
	}
	var keyBuf [64]byte
	for i := 0; i < n; i++ {
		var c *Cond
		if i < len(b.consts) {
			c = &b.consts[i]
		} else {
			c = &slab[i-len(b.consts)]
			b.made[i-len(b.consts)] = c
		}
		c.kind, c.id = Kind(r.U8()), i
		var dup bool
		switch c.kind {
		case KTrue:
			dup, b.trueC = b.trueC != nil, c
		case KFalse:
			dup, b.falseC = b.falseC != nil, c
		case KAtom:
			c.atom = r.Int()
			_, dup = b.atoms[c.atom]
			intern(&b.atoms, c.atom, c)
		case KNot:
			op, err := operand(i)
			if err != nil {
				return nil, err
			}
			c.ops = []*Cond{op}
			_, dup = b.nots[op.id]
			intern(&b.nots, op.id, c)
		case KAnd, KOr:
			m := r.Len()
			if m < 2 {
				return nil, r.Errorf("cond: decode: nary node %d has %d operands", i, m)
			}
			c.ops = make([]*Cond, m)
			for j := range c.ops {
				op, err := operand(i)
				if err != nil {
					return nil, err
				}
				if j > 0 && op.id <= c.ops[j-1].id {
					return nil, r.Errorf("cond: decode: nary node %d has operands out of order", i)
				}
				c.ops[j] = op
			}
			key := naryKey(keyBuf[:0], c.kind, c.ops)
			_, dup = b.nary[string(key)]
			intern(&b.nary, string(key), c)
		default:
			return nil, r.Errorf("cond: decode: node %d has unknown kind %d", i, c.kind)
		}
		if dup {
			return nil, r.Errorf("cond: decode: node %d duplicates an earlier node", i)
		}
	}
	if b.trueC == nil || b.falseC == nil {
		return nil, r.Errorf("cond: decode: missing constant nodes")
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return b, nil
}
