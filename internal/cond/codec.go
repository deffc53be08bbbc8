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

// EncodeBuilder appends b's node set to e, walking the nodes by ID.
func EncodeBuilder(e *wirebin.Writer, b *Builder) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	e.Uvarint(uint64(len(b.made) + len(constants)))
	for i := range constants {
		e.U8(uint8(constants[i].kind))
	}
	for i, c := range b.made {
		if c.id != i+len(constants) {
			return fmt.Errorf("cond: encode: node %d holds id %d", i+len(constants), c.id)
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
// A node that names an operand not before it, true or false anywhere but at
// IDs 0 and 1, or a node the intern table already holds (a genuine Builder
// hash-conses them away) is an error.
func DecodeBuilder(r *wirebin.Reader) (*Builder, error) {
	n := r.Len()
	b := new(Builder)
	var slab []Cond
	if n > len(constants) {
		// The nodes live and die with the builder: one allocation for all.
		slab = make([]Cond, n-len(constants))
		b.made = make([]*Cond, 0, len(slab))
		b.index = make([]int32, indexLen(len(slab)))
	}
	node := func(id int) *Cond {
		if id < len(constants) {
			return &constants[id]
		}
		return b.made[id-len(constants)]
	}
	operand := func(i int) (*Cond, error) {
		id := r.Int()
		if id < 0 || id >= i {
			return nil, r.Errorf("cond: decode: node %d references out-of-order operand %d", i, id)
		}
		return node(id), nil
	}
	for i := 0; i < n; i++ {
		k := Kind(r.U8())
		switch {
		case i < len(constants) && k == constants[i].kind:
			continue
		case k == KTrue || k == KFalse:
			return nil, r.Errorf("cond: decode: node %d duplicates an earlier node", i)
		case i < len(constants):
			return nil, r.Errorf("cond: decode: missing constant nodes")
		}
		c := &slab[i-len(constants)]
		c.kind, c.id = k, i
		switch k {
		case KAtom:
			c.atom = r.Int()
		case KNot:
			op, err := operand(i)
			if err != nil {
				return nil, err
			}
			c.ops = []*Cond{op}
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
		default:
			return nil, r.Errorf("cond: decode: node %d has unknown kind %d", i, k)
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		dup, slot := b.lookup(c.kind, c.atom, c.ops)
		if dup != nil {
			return nil, r.Errorf("cond: decode: node %d duplicates an earlier node", i)
		}
		b.made = append(b.made, c)
		b.index[slot] = int32(i)
	}
	if n < len(constants) {
		return nil, r.Errorf("cond: decode: missing constant nodes")
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return b, nil
}
