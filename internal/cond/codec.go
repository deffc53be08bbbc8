package cond

import (
	"fmt"

	"repro/internal/wirebin"
)

// NodeWire is the serialized form of one Cond node. A Builder's node set is
// exported as a dense slice indexed by node ID, so operand references are
// plain integer IDs pointing at earlier slice entries (operands are always
// created before the nodes that use them).
type NodeWire struct {
	Kind Kind
	Atom int32
	Ops  []int32
}

// Export snapshots the builder's full node set in ID order. Together with
// ImportBuilder it round-trips the builder exactly: node IDs, intern
// tables, and therefore the operand ordering of future And/Or calls (which
// sort by node ID) are all preserved.
func (b *Builder) Export() ([]NodeWire, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	nodes := make([]*Cond, b.nextID)
	reg := func(c *Cond) error {
		if c.id < 0 || c.id >= len(nodes) || nodes[c.id] != nil {
			return fmt.Errorf("cond: export: bad node id %d", c.id)
		}
		nodes[c.id] = c
		return nil
	}
	if err := reg(b.trueC); err != nil {
		return nil, err
	}
	if err := reg(b.falseC); err != nil {
		return nil, err
	}
	for _, c := range b.atoms {
		if err := reg(c); err != nil {
			return nil, err
		}
	}
	for _, c := range b.nots {
		if err := reg(c); err != nil {
			return nil, err
		}
	}
	for _, c := range b.nary {
		if err := reg(c); err != nil {
			return nil, err
		}
	}
	out := make([]NodeWire, len(nodes))
	for i, c := range nodes {
		if c == nil {
			return nil, fmt.Errorf("cond: export: unregistered node id %d", i)
		}
		w := NodeWire{Kind: c.kind, Atom: int32(c.atom)}
		if len(c.ops) > 0 {
			w.Ops = make([]int32, len(c.ops))
			for j, op := range c.ops {
				w.Ops[j] = int32(op.id)
			}
		}
		out[i] = w
	}
	return out, nil
}

// ImportBuilder reconstructs a Builder from an Export snapshot. It also
// returns the dense node slice so callers can resolve serialized condition
// references (node IDs) back to *Cond values.
func ImportBuilder(wire []NodeWire) (*Builder, []*Cond, error) {
	b := &Builder{
		atoms: make(map[int]*Cond, len(wire)),
		nots:  make(map[int]*Cond),
		nary:  make(map[string]*Cond),
	}
	nodes := make([]*Cond, len(wire))
	for i, w := range wire {
		var ops []*Cond
		if len(w.Ops) > 0 {
			ops = make([]*Cond, len(w.Ops))
			for j, oid := range w.Ops {
				if oid < 0 || int(oid) >= i {
					return nil, nil, fmt.Errorf("cond: import: node %d references out-of-order operand %d", i, oid)
				}
				ops[j] = nodes[oid]
			}
		}
		c := &Cond{kind: w.Kind, atom: int(w.Atom), ops: ops, id: i}
		nodes[i] = c
		switch w.Kind {
		case KTrue:
			if b.trueC != nil {
				return nil, nil, fmt.Errorf("cond: import: duplicate true node at %d", i)
			}
			b.trueC = c
		case KFalse:
			if b.falseC != nil {
				return nil, nil, fmt.Errorf("cond: import: duplicate false node at %d", i)
			}
			b.falseC = c
		case KAtom:
			b.atoms[c.atom] = c
		case KNot:
			if len(ops) != 1 {
				return nil, nil, fmt.Errorf("cond: import: KNot node %d has %d operands", i, len(ops))
			}
			b.nots[ops[0].id] = c
		case KAnd, KOr:
			if len(ops) < 2 {
				return nil, nil, fmt.Errorf("cond: import: nary node %d has %d operands", i, len(ops))
			}
			b.nary[string(naryKey(nil, w.Kind, ops))] = c
		default:
			return nil, nil, fmt.Errorf("cond: import: node %d has unknown kind %d", i, w.Kind)
		}
	}
	b.nextID = len(wire)
	if b.trueC == nil || b.falseC == nil {
		return nil, nil, fmt.Errorf("cond: import: missing constant nodes")
	}
	return b, nodes, nil
}

// AppendNodeWires appends the binary encoding of an Export snapshot to e.
func AppendNodeWires(e *wirebin.Writer, wire []NodeWire) {
	e.Uvarint(uint64(len(wire)))
	for i := range wire {
		w := &wire[i]
		e.U8(uint8(w.Kind))
		e.I32(w.Atom)
		e.I32s(w.Ops)
	}
}

// DecodeNodeWires reads one Export snapshot from r.
func DecodeNodeWires(r *wirebin.Reader) ([]NodeWire, error) {
	n := r.Len()
	var out []NodeWire
	if n > 0 {
		out = make([]NodeWire, n)
		for i := range out {
			out[i] = NodeWire{Kind: Kind(r.U8()), Atom: r.I32(), Ops: r.I32s()}
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("cond: decode node wires: %w", err)
	}
	return out, nil
}
