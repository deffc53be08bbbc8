// Package cond provides the symbolic condition representation used across
// the analysis, together with the linear-time contradiction solver of
// Pinpoint §3.1.1.
//
// A condition is a hash-consed boolean DAG over opaque atoms. Atoms are
// identified by integer IDs handed out by the client (typically SSA value IDs
// of branch variables or comparison expressions). Hash consing guarantees
// that structurally equal conditions are pointer-equal, which keeps the
// graphs compact (the "compact encoding" property of the SEG) and makes
// memoized traversals cheap.
package cond

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Kind discriminates the node forms of a condition DAG.
type Kind uint8

const (
	// KTrue is the always-true condition.
	KTrue Kind = iota
	// KFalse is the always-false condition.
	KFalse
	// KAtom is an opaque boolean atom (e.g. a branch variable).
	KAtom
	// KNot is logical negation of a single operand.
	KNot
	// KAnd is n-ary conjunction.
	KAnd
	// KOr is n-ary disjunction.
	KOr
)

// Cond is an immutable node in a condition DAG. Nodes must be created
// through a Builder; the zero value is not meaningful.
type Cond struct {
	kind Kind
	atom int     // valid when kind == KAtom
	ops  []*Cond // operands for KNot (1) / KAnd / KOr (>= 2)
	id   int     // unique per Builder, used for memoization keys
}

// Kind reports the node form.
func (c *Cond) Kind() Kind { return c.kind }

// Atom returns the atom ID of a KAtom node.
func (c *Cond) Atom() int {
	if c.kind != KAtom {
		panic("cond: Atom called on non-atom")
	}
	return c.atom
}

// Ops returns the operand list. Callers must not mutate it.
func (c *Cond) Ops() []*Cond { return c.ops }

// ID returns the node's unique ID within its Builder.
func (c *Cond) ID() int { return c.id }

// IsTrue reports whether c is the constant true.
func (c *Cond) IsTrue() bool { return c.kind == KTrue }

// IsFalse reports whether c is the constant false.
func (c *Cond) IsFalse() bool { return c.kind == KFalse }

// String renders the condition in a readable infix form. Atom IDs are
// printed as "aN"; clients with richer atom names should render themselves.
func (c *Cond) String() string {
	var b strings.Builder
	c.write(&b)
	return b.String()
}

func (c *Cond) write(b *strings.Builder) {
	switch c.kind {
	case KTrue:
		b.WriteString("true")
	case KFalse:
		b.WriteString("false")
	case KAtom:
		fmt.Fprintf(b, "a%d", c.atom)
	case KNot:
		b.WriteString("!")
		if c.ops[0].kind == KAnd || c.ops[0].kind == KOr {
			b.WriteString("(")
			c.ops[0].write(b)
			b.WriteString(")")
		} else {
			c.ops[0].write(b)
		}
	case KAnd, KOr:
		sep := " & "
		if c.kind == KOr {
			sep = " | "
		}
		b.WriteString("(")
		for i, op := range c.ops {
			if i > 0 {
				b.WriteString(sep)
			}
			op.write(b)
		}
		b.WriteString(")")
	}
}

// Builder hash-conses condition nodes. A mutex guards the intern table, so
// a Builder may be shared by concurrent readers and writers (the parallel
// detection scheduler conjoins conditions from many worker goroutines);
// node identity is stable because every structural key maps to exactly one
// node for the Builder's lifetime.
//
// Every function has a Builder and most functions have no branch, so an empty
// one is a single object: the constants true and false are the same two nodes
// in every Builder (IDs 0 and 1), and the intern table is made with the first
// node past them.
type Builder struct {
	mu sync.Mutex
	// made holds the nodes past the constants by ID: node id is
	// made[id-2].
	made []*Cond
	// index hash-conses made: an open-addressing table of node IDs (0: an
	// empty slot), a power of two in length and at most half full, probed
	// linearly from a node's structural hash. It holds no pointer, so the
	// collector does not scan it.
	index []int32
	// final is the prefix of made that Freeze published: Node serves it
	// without the lock. It is stored once.
	final atomic.Pointer[[]*Cond]
}

// constants are the nodes true and false of every Builder.
var constants = [2]Cond{{kind: KTrue, id: 0}, {kind: KFalse, id: 1}}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return new(Builder) }

// hash mixes a node's kind, atom and operand IDs (FNV-1a over the words).
func hash(k Kind, atom int, ops []*Cond) uint32 {
	h := uint32(2166136261)
	mix := func(x uint32) { h = (h ^ x) * 16777619 }
	mix(uint32(k))
	mix(uint32(atom))
	mix(uint32(atom >> 32))
	for _, op := range ops {
		mix(uint32(op.id))
	}
	return h
}

// same reports whether node c has kind k, atom atom and operands ops.
func same(c *Cond, k Kind, atom int, ops []*Cond) bool {
	if c.kind != k || c.atom != atom || len(c.ops) != len(ops) {
		return false
	}
	for i, op := range ops {
		if c.ops[i] != op {
			return false
		}
	}
	return true
}

// lookup returns the node of kind k, atom atom and operands ops, or nil and
// the slot of the table where it goes.
func (b *Builder) lookup(k Kind, atom int, ops []*Cond) (*Cond, int) {
	if len(b.index) == 0 {
		return nil, -1
	}
	mask := len(b.index) - 1
	for i := int(hash(k, atom, ops)) & mask; ; i = (i + 1) & mask {
		id := b.index[i]
		if id == 0 {
			return nil, i
		}
		if c := b.made[id-int32(len(constants))]; same(c, k, atom, ops) {
			return c, i
		}
	}
}

// newNode makes the node of kind k, atom atom and operands ops, which lookup
// did not find, and enters it at slot (-1: the table has none yet).
func (b *Builder) newNode(k Kind, atom int, ops []*Cond, slot int) *Cond {
	c := &Cond{kind: k, atom: atom, ops: ops, id: len(b.made) + len(constants)}
	b.made = append(b.made, c)
	if 2*len(b.made) > len(b.index) {
		b.rehash(indexLen(len(b.made)))
	} else {
		b.index[slot] = int32(c.id)
	}
	return c
}

// indexLen is the length of a table for n nodes: a power of two, at least
// twice n.
func indexLen(n int) int {
	l := 8
	for l < 2*n {
		l *= 2
	}
	return l
}

// rehash makes a table of n slots and enters every node of made into it.
func (b *Builder) rehash(n int) {
	b.index = make([]int32, n)
	mask := n - 1
	for _, c := range b.made {
		i := int(hash(c.kind, c.atom, c.ops)) & mask
		for b.index[i] != 0 {
			i = (i + 1) & mask
		}
		b.index[i] = int32(c.id)
	}
}

// Freeze marks the nodes made so far as final, so that Node serves them
// without taking the lock; nodes made later take the locked path. The owner
// of a graph calls it when the graph is final (seg.Build, seg.DecodeGraph):
// detection looks up the graph's edge and control-dependence conditions on
// every step of a walk. Only the first Freeze that finds nodes counts, and it
// leaves the node list without append slack.
func (b *Builder) Freeze() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n := len(b.made); b.final.Load() == nil && n > 0 {
		if cap(b.made) > n {
			b.made = append(make([]*Cond, 0, n), b.made...) // no append slack
		}
		final := b.made
		b.final.Store(&final)
	}
}

// Node returns the node with the given ID, or nil when the Builder has none
// under it.
func (b *Builder) Node(id int32) *Cond {
	if id >= 0 && int(id) < len(constants) {
		return &constants[id]
	}
	if final, i := b.final.Load(), int(id)-len(constants); final != nil && i >= 0 && i < len(*final) {
		return (*final)[i]
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if i := int(id) - len(constants); i >= 0 && i < len(b.made) {
		return b.made[i]
	}
	return nil
}

// NumNodes returns the number of distinct nodes created so far. The bench
// harness uses it as a deterministic size/memory proxy.
func (b *Builder) NumNodes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.made) + len(constants)
}

// Footprint returns the bytes the Builder's nodes occupy — the node list
// and its frozen prefix's header, the node records and their operand lists —
// and those of its intern table, beside the Builder itself, each allocation
// through size, which gives what one of n bytes occupies. The constants are
// shared, so they count in no Builder.
func (b *Builder) Footprint(size func(n int) int) (nodes, index int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ptr := int(unsafe.Sizeof((*Cond)(nil)))
	nodes = size(cap(b.made) * ptr)
	if b.final.Load() != nil {
		nodes += size(int(unsafe.Sizeof([]*Cond(nil))))
	}
	for _, c := range b.made {
		nodes += size(int(unsafe.Sizeof(*c))) + size(cap(c.ops)*ptr)
	}
	return nodes, size(cap(b.index) * 4)
}

// True returns the constant true condition.
func (b *Builder) True() *Cond { return &constants[0] }

// False returns the constant false condition.
func (b *Builder) False() *Cond { return &constants[1] }

// Atom returns the (hash-consed) atom with the given ID.
func (b *Builder) Atom(id int) *Cond {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, slot := b.lookup(KAtom, id, nil)
	if c == nil {
		c = b.newNode(KAtom, id, nil, slot)
	}
	return c
}

// Not returns the negation of c, applying constant folding, double-negation
// elimination, and hash consing.
func (b *Builder) Not(c *Cond) *Cond {
	switch c.kind {
	case KTrue:
		return b.False()
	case KFalse:
		return b.True()
	case KNot:
		return c.ops[0]
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	ops := [1]*Cond{c}
	n, slot := b.lookup(KNot, 0, ops[:])
	if n == nil {
		n = b.newNode(KNot, 0, []*Cond{c}, slot)
	}
	return n
}

// And returns the conjunction of the given conditions with flattening,
// deduplication, constant folding, and complementary-literal elimination
// (x & !x == false).
func (b *Builder) And(cs ...*Cond) *Cond {
	return b.buildNary(KAnd, cs)
}

// Or returns the disjunction of the given conditions with the dual
// simplifications of And.
func (b *Builder) Or(cs ...*Cond) *Cond {
	return b.buildNary(KOr, cs)
}

// Implies returns (!a | b).
func (b *Builder) Implies(a, c *Cond) *Cond {
	return b.Or(b.Not(a), c)
}

func (b *Builder) buildNary(k Kind, cs []*Cond) *Cond {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Identity and absorbing elements.
	unit, zero := b.True(), b.False()
	if k == KOr {
		unit, zero = zero, unit
	}
	// Flatten nested nodes of the same kind, drop units, detect zeros.
	var scratch [8]*Cond
	flat := scratch[:0]
	for _, c := range cs {
		if c == nil {
			panic("cond: nil operand")
		}
		var ok bool
		if flat, ok = flatten(flat, c, k, unit, zero); !ok {
			return zero
		}
	}
	if len(flat) == 0 {
		return unit
	}
	// Sort by node ID and deduplicate; detect x and !x pairs.
	slices.SortFunc(flat, func(x, y *Cond) int { return x.id - y.id })
	out := flat[:0]
	var prev *Cond
	for _, c := range flat {
		if c == prev {
			continue
		}
		out = append(out, c)
		prev = c
	}
	for _, c := range out {
		if c.kind != KNot {
			continue
		}
		if _, found := slices.BinarySearchFunc(out, c.ops[0].id, func(x *Cond, id int) int { return x.id - id }); found {
			return zero
		}
	}
	if len(out) == 1 {
		return out[0]
	}
	n, slot := b.lookup(k, 0, out)
	if n == nil {
		ops := make([]*Cond, len(out))
		copy(ops, out)
		n = b.newNode(k, 0, ops, slot)
	}
	return n
}

// flatten appends to flat the operands c contributes to a k-node: c itself,
// or recursively its operands when c is a k-node too; units vanish. It
// reports false on meeting the absorbing element.
func flatten(flat []*Cond, c *Cond, k Kind, unit, zero *Cond) ([]*Cond, bool) {
	switch {
	case c == zero:
		return flat, false
	case c == unit:
		return flat, true
	case c.kind != k:
		return append(flat, c), true
	}
	for _, op := range c.ops {
		var ok bool
		if flat, ok = flatten(flat, op, k, unit, zero); !ok {
			return flat, false
		}
	}
	return flat, true
}

// Atoms returns the set of atom IDs appearing anywhere in c.
func Atoms(c *Cond) map[int]bool {
	out := make(map[int]bool)
	seen := make(map[int]bool)
	var walk func(*Cond)
	walk = func(n *Cond) {
		if seen[n.id] {
			return
		}
		seen[n.id] = true
		if n.kind == KAtom {
			out[n.atom] = true
			return
		}
		for _, op := range n.ops {
			walk(op)
		}
	}
	walk(c)
	return out
}

// Size returns the number of distinct nodes reachable from c.
func Size(c *Cond) int {
	seen := make(map[int]bool)
	var walk func(*Cond)
	walk = func(n *Cond) {
		if seen[n.id] {
			return
		}
		seen[n.id] = true
		for _, op := range n.ops {
			walk(op)
		}
	}
	walk(c)
	return len(seen)
}
