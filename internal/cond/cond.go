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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// Builder hash-conses condition nodes. A mutex guards the intern tables, so
// a Builder may be shared by concurrent readers and writers (the parallel
// detection scheduler conjoins conditions from many worker goroutines);
// node identity is stable because every structural key maps to exactly one
// node for the Builder's lifetime.
//
// Every function has a Builder and most functions have no branch, so an empty
// one is a single object: the constants live inside it, and each intern table
// is made when its first node is.
type Builder struct {
	mu     sync.Mutex
	consts [2]Cond // true, false: the nodes trueC and falseC point at
	trueC  *Cond
	falseC *Cond
	atoms  map[int]*Cond
	nots   map[int]*Cond    // operand id -> node
	nary   map[string]*Cond // structural key -> node
	// made holds the nodes past the constants by ID: node id is
	// made[id-2].
	made   []*Cond
	nextID int
	// final is the prefix of made that Freeze published, of nFinal nodes:
	// Node serves it without the lock. It is written once, before nFinal.
	final  []*Cond
	nFinal atomic.Int32
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	b := &Builder{nextID: 2}
	b.consts = [2]Cond{{kind: KTrue, id: 0}, {kind: KFalse, id: 1}}
	b.trueC, b.falseC = &b.consts[0], &b.consts[1]
	return b
}

// intern enters node n into table *tab under key, making the table first if
// this is its first node.
func intern[K comparable](tab *map[K]*Cond, key K, n *Cond) {
	if *tab == nil {
		*tab = make(map[K]*Cond)
	}
	(*tab)[key] = n
}

func (b *Builder) newNode(k Kind, atom int, ops []*Cond) *Cond {
	c := &Cond{kind: k, atom: atom, ops: ops, id: b.nextID}
	b.made = append(b.made, c)
	b.nextID++
	return c
}

// Freeze marks the nodes made so far as final, so that Node serves them
// without taking the lock; nodes made later take the locked path. The owner
// of a graph calls it when the graph is final (seg.Build, seg.DecodeGraph):
// detection looks up the graph's edge and control-dependence conditions on
// every step of a walk. Only the first Freeze that finds nodes counts.
func (b *Builder) Freeze() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n := len(b.made); b.nFinal.Load() == 0 && n > 0 {
		b.final = b.made[:n:n]
		b.nFinal.Store(int32(n))
	}
}

// Node returns the node with the given ID, or nil when the Builder has none
// under it.
func (b *Builder) Node(id int32) *Cond {
	if id >= 0 && int(id) < len(b.consts) {
		return &b.consts[id]
	}
	if i := id - int32(len(b.consts)); i >= 0 && i < b.nFinal.Load() {
		return b.final[i]
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if id < 0 || int(id) >= b.nextID {
		return nil
	}
	return b.made[id-int32(len(b.consts))]
}

// NumNodes returns the number of distinct nodes created so far. The bench
// harness uses it as a deterministic size/memory proxy.
func (b *Builder) NumNodes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nextID
}

// True returns the constant true condition.
func (b *Builder) True() *Cond { return b.trueC }

// False returns the constant false condition.
func (b *Builder) False() *Cond { return b.falseC }

// Atom returns the (hash-consed) atom with the given ID.
func (b *Builder) Atom(id int) *Cond {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c, ok := b.atoms[id]; ok {
		return c
	}
	c := b.newNode(KAtom, id, nil)
	intern(&b.atoms, id, c)
	return c
}

// Not returns the negation of c, applying constant folding, double-negation
// elimination, and hash consing.
func (b *Builder) Not(c *Cond) *Cond {
	switch c.kind {
	case KTrue:
		return b.falseC
	case KFalse:
		return b.trueC
	case KNot:
		return c.ops[0]
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if n, ok := b.nots[c.id]; ok {
		return n
	}
	n := b.newNode(KNot, 0, []*Cond{c})
	intern(&b.nots, c.id, n)
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
	unit, zero := b.trueC, b.falseC
	if k == KOr {
		unit, zero = b.falseC, b.trueC
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
	var keyBuf [64]byte
	key := naryKey(keyBuf[:0], k, out)
	if n, ok := b.nary[string(key)]; ok {
		return n
	}
	ops := make([]*Cond, len(out))
	copy(ops, out)
	n := b.newNode(k, 0, ops)
	intern(&b.nary, string(key), n)
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

// naryKey appends the structural key of a k-node over ops to buf.
func naryKey(buf []byte, k Kind, ops []*Cond) []byte {
	if k == KAnd {
		buf = append(buf, '&')
	} else {
		buf = append(buf, '|')
	}
	for _, op := range ops {
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(op.id), 10)
	}
	return buf
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
