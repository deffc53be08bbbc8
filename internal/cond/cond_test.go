package cond

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestConstants(t *testing.T) {
	b := NewBuilder()
	if !b.True().IsTrue() || b.True().IsFalse() {
		t.Fatal("True() broken")
	}
	if !b.False().IsFalse() || b.False().IsTrue() {
		t.Fatal("False() broken")
	}
	if b.True() != b.True() || b.False() != b.False() {
		t.Fatal("constants not hash-consed")
	}
}

func TestAtomHashConsing(t *testing.T) {
	b := NewBuilder()
	if b.Atom(1) != b.Atom(1) {
		t.Fatal("same atom not pointer-equal")
	}
	if b.Atom(1) == b.Atom(2) {
		t.Fatal("distinct atoms pointer-equal")
	}
}

func TestNotFolding(t *testing.T) {
	b := NewBuilder()
	a := b.Atom(1)
	if b.Not(b.True()) != b.False() {
		t.Fatal("!true != false")
	}
	if b.Not(b.False()) != b.True() {
		t.Fatal("!false != true")
	}
	if b.Not(b.Not(a)) != a {
		t.Fatal("double negation not eliminated")
	}
	if b.Not(a) != b.Not(a) {
		t.Fatal("Not not hash-consed")
	}
}

func TestAndSimplifications(t *testing.T) {
	b := NewBuilder()
	a1, a2 := b.Atom(1), b.Atom(2)
	if b.And() != b.True() {
		t.Fatal("empty And != true")
	}
	if b.And(a1) != a1 {
		t.Fatal("unary And not identity")
	}
	if b.And(a1, b.True()) != a1 {
		t.Fatal("true not dropped from And")
	}
	if b.And(a1, b.False()) != b.False() {
		t.Fatal("false does not absorb And")
	}
	if b.And(a1, a1) != a1 {
		t.Fatal("duplicate operand not removed")
	}
	if b.And(a1, b.Not(a1)) != b.False() {
		t.Fatal("a & !a != false")
	}
	if b.And(a1, a2) != b.And(a2, a1) {
		t.Fatal("And not canonicalized by operand order")
	}
	// Flattening: (a1 & a2) & a1 == a1 & a2.
	if b.And(b.And(a1, a2), a1) != b.And(a1, a2) {
		t.Fatal("nested And not flattened")
	}
}

func TestOrSimplifications(t *testing.T) {
	b := NewBuilder()
	a1, a2 := b.Atom(1), b.Atom(2)
	if b.Or() != b.False() {
		t.Fatal("empty Or != false")
	}
	if b.Or(a1, b.False()) != a1 {
		t.Fatal("false not dropped from Or")
	}
	if b.Or(a1, b.True()) != b.True() {
		t.Fatal("true does not absorb Or")
	}
	if b.Or(a1, b.Not(a1)) != b.True() {
		t.Fatal("a | !a != true")
	}
	if b.Or(a1, a2) != b.Or(a2, a1) {
		t.Fatal("Or not canonicalized")
	}
}

func TestImplies(t *testing.T) {
	b := NewBuilder()
	a := b.Atom(1)
	if b.Implies(b.True(), a) != a {
		t.Fatal("true => a should be a")
	}
	if b.Implies(a, b.True()) != b.True() {
		t.Fatal("a => true should be true")
	}
	if b.Implies(a, a) != b.True() {
		t.Fatal("a => a should be true")
	}
}

func TestAtomsAndSize(t *testing.T) {
	b := NewBuilder()
	c := b.And(b.Atom(1), b.Or(b.Atom(2), b.Not(b.Atom(3))))
	atoms := Atoms(c)
	for _, want := range []int{1, 2, 3} {
		if !atoms[want] {
			t.Fatalf("atom %d missing from %v", want, atoms)
		}
	}
	if len(atoms) != 3 {
		t.Fatalf("got %d atoms, want 3", len(atoms))
	}
	if s := Size(c); s < 4 {
		t.Fatalf("Size = %d, want >= 4", s)
	}
}

func TestLinearSolverPaperRules(t *testing.T) {
	b := NewBuilder()
	ls := NewLinearSolver()
	a1, a2, a3 := b.Atom(1), b.Atom(2), b.Atom(3)

	cases := []struct {
		name  string
		c     *Cond
		unsat bool
	}{
		{"atom", a1, false},
		{"contradiction", b.And(a1, b.Not(a1)), true},
		{"deep contradiction", b.And(a1, a2, b.And(a3, b.Not(a2))), true},
		{"neg of conj", b.Not(b.And(a1, b.Not(a1))), false},
		{"or hides contradiction", b.Or(b.And(a1, b.Not(a1)), a2), false},
		// (a1 | a2) & !a1 & !a2: P = {}, N = {1,2}; no overlap, so the
		// linear filter must conservatively say "possibly sat" even
		// though the condition is really unsat.
		{"incomplete", b.And(b.Or(a1, a2), b.Not(a1), b.Not(a2)), false},
		{"false", b.False(), true},
		{"true", b.True(), false},
	}
	for _, tc := range cases {
		// Builder simplification may already fold some of these to
		// false; both paths must agree with the expected verdict.
		if got := ls.ApparentlyUnsat(tc.c); got != tc.unsat {
			t.Errorf("%s: ApparentlyUnsat(%s) = %v, want %v", tc.name, tc.c, got, tc.unsat)
		}
	}
}

// Disable builder-level complementary-literal folding is not possible, so to
// exercise the P/N propagation through Or we construct conditions whose
// contradiction spans operands of an And of Ors.
func TestLinearSolverOrIntersection(t *testing.T) {
	b := NewBuilder()
	ls := NewLinearSolver()
	a1, a2 := b.Atom(1), b.Atom(2)
	// (a1 | (a1 & a2)): P = {1}, N = {}.
	c1 := b.Or(a1, b.And(a1, a2))
	// !a1: P = {}, N = {1}. Conjunction has P∩N = {1} -> unsat.
	c := b.And(c1, b.Not(a1))
	if !ls.ApparentlyUnsat(c) {
		t.Fatalf("expected apparent unsat for %s", c)
	}
}

func TestAndFeasible(t *testing.T) {
	b := NewBuilder()
	ls := NewLinearSolver()
	a := b.Atom(1)
	c, ok := ls.AndFeasible(b, a, b.Not(a))
	if ok || !c.IsFalse() {
		t.Fatal("contradictory guard not pruned")
	}
	c, ok = ls.AndFeasible(b, a, b.Atom(2))
	if !ok || c.IsFalse() {
		t.Fatal("feasible guard pruned")
	}
	if ls.Queries != 2 || ls.Unsat != 1 {
		t.Fatalf("stats = %d/%d, want 2/1", ls.Queries, ls.Unsat)
	}
}

// Property: the builder never produces a node that the linear solver calls
// unsat unless the node is literally False — because builder simplification
// already removes complementary literals at a single level, any remaining
// apparent contradiction must span levels.
func TestQuickBuilderVsLinear(t *testing.T) {
	b := NewBuilder()
	ls := NewLinearSolver()
	f := func(ids []uint8, negs []bool) bool {
		if len(ids) == 0 {
			return true
		}
		ops := make([]*Cond, 0, len(ids))
		for i, id := range ids {
			c := b.Atom(int(id % 8))
			if i < len(negs) && negs[i] {
				c = b.Not(c)
			}
			ops = append(ops, c)
		}
		c := b.And(ops...)
		// Single-level And: builder folding and linear solver must agree.
		return c.IsFalse() == ls.ApparentlyUnsat(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refSets is the P/N rule of linear.go read off the definition: a fresh pair
// of Go sets per node, no memo, no sharing.
func refSets(c *Cond) (p, n map[int]bool) {
	p, n = map[int]bool{}, map[int]bool{}
	switch c.kind {
	case KAtom:
		p[c.atom] = true
	case KNot:
		n, p = refSets(c.ops[0])
	case KAnd, KOr:
		p, n = refSets(c.ops[0])
		for _, op := range c.ops[1:] {
			op, on := refSets(op)
			for _, pair := range [][2]map[int]bool{{p, op}, {n, on}} {
				acc, s := pair[0], pair[1]
				if c.kind == KAnd {
					for a := range s {
						acc[a] = true
					}
					continue
				}
				for a := range acc {
					if !s[a] {
						delete(acc, a)
					}
				}
			}
		}
	}
	return p, n
}

func sortedKeys(s map[int]bool) []int {
	out := make([]int, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// The solver's sets — runs of one array, shared between nodes, memoized by
// node ID in a slice that grows with the builder — are the definition's, on
// random condition DAGs queried while they grow.
func TestLinearSolverEqualsDefinition(t *testing.T) {
	unsat := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		ls := NewLinearSolver()
		nodes := []*Cond{b.True(), b.False()}
		pick := func() *Cond { return nodes[rng.Intn(len(nodes))] }
		for i := 0; i < 120; i++ {
			var c *Cond
			switch k := rng.Intn(6); {
			case k == 0:
				c = b.Atom(rng.Intn(6))
			case k == 1:
				c = b.Not(pick())
			default:
				ops := make([]*Cond, 2+rng.Intn(3))
				for j := range ops {
					ops[j] = pick()
				}
				if k < 4 {
					c = b.And(ops...)
				} else {
					c = b.Or(ops...)
				}
			}
			nodes = append(nodes, c)
			// Ask about a random node, old or new.
			q := pick()
			p, n := refSets(q)
			want := q.IsFalse()
			for a := range p {
				want = want || n[a]
			}
			if got := ls.ApparentlyUnsat(q); got != want {
				t.Fatalf("seed %d: ApparentlyUnsat(%s) = %v, want %v", seed, q, got, want)
			}
			if want {
				unsat++
			}
		}
		// And every node's sets, memoized or not, once the DAG stands.
		for _, c := range nodes {
			p, n := refSets(c)
			s := ls.sets(c)
			if gp, gn := ls.run(s.p), ls.run(s.n); !slices.Equal(gp, sortedKeys(p)) || !slices.Equal(gn, sortedKeys(n)) {
				t.Fatalf("seed %d: sets of %s = P%v N%v, want P%v N%v", seed, c, gp, gn, sortedKeys(p), sortedKeys(n))
			}
		}
	}
	if unsat < 100 {
		t.Fatalf("%d queries were apparently unsat: the DAGs are not the ones the test is about", unsat)
	}
}

// Property: And/Or are commutative and idempotent under hash consing.
func TestQuickCommutative(t *testing.T) {
	b := NewBuilder()
	f := func(x, y uint8, neg bool) bool {
		cx, cy := b.Atom(int(x%16)), b.Atom(int(y%16))
		if neg {
			cy = b.Not(cy)
		}
		return b.And(cx, cy) == b.And(cy, cx) &&
			b.Or(cx, cy) == b.Or(cy, cx) &&
			b.And(cx, cx) == cx && b.Or(cy, cy) == cy
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	b := NewBuilder()
	c := b.And(b.Atom(1), b.Not(b.Or(b.Atom(2), b.Atom(3))))
	s := c.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	// Smoke-check the pieces are present.
	for _, frag := range []string{"a1", "a2", "a3", "!"} {
		if !contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Every function has a builder and most have no branch: an empty builder is
// one allocation, its constants included, whatever is asked of them. A
// builder of n nodes holds, beside them, an intern table of at most 4n IDs
// (at least 8) and, once frozen, a node list of exactly n.
func TestBuilderBudget(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		b := NewBuilder()
		b.And(b.True(), b.Not(b.False()))
		b.Freeze()
		if b.Node(0) != b.True() || b.Node(1) != b.False() || b.NumNodes() != 2 {
			t.Fatal("an empty builder's constants are not nodes 0 and 1")
		}
	}); n != 1 {
		t.Errorf("an empty builder takes %.0f allocations, want 1", n)
	}
	b := NewBuilder()
	for i := 0; i < 1000; i++ {
		b.Or(b.Atom(i), b.Not(b.Atom(i+1)))
	}
	b.Freeze()
	nodes, index := b.Footprint(func(n int) int { return n })
	n := b.NumNodes() - 2
	if index > 4*max(8, 4*n) {
		t.Errorf("%d nodes hold an intern table of %d bytes", n, index)
	}
	if len(b.made) != n || cap(b.made) != n {
		t.Errorf("%d nodes in a frozen node list of length %d, capacity %d", n, len(b.made), cap(b.made))
	}
	if nodes <= 0 {
		t.Errorf("the nodes occupy %d bytes", nodes)
	}
}
