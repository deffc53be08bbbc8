package smt

import (
	"math/rand"
	"testing"
)

// The licence for the plain search in sat.go: on small mixed formulas Check
// must agree with enumerating every assignment of the atoms, evaluating the
// Boolean structure directly and keeping the assignments the theory
// procedures accept. The enumeration shares eufCheck and arithCheck with the
// solver (they have brute-force tests of their own) and nothing else — no
// CNF, no propagation, no search, no blocking clauses.

// formulaFromBytes decodes data into the formulas of one query, built in tb.
// Byte 0 fixes the number of atoms (1–10). The next byte triples (kind, a, b)
// each make one: a Boolean variable, an equality over {x0..x2, f(x0)..f(x2)},
// a difference bound xi ⋈ xj + c, or an interval bound. Every triple after
// that is one asserted formula over three literals l, m, r — an atom picked
// by the low seven bits, negated by the top one — either l ∨ m ∨ r or
// l ∨ (m ∧ r): a conjunction of short disjunctions over few atoms is what
// makes a search decide and backtrack rather than propagate.
func formulaFromBytes(tb *TermBuilder, data []byte) []*Term {
	if len(data) == 0 {
		return nil
	}
	var x, fx [3]*Term
	for i, name := range [3]string{"x0", "x1", "x2"} {
		x[i] = tb.IntVar(name)
		fx[i] = tb.App("f", SortInt, x[i])
	}
	ints := append(x[:], fx[:]...)

	nAtoms, rest := 1+int(data[0])%10, data[1:]
	var atoms []*Term
	for ; len(atoms) < nAtoms && len(rest) >= 3; rest = rest[3:] {
		a, b := int(rest[1]), int(rest[2])
		var n *Term
		switch rest[0] % 4 {
		case 0:
			n = tb.BoolVar([4]string{"p0", "p1", "p2", "p3"}[a%4])
		case 1:
			n = tb.Eq(ints[a%6], ints[b%6])
		case 2: // xi ⋈ xj + c, i = j allowed
			rhs := tb.Add(x[a/3%3], tb.Int(int64(b%5-2)))
			if a/9%2 == 0 {
				n = tb.Le(x[a%3], rhs)
			} else {
				n = tb.Lt(x[a%3], rhs)
			}
		default: // xi ≤ c or c < xi
			if c := tb.Int(int64(b%7 - 3)); a/3%2 == 0 {
				n = tb.Le(x[a%3], c)
			} else {
				n = tb.Lt(c, x[a%3])
			}
		}
		atoms = append(atoms, n)
	}
	lit := func(b byte) *Term {
		t := atoms[int(b&0x7f)%len(atoms)]
		if b&0x80 != 0 {
			t = tb.Not(t)
		}
		return t
	}
	var fs []*Term
	for ; len(rest) >= 3 && len(fs) < 40; rest = rest[3:] {
		l, m, r := lit(rest[0]), lit(rest[1]), lit(rest[2])
		if rest[0]&0x40 == 0 {
			fs = append(fs, tb.Or(l, m, r))
		} else {
			fs = append(fs, tb.Or(l, tb.And(m, r)))
		}
	}
	return fs
}

// atomsUnder appends the atoms below t's connectives to out, each once.
func atomsUnder(t *Term, seen map[*Term]bool, out []*Term) []*Term {
	switch {
	case t.Kind == TNot || t.Kind == TAnd || t.Kind == TOr:
		for _, a := range t.Args {
			out = atomsUnder(a, seen, out)
		}
	case t.Kind != TBoolConst && !seen[t]:
		seen[t] = true
		out = append(out, t)
	}
	return out
}

func evalBool(t *Term, val map[*Term]bool) bool {
	switch t.Kind {
	case TBoolConst:
		return t.IsTrue()
	case TNot:
		return !evalBool(t.Args[0], val)
	case TAnd:
		for _, a := range t.Args {
			if !evalBool(a, val) {
				return false
			}
		}
		return true
	case TOr:
		for _, a := range t.Args {
			if evalBool(a, val) {
				return true
			}
		}
		return false
	}
	return val[t]
}

// holds reports whether the atom assignment val satisfies every formula and
// is accepted by the theory procedures.
func holds(fs, atoms []*Term, val map[*Term]bool) bool {
	for _, f := range fs {
		if !evalBool(f, val) {
			return false
		}
	}
	var eqs, neqs [][2]*Term
	var cmps []arithLit
	for _, a := range atoms {
		switch a.Kind {
		case TEq:
			if pair := [2]*Term{a.Args[0], a.Args[1]}; val[a] {
				eqs = append(eqs, pair)
			} else {
				neqs = append(neqs, pair)
			}
			fallthrough
		case TLt, TLe:
			if a.Args[0].Sort == SortInt {
				cmps = append(cmps, arithLit{t: a, positive: val[a], index: len(cmps)})
			}
		}
	}
	if !eufCheck(eqs, neqs) {
		return false
	}
	ok, _ := arithCheck(cmps)
	return ok
}

// enumerate decides fs by trying every assignment of its atoms.
func enumerate(fs []*Term) Result {
	var atoms []*Term
	seen := map[*Term]bool{}
	for _, f := range fs {
		atoms = atomsUnder(f, seen, atoms)
	}
	val := make(map[*Term]bool, len(atoms))
	for bits := 0; bits < 1<<len(atoms); bits++ {
		for i, a := range atoms {
			val[a] = bits>>i&1 == 1
		}
		if holds(fs, atoms, val) {
			return Sat
		}
	}
	return Unsat
}

// checkVsEnumeration runs one decoded query through Prefilter, Check and the
// enumeration and fails on any disagreement, including a Sat whose model the
// enumeration's own test rejects. It returns the solver, not yet released,
// for the caller to read effort counters from.
func checkVsEnumeration(t *testing.T, data []byte) *Solver {
	s := GetSolver()
	fs := formulaFromBytes(s.TB, data)
	for _, f := range fs {
		s.Assert(f)
	}
	want, got := enumerate(fs), s.Check()
	if got != want {
		t.Fatalf("Check = %v, enumeration = %v on %v (input %q)", got, want, fs, data)
	}
	if Prefilter(fs) == Unsat && got != Unsat {
		t.Fatalf("Prefilter refuted %v but Check = %v (input %q)", fs, got, data)
	}
	if got == Sat {
		val := map[*Term]bool{}
		var atoms []*Term
		for v, a := range s.enc.atoms {
			val[a] = s.sat.ValueOf(v)
			atoms = append(atoms, a)
		}
		if !holds(fs, atoms, val) {
			t.Fatalf("Check's model %v does not satisfy %v (input %q)", val, fs, data)
		}
	}
	return s
}

// TestCheckVsEnumeration is the seeded run of the differential. It also
// holds the generator to its purpose: a share of the formulas must make the
// search decide, backtrack and take a theory conflict, or the agreement
// would say nothing about those paths.
func TestCheckVsEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const trials = 3000
	var decided, backtracked, theory int
	var maxDecisions int64
	for trial := 0; trial < trials; trial++ {
		data := make([]byte, 1+3*(2+rng.Intn(44)))
		rng.Read(data)
		s := checkVsEnumeration(t, data)
		if s.sat.Decisions > 0 {
			decided++
		}
		if s.sat.Conflicts > 0 {
			backtracked++
		}
		if s.TheoryConflicts > 0 {
			theory++
		}
		if s.sat.Decisions > maxDecisions {
			maxDecisions = s.sat.Decisions
		}
		PutSolver(s)
	}
	t.Logf("%d formulas: %d with decisions (max %d), %d with SAT conflicts, %d with theory conflicts",
		trials, decided, maxDecisions, backtracked, theory)
	if decided < trials/10 || backtracked < trials/50 || theory < trials/50 {
		t.Fatal("the generator no longer exercises the search")
	}
}

// FuzzCheckVsEnumeration is the same differential over arbitrary bytes; the
// committed corpus under testdata/fuzz holds the finds, starting with the
// blocking-clause reproducer below.
func FuzzCheckVsEnumeration(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		PutSolver(checkVsEnumeration(t, data))
	})
}

// TestBlockingClauseAddedAtRoot is the formula that showed blocking clauses
// being judged against the rejected model's decisions: p ∨ x ≤ x+1 was
// decided x > x+1 first, the theory refused it, and the unit blocking clause
// x ≤ x+1 read its own literal — false only under that decision — as false
// for good, so Check answered Unsat for a formula p = true satisfies.
func TestBlockingClauseAddedAtRoot(t *testing.T) {
	s := NewSolver()
	tb := s.TB
	p, x := tb.BoolVar("p"), tb.IntVar("x")
	s.Assert(tb.Or(p, tb.Le(x, tb.Add(x, tb.Int(1)))))
	if got := s.Check(); got != Sat {
		t.Fatalf("Check(p | x <= x+1) = %v, want sat", got)
	}
}
