package smt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func TestTermHashConsing(t *testing.T) {
	tb := NewTermBuilder()
	a, b := tb.IntVar("a"), tb.IntVar("b")
	if tb.Add(a, b) != tb.Add(a, b) {
		t.Fatal("Add not hash-consed")
	}
	if tb.Add(a, b) != tb.Add(b, a) {
		t.Fatal("Add not commutativity-canonicalized")
	}
	if tb.IntVar("a") != a {
		t.Fatal("Var not interned")
	}
	if tb.Eq(a, b) != tb.Eq(b, a) {
		t.Fatal("Eq not canonicalized")
	}
}

func TestTermSimplifications(t *testing.T) {
	tb := NewTermBuilder()
	a := tb.IntVar("a")
	p := tb.BoolVar("p")
	cases := []struct {
		got, want *Term
		name      string
	}{
		{tb.Add(a, tb.Int(0)), a, "a+0"},
		{tb.Mul(a, tb.Int(1)), a, "a*1"},
		{tb.Mul(a, tb.Int(0)), tb.Int(0), "a*0"},
		{tb.Sub(a, a), tb.Int(0), "a-a"},
		{tb.Neg(tb.Neg(a)), a, "--a"},
		{tb.Not(tb.Not(p)), p, "!!p"},
		{tb.And(p, tb.True()), p, "p&true"},
		{tb.And(p, tb.False()), tb.False(), "p&false"},
		{tb.Or(p, tb.Not(p)), tb.True(), "p|!p"},
		{tb.And(p, tb.Not(p)), tb.False(), "p&!p"},
		{tb.Eq(a, a), tb.True(), "a=a"},
		{tb.Eq(tb.Int(1), tb.Int(2)), tb.False(), "1=2"},
		{tb.Le(a, a), tb.True(), "a<=a"},
		{tb.Lt(a, a), tb.False(), "a<a"},
		{tb.Eq(p, tb.True()), p, "p=true"},
		{tb.Eq(p, tb.False()), tb.Not(p), "p=false"},
		{tb.Ite(tb.True(), a, tb.Int(3)), a, "ite true"},
		{tb.Implies(p, p), tb.True(), "p=>p"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, c.got, c.want)
		}
	}
}

// solveOne is a one-shot satisfiability query for a single formula under a
// fresh solver sharing tb.
func solveOne(tb *TermBuilder, f *Term) Result {
	sat := NewSATSolver()
	s := &Solver{TB: tb, sat: sat, enc: newCNFEncoder(sat)}
	s.Assert(f)
	return s.Check()
}

func TestSATBasics(t *testing.T) {
	tb := NewTermBuilder()
	p, q, r := tb.BoolVar("p"), tb.BoolVar("q"), tb.BoolVar("r")
	cases := []struct {
		f    *Term
		want Result
		name string
	}{
		{p, Sat, "p"},
		{tb.And(p, tb.Not(p)), Unsat, "p & !p"},
		{tb.And(tb.Or(p, q), tb.Not(p), tb.Not(q)), Unsat, "(p|q)&!p&!q"},
		{tb.And(tb.Or(p, q), tb.Not(p)), Sat, "(p|q)&!p"},
		{tb.And(tb.Implies(p, q), tb.Implies(q, r), p, tb.Not(r)), Unsat, "chain"},
		{tb.Or(tb.And(p, q), tb.And(tb.Not(p), r)), Sat, "dnf"},
		{tb.True(), Sat, "true"},
		{tb.False(), Unsat, "false"},
	}
	for _, c := range cases {
		if got := solveOne(tb, c.f); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSATPigeonhole is PHP(4,3): 4 pigeons, 3 holes, unsatisfiable only
// after the search has backtracked out of every placement.
func TestSATPigeonhole(t *testing.T) {
	tb := NewTermBuilder()
	const P, H = 4, 3
	in := func(p, h int) *Term { return tb.BoolVar(fmt.Sprintf("p%d_h%d", p, h)) }
	var parts []*Term
	for p := 0; p < P; p++ {
		var row []*Term
		for h := 0; h < H; h++ {
			row = append(row, in(p, h))
		}
		parts = append(parts, tb.Or(row...))
	}
	for h := 0; h < H; h++ {
		for p1 := 0; p1 < P; p1++ {
			for p2 := p1 + 1; p2 < P; p2++ {
				parts = append(parts, tb.Or(tb.Not(in(p1, h)), tb.Not(in(p2, h))))
			}
		}
	}
	if got := solveOne(tb, tb.And(parts...)); got != Unsat {
		t.Fatalf("PHP(4,3) = %v, want unsat", got)
	}
}

func TestEUF(t *testing.T) {
	tb := NewTermBuilder()
	a, b, c := tb.IntVar("a"), tb.IntVar("b"), tb.IntVar("c")
	fa := tb.App("f", SortInt, a)
	fb := tb.App("f", SortInt, b)
	cases := []struct {
		f    *Term
		want Result
		name string
	}{
		{tb.And(tb.Eq(a, b), tb.Ne(a, b)), Unsat, "a=b & a!=b"},
		{tb.And(tb.Eq(a, b), tb.Eq(b, c), tb.Ne(a, c)), Unsat, "transitivity"},
		{tb.And(tb.Eq(a, b), tb.Ne(fa, fb)), Unsat, "congruence"},
		{tb.And(tb.Ne(a, b), tb.Eq(fa, fb)), Sat, "f collision ok"},
		{tb.And(tb.Eq(a, b), tb.Eq(fa, fb)), Sat, "consistent"},
	}
	for _, c := range cases {
		if got := solveOne(tb, c.f); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestArithmeticDifference(t *testing.T) {
	tb := NewTermBuilder()
	x, y, z := tb.IntVar("x"), tb.IntVar("y"), tb.IntVar("z")
	cases := []struct {
		f    *Term
		want Result
		name string
	}{
		{tb.And(tb.Lt(x, y), tb.Lt(y, x)), Unsat, "x<y & y<x"},
		{tb.And(tb.Le(x, y), tb.Le(y, x)), Sat, "x<=y & y<=x"},
		{tb.And(tb.Lt(x, y), tb.Lt(y, z), tb.Lt(z, x)), Unsat, "3-cycle"},
		{tb.And(tb.Lt(x, tb.Int(5)), tb.Gt(x, tb.Int(10))), Unsat, "x<5 & x>10"},
		{tb.And(tb.Lt(x, tb.Int(5)), tb.Gt(x, tb.Int(3))), Sat, "3<x<5"},
		{tb.And(tb.Eq(x, tb.Int(4)), tb.Lt(x, tb.Int(3))), Unsat, "x=4 & x<3"},
		{tb.And(tb.Eq(x, tb.Int(4)), tb.Lt(x, tb.Int(5))), Sat, "x=4 & x<5"},
		{tb.And(tb.Eq(x, y), tb.Lt(x, y)), Unsat, "x=y & x<y"},
		{tb.Lt(tb.Int(3), tb.Int(2)), Unsat, "3<2 const"},
		{tb.And(tb.Le(tb.Sub(x, y), tb.Int(2)), tb.Ge(tb.Sub(x, y), tb.Int(5))), Unsat, "x-y<=2 & x-y>=5"},
		{tb.And(tb.Gt(x, tb.Int(0)), tb.Eq(y, tb.Add(x, tb.Int(1))), tb.Lt(y, tb.Int(1))), Unsat, "y=x+1, x>0, y<1"},
	}
	for _, c := range cases {
		if got := solveOne(tb, c.f); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMixedBoolTheory(t *testing.T) {
	tb := NewTermBuilder()
	p := tb.BoolVar("p")
	x, y := tb.IntVar("x"), tb.IntVar("y")
	// p -> x < y; !p -> y < x; x = y  -- unsat.
	f := tb.And(
		tb.Implies(p, tb.Lt(x, y)),
		tb.Implies(tb.Not(p), tb.Lt(y, x)),
		tb.Eq(x, y),
	)
	if got := solveOne(tb, f); got != Unsat {
		t.Fatalf("mixed = %v, want unsat", got)
	}
	// Without the equality it is satisfiable both ways.
	f2 := tb.And(tb.Implies(p, tb.Lt(x, y)), tb.Implies(tb.Not(p), tb.Lt(y, x)))
	if got := solveOne(tb, f2); got != Sat {
		t.Fatalf("mixed2 = %v, want sat", got)
	}
}

func TestIncrementalAsserts(t *testing.T) {
	s := NewSolver()
	tb := s.TB
	x, y := tb.IntVar("x"), tb.IntVar("y")
	s.Assert(tb.Lt(x, y))
	if got := s.Check(); got != Sat {
		t.Fatalf("after x<y: %v", got)
	}
	s.Assert(tb.Lt(y, x))
	if got := s.Check(); got != Unsat {
		t.Fatalf("after y<x: %v", got)
	}
}

func TestIteLowering(t *testing.T) {
	tb := NewTermBuilder()
	p := tb.BoolVar("p")
	a, b := tb.BoolVar("a"), tb.BoolVar("b")
	ite := tb.Ite(p, a, b)
	// (ite p a b) & p & !a is unsat.
	if got := solveOne(tb, tb.And(ite, p, tb.Not(a))); got != Unsat {
		t.Fatalf("ite: %v, want unsat", got)
	}
	if got := solveOne(tb, tb.And(ite, p, a)); got != Sat {
		t.Fatalf("ite2: %v, want sat", got)
	}
}

func TestTermString(t *testing.T) {
	tb := NewTermBuilder()
	f := tb.And(tb.BoolVar("p"), tb.Eq(tb.IntVar("x"), tb.Int(3)))
	s := f.String()
	if s == "" {
		t.Fatal("empty render")
	}
}

// TestQuickDifferenceLogicVsBruteForce compares the solver against
// brute-force enumeration on random conjunctions of pure difference
// constraints (x - y <= c). Difference systems are shift-invariant, so if a
// solution exists one exists with v0 = 0 and all values within the sum of
// |c| bounds; the enumeration box is complete.
func TestQuickDifferenceLogicVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const vars = 3
	const rangeLim = 25 // > max constraints * max |c|
	for trial := 0; trial < 250; trial++ {
		type con struct{ x, y, c int }
		n := 1 + rng.Intn(7)
		cons := make([]con, n)
		for i := range cons {
			x := rng.Intn(vars)
			y := rng.Intn(vars)
			for y == x {
				y = rng.Intn(vars)
			}
			cons[i] = con{x: x, y: y, c: rng.Intn(7) - 3}
		}
		// Brute force with v0 fixed at 0.
		bruteSat := false
		for v1 := -rangeLim; v1 <= rangeLim && !bruteSat; v1++ {
			for v2 := -rangeLim; v2 <= rangeLim && !bruteSat; v2++ {
				vals := [vars]int{0, v1, v2}
				ok := true
				for _, c := range cons {
					if vals[c.x]-vals[c.y] > c.c {
						ok = false
						break
					}
				}
				bruteSat = ok
			}
		}
		// Solver.
		s := NewSolver()
		tb := s.TB
		vs := [vars]*Term{tb.IntVar("v0"), tb.IntVar("v1"), tb.IntVar("v2")}
		for _, c := range cons {
			s.Assert(tb.Le(tb.Sub(vs[c.x], vs[c.y]), tb.Int(int64(c.c))))
		}
		got := s.Check()
		want := Unsat
		if bruteSat {
			want = Sat
		}
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v cons=%+v", trial, got, want, cons)
		}
	}
}

// TestQuickEUFVsBruteForce compares EUF verdicts against brute-force
// checking of random equality/disequality systems over a small universe.
func TestQuickEUFVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const vars = 4
	for trial := 0; trial < 250; trial++ {
		type lit struct {
			a, b int
			eq   bool
		}
		n := 1 + rng.Intn(8)
		lits := make([]lit, n)
		for i := range lits {
			lits[i] = lit{a: rng.Intn(vars), b: rng.Intn(vars), eq: rng.Intn(2) == 0}
		}
		// Brute force: assign each var a value in [0, vars).
		bruteSat := false
		total := 1
		for i := 0; i < vars; i++ {
			total *= vars
		}
		for mask := 0; mask < total && !bruteSat; mask++ {
			vals := make([]int, vars)
			m := mask
			for i := range vals {
				vals[i] = m % vars
				m /= vars
			}
			ok := true
			for _, l := range lits {
				if (vals[l.a] == vals[l.b]) != l.eq {
					ok = false
					break
				}
			}
			bruteSat = ok
		}
		s := NewSolver()
		tb := s.TB
		vs := make([]*Term, vars)
		for i := range vs {
			vs[i] = tb.IntVar(fmt.Sprintf("e%d", i))
		}
		for _, l := range lits {
			if l.eq {
				s.Assert(tb.Eq(vs[l.a], vs[l.b]))
			} else {
				s.Assert(tb.Ne(vs[l.a], vs[l.b]))
			}
		}
		got := s.Check()
		want := Unsat
		if bruteSat {
			want = Sat
		}
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v lits=%+v", trial, got, want, lits)
		}
	}
}

// TestResetEqualsFresh is the invariant the per-candidate solver reuse
// relies on: a Reset solver reproduces a fresh solver bit-for-bit — same
// term IDs, same verdict, same model.
func TestResetEqualsFresh(t *testing.T) {
	run := func(s *Solver) (Result, map[string]bool, []int) {
		tb := s.TB
		p, q := tb.BoolVar("p"), tb.BoolVar("q")
		x, y := tb.IntVar("x"), tb.IntVar("y")
		terms := []*Term{
			tb.Or(p, q),
			tb.Implies(p, tb.Lt(x, y)),
			tb.Implies(q, tb.Lt(y, x)),
			tb.Le(x, tb.Int(4)),
		}
		ids := make([]int, len(terms))
		for i, f := range terms {
			ids[i] = f.ID()
			s.Assert(f)
		}
		res := s.Check()
		return res, s.BoolModel(), ids
	}

	used := NewSolver()
	// Dirty the solver with an unrelated query first.
	used.Assert(used.TB.And(used.TB.BoolVar("junk"), used.TB.Lt(used.TB.IntVar("a"), used.TB.Int(0))))
	if used.Check() == Unknown {
		t.Fatal("warm-up query unexpectedly exhausted the budget")
	}
	used.Reset()
	gotRes, gotModel, gotIDs := run(used)

	wantRes, wantModel, wantIDs := run(NewSolver())
	if gotRes != wantRes {
		t.Fatalf("reset solver: Check = %v, fresh = %v", gotRes, wantRes)
	}
	if !reflect.DeepEqual(gotModel, wantModel) {
		t.Fatalf("reset solver model %v != fresh model %v", gotModel, wantModel)
	}
	if !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Fatalf("reset builder IDs %v != fresh IDs %v", gotIDs, wantIDs)
	}
}

func TestSolverPoolReuse(t *testing.T) {
	s := GetSolver()
	s.Assert(s.TB.False())
	if got := s.Check(); got != Unsat {
		t.Fatalf("Check = %v, want unsat", got)
	}
	PutSolver(s)

	// Whatever the pool hands back must behave fresh.
	s2 := GetSolver()
	defer PutSolver(s2)
	s2.Assert(s2.TB.BoolVar("p"))
	if got := s2.Check(); got != Sat {
		t.Fatalf("pooled solver: Check = %v, want sat", got)
	}
}

// queryBench asserts and checks a moderately-sized feasibility query, the
// shape the detection layer issues per candidate.
func queryBench(s *Solver) Result {
	tb := s.TB
	var conds []*Term
	for i := 0; i < 8; i++ {
		c := tb.BoolVar(fmt.Sprintf("c%d@f", i))
		x := tb.IntVar(fmt.Sprintf("v%d", i))
		conds = append(conds, tb.Or(c, tb.Lt(x, tb.Int(int64(i)))))
	}
	s.Assert(tb.And(conds...))
	return s.Check()
}

// BenchmarkSolverFresh allocates a brand-new solver per query, the cost
// the pool avoids.
func BenchmarkSolverFresh(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSolver()
		if queryBench(s) != Sat {
			b.Fatal("unexpected verdict")
		}
	}
}

// BenchmarkSolverPooled reuses one pooled solver via Reset, retaining the
// SAT core's and TermBuilder's backing allocations.
func BenchmarkSolverPooled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := GetSolver()
		if queryBench(s) != Sat {
			b.Fatal("unexpected verdict")
		}
		PutSolver(s)
	}
}

// The hash-consing key is written digit by digit; it must stay the string
// fmt wrote, because term IDs follow creation order and canonical operand
// order follows IDs.
func TestTermKeyFormat(t *testing.T) {
	tb := NewTermBuilder()
	x, y := tb.IntVar("i0.v12"), tb.BoolVar("i3.a7")
	for _, term := range []*Term{
		tb.True(), tb.Int(-9223372036854775808), tb.Int(42), x, y,
		tb.App("load", SortInt, x, tb.Int(-1)), tb.And(y, tb.Le(x, tb.Add(x, tb.Int(1)))),
	} {
		want := fmt.Sprintf("%d/%d/%s/%d", term.Kind, term.Sort, term.Name, term.Int)
		for _, a := range term.Args {
			want += fmt.Sprintf(",%d", a.id)
		}
		if got := string(appendTermKey(nil, term)); got != want {
			t.Errorf("key of %s: %q, want %q", term, got, want)
		}
	}
}
