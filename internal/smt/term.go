// Package smt implements the satisfiability-modulo-theories solver that
// decides the path conditions Pinpoint emits at the bug-detection stage
// (the role Z3 plays in the paper's implementation, §4).
//
// The solver is a lazy DPLL(T) loop:
//
//   - formulas are hash-consed terms (this file), simplified by rewriting
//     (simplify.go), and translated to CNF by the Tseitin transformation
//     (cnf.go);
//   - the propositional skeleton is decided by two-watched-literal unit
//     propagation under a plain depth-first search with chronological
//     backtracking and a fixed branching order (sat.go) — the queries are
//     a dozen variables and propagation settles nearly all of them;
//   - full propositional models are checked against the theory of equality
//     with uninterpreted functions (congruence closure, euf.go) combined
//     with integer difference-bound reasoning (arith.go); theory conflicts
//     become blocking clauses (solver.go).
//
// The theory layer is sound but incomplete: atoms outside the supported
// fragment (non-difference linear arithmetic, nonlinear terms) are treated
// as opaque, so Check may answer Sat for an arithmetically unsatisfiable
// formula. This mirrors the soundy posture of the overall tool — a path
// condition wrongly judged satisfiable can only introduce a false positive,
// never mask reasoning the analysis relies on for soundness.
package smt

import (
	"fmt"
	"strconv"
	"strings"
)

// Sort is a term sort.
type Sort uint8

const (
	// SortBool is the boolean sort.
	SortBool Sort = iota
	// SortInt is the mathematical-integer sort.
	SortInt
)

func (s Sort) String() string {
	if s == SortBool {
		return "Bool"
	}
	return "Int"
}

// TermKind enumerates term constructors.
type TermKind uint8

const (
	// TBoolConst is true/false.
	TBoolConst TermKind = iota
	// TIntConst is an integer literal.
	TIntConst
	// TVar is a free variable of either sort.
	TVar
	// TNot, TAnd, TOr are boolean connectives.
	TNot
	TAnd
	TOr
	// TEq is polymorphic equality (both operands of the same sort).
	TEq
	// TLt and TLe are integer comparisons.
	TLt
	TLe
	// TAdd, TSub, TMul, TNeg are integer arithmetic.
	TAdd
	TSub
	TMul
	TNeg
	// TIte is if-then-else over either sort.
	TIte
	// TApp is an application of an uninterpreted function.
	TApp
)

var termKindNames = [...]string{
	TBoolConst: "bool", TIntConst: "int", TVar: "var", TNot: "not",
	TAnd: "and", TOr: "or", TEq: "=", TLt: "<", TLe: "<=",
	TAdd: "+", TSub: "-", TMul: "*", TNeg: "neg", TIte: "ite", TApp: "app",
}

func (k TermKind) String() string { return termKindNames[k] }

// Term is an immutable, hash-consed term. Terms from the same TermBuilder
// are pointer-equal iff structurally equal.
type Term struct {
	Kind TermKind
	Sort Sort
	// Name is the variable name (TVar) or function symbol (TApp).
	Name string
	// Int is the literal value (TIntConst) or bool as 0/1 (TBoolConst).
	Int int64
	// Args are the operands.
	Args []*Term
	id   int
}

// ID returns the term's unique ID within its builder.
func (t *Term) ID() int { return t.id }

// IsTrue reports whether t is the literal true.
func (t *Term) IsTrue() bool { return t.Kind == TBoolConst && t.Int == 1 }

// IsFalse reports whether t is the literal false.
func (t *Term) IsFalse() bool { return t.Kind == TBoolConst && t.Int == 0 }

// String renders the term in SMT-LIB-like prefix form.
func (t *Term) String() string {
	var b strings.Builder
	t.write(&b)
	return b.String()
}

func (t *Term) write(b *strings.Builder) {
	switch t.Kind {
	case TBoolConst:
		if t.Int == 1 {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case TIntConst:
		fmt.Fprintf(b, "%d", t.Int)
	case TVar:
		b.WriteString(t.Name)
	case TApp:
		fmt.Fprintf(b, "(%s", t.Name)
		for _, a := range t.Args {
			b.WriteString(" ")
			a.write(b)
		}
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "(%s", t.Kind)
		for _, a := range t.Args {
			b.WriteString(" ")
			a.write(b)
		}
		b.WriteString(")")
	}
}

// TermBuilder hash-conses terms. Not safe for concurrent use.
type TermBuilder struct {
	table  map[string]*Term
	nextID int
	trueT  *Term
	falseT *Term
}

// NewTermBuilder returns an empty builder with interned constants.
func NewTermBuilder() *TermBuilder {
	tb := &TermBuilder{table: make(map[string]*Term)}
	tb.trueT = tb.intern(&Term{Kind: TBoolConst, Sort: SortBool, Int: 1})
	tb.falseT = tb.intern(&Term{Kind: TBoolConst, Sort: SortBool, Int: 0})
	return tb
}

// Reset drops every interned term and restarts ID allocation, keeping the
// backing table for reuse. A reset builder interns terms with exactly the
// same IDs a fresh builder would — term-ID-sensitive canonicalization
// (operand ordering in Eq/Add/Mul) is therefore reproducible across
// Reset, which the detection layer's byte-identical-reports guarantee
// relies on.
func (tb *TermBuilder) Reset() {
	clear(tb.table)
	tb.nextID = 0
	tb.trueT = tb.intern(&Term{Kind: TBoolConst, Sort: SortBool, Int: 1})
	tb.falseT = tb.intern(&Term{Kind: TBoolConst, Sort: SortBool, Int: 0})
}

func (tb *TermBuilder) intern(t *Term) *Term {
	var buf [64]byte
	key := appendTermKey(buf[:0], t)
	if old, ok := tb.table[string(key)]; ok {
		return old
	}
	t.id = tb.nextID
	tb.nextID++
	tb.table[string(key)] = t
	return t
}

// appendTermKey appends t's hash-consing key, "kind/sort/name/int,arg,arg":
// a term is found again by its own fields and the IDs of its arguments.
func appendTermKey(b []byte, t *Term) []byte {
	b = strconv.AppendInt(b, int64(t.Kind), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(t.Sort), 10)
	b = append(b, '/')
	b = append(b, t.Name...)
	b = append(b, '/')
	b = strconv.AppendInt(b, t.Int, 10)
	for _, a := range t.Args {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(a.id), 10)
	}
	return b
}

// True returns the boolean constant true.
func (tb *TermBuilder) True() *Term { return tb.trueT }

// False returns the boolean constant false.
func (tb *TermBuilder) False() *Term { return tb.falseT }

// Bool returns the boolean constant for v.
func (tb *TermBuilder) Bool(v bool) *Term {
	if v {
		return tb.trueT
	}
	return tb.falseT
}

// Int returns the integer literal v.
func (tb *TermBuilder) Int(v int64) *Term {
	return tb.intern(&Term{Kind: TIntConst, Sort: SortInt, Int: v})
}

// Var returns the named free variable of the given sort.
func (tb *TermBuilder) Var(name string, s Sort) *Term {
	return tb.intern(&Term{Kind: TVar, Sort: s, Name: name})
}

// BoolVar is shorthand for Var(name, SortBool).
func (tb *TermBuilder) BoolVar(name string) *Term { return tb.Var(name, SortBool) }

// IntVar is shorthand for Var(name, SortInt).
func (tb *TermBuilder) IntVar(name string) *Term { return tb.Var(name, SortInt) }

// App returns fn(args...) with result sort s.
func (tb *TermBuilder) App(fn string, s Sort, args ...*Term) *Term {
	return tb.intern(&Term{Kind: TApp, Sort: s, Name: fn, Args: args})
}

// Not returns the simplified negation of t.
func (tb *TermBuilder) Not(t *Term) *Term {
	switch {
	case t.IsTrue():
		return tb.falseT
	case t.IsFalse():
		return tb.trueT
	case t.Kind == TNot:
		return t.Args[0]
	}
	return tb.intern(&Term{Kind: TNot, Sort: SortBool, Args: []*Term{t}})
}

// And returns the simplified conjunction.
func (tb *TermBuilder) And(ts ...*Term) *Term {
	return tb.nary(TAnd, ts)
}

// Or returns the simplified disjunction.
func (tb *TermBuilder) Or(ts ...*Term) *Term {
	return tb.nary(TOr, ts)
}

// Implies returns (or (not a) b).
func (tb *TermBuilder) Implies(a, b *Term) *Term {
	return tb.Or(tb.Not(a), b)
}

func (tb *TermBuilder) nary(k TermKind, ts []*Term) *Term {
	unit, zero := tb.trueT, tb.falseT
	if k == TOr {
		unit, zero = tb.falseT, tb.trueT
	}
	var flat []*Term
	seen := make(map[int]bool)
	var add func(t *Term) bool
	add = func(t *Term) bool {
		if t == zero {
			return false
		}
		if t == unit || seen[t.id] {
			return true
		}
		if t.Kind == k {
			for _, a := range t.Args {
				if !add(a) {
					return false
				}
			}
			return true
		}
		seen[t.id] = true
		flat = append(flat, t)
		return true
	}
	for _, t := range ts {
		if !add(t) {
			return zero
		}
	}
	// Complementary literals.
	for _, t := range flat {
		if t.Kind == TNot && seen[t.Args[0].id] {
			return zero
		}
	}
	switch len(flat) {
	case 0:
		return unit
	case 1:
		return flat[0]
	}
	return tb.intern(&Term{Kind: k, Sort: SortBool, Args: flat})
}

// Eq returns the simplified equality a = b.
func (tb *TermBuilder) Eq(a, b *Term) *Term {
	if a == b {
		return tb.trueT
	}
	if a.Kind == TIntConst && b.Kind == TIntConst {
		return tb.Bool(a.Int == b.Int)
	}
	if a.Kind == TBoolConst && b.Kind == TBoolConst {
		return tb.Bool(a.Int == b.Int)
	}
	// Boolean equality with a constant folds to the operand or its
	// negation; otherwise it expands to a propositional iff so the SAT
	// core (rather than the equality theory, which has no boolean
	// semantics) interprets it.
	if a.Sort == SortBool {
		if a.Kind == TBoolConst {
			a, b = b, a
		}
		if b.IsTrue() {
			return a
		}
		if b.IsFalse() {
			return tb.Not(a)
		}
		return tb.Or(tb.And(a, b), tb.And(tb.Not(a), tb.Not(b)))
	}
	// Canonical operand order for hash consing.
	if a.id > b.id {
		a, b = b, a
	}
	return tb.intern(&Term{Kind: TEq, Sort: SortBool, Args: []*Term{a, b}})
}

// Ne returns (not (= a b)).
func (tb *TermBuilder) Ne(a, b *Term) *Term { return tb.Not(tb.Eq(a, b)) }

// Lt returns the simplified a < b.
func (tb *TermBuilder) Lt(a, b *Term) *Term {
	if a.Kind == TIntConst && b.Kind == TIntConst {
		return tb.Bool(a.Int < b.Int)
	}
	if a == b {
		return tb.falseT
	}
	return tb.intern(&Term{Kind: TLt, Sort: SortBool, Args: []*Term{a, b}})
}

// Le returns the simplified a <= b.
func (tb *TermBuilder) Le(a, b *Term) *Term {
	if a.Kind == TIntConst && b.Kind == TIntConst {
		return tb.Bool(a.Int <= b.Int)
	}
	if a == b {
		return tb.trueT
	}
	return tb.intern(&Term{Kind: TLe, Sort: SortBool, Args: []*Term{a, b}})
}

// Gt returns b < a.
func (tb *TermBuilder) Gt(a, b *Term) *Term { return tb.Lt(b, a) }

// Ge returns b <= a.
func (tb *TermBuilder) Ge(a, b *Term) *Term { return tb.Le(b, a) }

// Add returns the simplified a + b.
func (tb *TermBuilder) Add(a, b *Term) *Term {
	if a.Kind == TIntConst && b.Kind == TIntConst {
		return tb.Int(a.Int + b.Int)
	}
	if a.Kind == TIntConst && a.Int == 0 {
		return b
	}
	if b.Kind == TIntConst && b.Int == 0 {
		return a
	}
	if a.id > b.id {
		a, b = b, a
	}
	return tb.intern(&Term{Kind: TAdd, Sort: SortInt, Args: []*Term{a, b}})
}

// Sub returns the simplified a - b.
func (tb *TermBuilder) Sub(a, b *Term) *Term {
	if a.Kind == TIntConst && b.Kind == TIntConst {
		return tb.Int(a.Int - b.Int)
	}
	if b.Kind == TIntConst && b.Int == 0 {
		return a
	}
	if a == b {
		return tb.Int(0)
	}
	return tb.intern(&Term{Kind: TSub, Sort: SortInt, Args: []*Term{a, b}})
}

// Mul returns the simplified a * b.
func (tb *TermBuilder) Mul(a, b *Term) *Term {
	if a.Kind == TIntConst && b.Kind == TIntConst {
		return tb.Int(a.Int * b.Int)
	}
	if a.Kind == TIntConst {
		switch a.Int {
		case 0:
			return tb.Int(0)
		case 1:
			return b
		}
	}
	if b.Kind == TIntConst {
		switch b.Int {
		case 0:
			return tb.Int(0)
		case 1:
			return a
		}
	}
	if a.id > b.id {
		a, b = b, a
	}
	return tb.intern(&Term{Kind: TMul, Sort: SortInt, Args: []*Term{a, b}})
}

// Neg returns the simplified -a.
func (tb *TermBuilder) Neg(a *Term) *Term {
	if a.Kind == TIntConst {
		return tb.Int(-a.Int)
	}
	if a.Kind == TNeg {
		return a.Args[0]
	}
	return tb.intern(&Term{Kind: TNeg, Sort: SortInt, Args: []*Term{a}})
}

// Ite returns the simplified if-then-else.
func (tb *TermBuilder) Ite(c, a, b *Term) *Term {
	if c.IsTrue() {
		return a
	}
	if c.IsFalse() {
		return b
	}
	if a == b {
		return a
	}
	if a.Sort == SortBool {
		// (ite c a b) == (c & a) | (!c & b): keep the boolean structure
		// visible to the CNF layer.
		return tb.Or(tb.And(c, a), tb.And(tb.Not(c), b))
	}
	return tb.intern(&Term{Kind: TIte, Sort: a.Sort, Args: []*Term{c, a, b}})
}
