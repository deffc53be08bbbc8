package smt

// Nothing outside benchmark/probes.go calls Fingerprint; it stays until that probe goes.
//
// Canonical fingerprinting of asserted formula sequences. Two candidates that instantiate the same guards in
// different calling contexts build alpha-variants of the same term DAG
// (variable names embed instance numbers, e.g. "i3.v17"), so the
// fingerprint alpha-normalizes variable names: each TVar is replaced by
// its first-occurrence index in a deterministic traversal of the asserted
// sequence. Shared subterms are serialized once and back-referenced by
// emission number, so the fingerprint is linear in the DAG (not the tree).
//
// Two keys are produced:
//
//   - Exact preserves the assertion order and the argument order of every
//     term. Equal Exact keys imply the two queries are variable-renamings
//     of one another, which makes the whole solver run isomorphic: CNF
//     variables are allocated in traversal order, the theory layer visits
//     atoms in SAT-variable order, and branching breaks activity ties in
//     variable-creation order. A cached verdict AND a cached model can
//     therefore be replayed, reproducing a fresh solve bit-for-bit.
//
//   - Shape additionally sorts the arguments of commutative operators
//     (and/or/=/+/*) into a canonical order, merging queries that differ
//     only by operand permutation. Solver runs for shape-equal queries
//     are NOT isomorphic, so shape entries may only carry verdicts whose
//     replay cannot change observable output: Unsat (the solver proves
//     absence of any model passing the same theory filter, a property
//     invariant under operand permutation). Sat models and Unknown
//     verdicts are never served from the shape tier.
//
// Shape normalization orders commutative siblings by a per-subtree
// "pattern hash" — a hash of the subtree serialized with subtree-local
// variable numbering — so alpha-variant siblings compare equal and land
// in a stable order. Siblings with identical patterns that share
// variables with each other can still serialize differently under
// permutation (full commutative canonicalization is graph-isomorphism
// hard); such collisions only cost a cache miss, never a wrong hit.

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// Canon is the canonical fingerprint of an asserted formula sequence.
type Canon struct {
	// Exact is the alpha-normalized, order-preserving key.
	Exact [32]byte
	// Shape is the alpha- and commutative-normalized key.
	Shape [32]byte

	vars []*Term // TVars in exact first-occurrence order; index = canonical id
}

// commutative reports whether a term kind ignores argument order.
func commutative(k TermKind) bool {
	switch k {
	case TAnd, TOr, TEq, TAdd, TMul:
		return true
	}
	return false
}

// canonEnc serializes a term DAG into buf with alpha-normalized variables
// and back-references for shared subterms.
type canonEnc struct {
	buf   []byte
	seen  map[int]int // term id -> emission number
	varID map[int]int // TVar term id -> canonical variable index
	vars  []*Term
	// shape, when non-nil, holds memoized pattern hashes and enables
	// commutative argument sorting.
	shape map[int][32]byte
}

func (e *canonEnc) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *canonEnc) emit(t *Term) {
	if n, ok := e.seen[t.id]; ok {
		e.buf = append(e.buf, '#')
		e.uvarint(uint64(n))
		return
	}
	e.seen[t.id] = len(e.seen)
	e.buf = append(e.buf, byte(t.Kind), byte(t.Sort))
	switch t.Kind {
	case TVar:
		idx, ok := e.varID[t.id]
		if !ok {
			idx = len(e.vars)
			e.varID[t.id] = idx
			e.vars = append(e.vars, t)
		}
		e.uvarint(uint64(idx))
	case TIntConst, TBoolConst:
		e.uvarint(uint64(t.Int))
	case TApp:
		e.uvarint(uint64(len(t.Name)))
		e.buf = append(e.buf, t.Name...)
	}
	if len(t.Args) == 0 {
		return
	}
	e.uvarint(uint64(len(t.Args)))
	args := t.Args
	if e.shape != nil && commutative(t.Kind) && len(args) > 1 {
		args = e.sortArgs(args)
	}
	for _, a := range args {
		e.emit(a)
	}
}

// sortArgs returns the arguments ordered by pattern hash (stable on ties,
// so alpha-identical siblings keep their original relative order).
func (e *canonEnc) sortArgs(args []*Term) []*Term {
	out := make([]*Term, len(args))
	copy(out, args)
	for _, a := range out {
		e.patternHash(a) // memoize before sorting
	}
	sort.SliceStable(out, func(i, j int) bool {
		hi, hj := e.shape[out[i].id], e.shape[out[j].id]
		for k := 0; k < len(hi); k++ {
			if hi[k] != hj[k] {
				return hi[k] < hj[k]
			}
		}
		return false
	})
	return out
}

// patternHash hashes t serialized with subtree-local variable numbering
// and subtree-local back-references; it is invariant under alpha renaming
// and (recursively) under commutative argument permutation.
func (e *canonEnc) patternHash(t *Term) [32]byte {
	if h, ok := e.shape[t.id]; ok {
		return h
	}
	sub := &canonEnc{
		seen:  make(map[int]int),
		varID: make(map[int]int),
		shape: e.shape,
	}
	sub.emit(t)
	h := sha256.Sum256(sub.buf)
	e.shape[t.id] = h
	return h
}

// Fingerprint computes the canonical fingerprint of an asserted sequence.
// All terms must come from one TermBuilder (ids must be consistent).
func Fingerprint(terms []*Term) *Canon {
	c := &Canon{}

	exact := &canonEnc{seen: make(map[int]int), varID: make(map[int]int)}
	for _, t := range terms {
		exact.emit(t)
		exact.buf = append(exact.buf, ';')
	}
	c.Exact = sha256.Sum256(exact.buf)
	c.vars = exact.vars

	shape := &canonEnc{
		seen:  make(map[int]int),
		varID: make(map[int]int),
		shape: make(map[int][32]byte),
	}
	for _, t := range terms {
		shape.emit(t)
		shape.buf = append(shape.buf, ';')
	}
	c.Shape = sha256.Sum256(shape.buf)
	return c
}

// NumVars returns the number of distinct variables in the fingerprinted
// sequence.
func (c *Canon) NumVars() int { return len(c.vars) }

// CanonModel translates a name-keyed boolean model (as returned by
// Solver.BoolModel) into a canonical-id-keyed model suitable for storing
// alongside the Exact key.
func (c *Canon) CanonModel(model map[string]bool) map[int]bool {
	if model == nil {
		return nil
	}
	out := make(map[int]bool, len(model))
	for i, v := range c.vars {
		if v.Sort != SortBool {
			continue
		}
		if val, ok := model[v.Name]; ok {
			out[i] = val
		}
	}
	return out
}

// ProjectModel translates a canonical-id-keyed model back into this
// query's variable names. It is the inverse of CanonModel across any two
// queries with equal Exact keys.
func (c *Canon) ProjectModel(canonModel map[int]bool) map[string]bool {
	if canonModel == nil {
		return nil
	}
	out := make(map[string]bool, len(canonModel))
	for i, val := range canonModel {
		if i >= 0 && i < len(c.vars) {
			out[c.vars[i].Name] = val
		}
	}
	return out
}
