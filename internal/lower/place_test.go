package lower_test

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/ir"
)

// checkPlacement holds f's φs to the placement minimal SSA on dominance
// frontiers (Cytron et al., TOPLAS 1991) makes under the semi-pruned rule: a
// variable read in a block before any definition there, and defined in more
// than one block, gets a φ at each join in the iterated dominance frontier of
// its defining blocks (φs aside); any other variable gets none. The lowerer
// makes a φ only where one is read, so each of its φs must be one of these,
// and no join may hold two of one variable. A variable is known by its
// values' name: a name two variables share gives each the other's blocks and
// reads, which only widens the placement.
func checkPlacement(f *ir.Func) error {
	type variable struct {
		defs   []int32 // the blocks defining it, φs aside
		global bool
	}
	vars := make(map[string]*variable)
	varOf := func(v int32) *variable {
		if f.Value(v).Kind != ir.VVar {
			return nil
		}
		name := f.ValueName(v)
		if i := strings.LastIndexByte(name, '.'); i >= 0 {
			name = name[:i]
		}
		if vars[name] == nil {
			vars[name] = new(variable)
		}
		return vars[name]
	}
	for _, b := range f.Blocks() {
		defined := make(map[*variable]bool)
		def := func(d int32) {
			if x := varOf(d); !defined[x] {
				defined[x] = true
				x.defs = append(x.defs, b)
			}
		}
		for _, in := range f.Instrs(b) {
			if f.In(in).Op == ir.OpPhi {
				continue
			}
			for _, a := range f.Args(in) {
				if x := varOf(a); x != nil && !defined[x] {
					x.global = true
				}
			}
			if d := f.In(in).Dst; d >= 0 {
				def(d)
			}
			for _, d := range f.Dsts(in) {
				if d >= 0 {
					def(d)
				}
			}
		}
	}
	// The dominance frontiers: a join is in the frontier of each block on
	// the dominator-tree path from a predecessor up to, not including, the
	// join's immediate dominator.
	frontier := make(map[int32][]int32)
	for _, w := range f.Blocks() {
		if len(f.Preds(w)) < 2 {
			continue
		}
		for _, p := range f.Preds(w) {
			for r := p; r != f.Idom(w); r = f.Idom(r) {
				if !slices.Contains(frontier[r], w) {
					frontier[r] = append(frontier[r], w)
				}
			}
		}
	}
	placed := func(x *variable) []int32 {
		if !x.global || len(x.defs) < 2 {
			return nil
		}
		var at []int32
		work := slices.Clone(x.defs)
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, w := range frontier[b] {
				if !slices.Contains(at, w) {
					at = append(at, w)
					work = append(work, w)
				}
			}
		}
		return at
	}
	type phiAt struct {
		x *variable
		b int32
	}
	seen := make(map[phiAt]bool)
	for _, b := range f.Blocks() {
		for _, in := range f.Instrs(b) {
			if f.In(in).Op != ir.OpPhi {
				continue
			}
			x := varOf(f.In(in).Dst)
			if !slices.Contains(placed(x), b) {
				return fmt.Errorf("φ %q in %s is not where the semi-pruned frontier placement puts one", f.InstrString(in), ir.BlockName(b))
			}
			if seen[phiAt{x, b}] {
				return fmt.Errorf("%s holds two φs of one variable", ir.BlockName(b))
			}
			seen[phiAt{x, b}] = true
		}
	}
	return nil
}
