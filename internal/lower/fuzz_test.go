package lower_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
	"repro/internal/ssa"
)

// FuzzLowerSSA lowers any source that parses and holds the result to SSA
// form: a lowering error is fine, a function that is not in SSA is not. The
// seeds are the examples, testdata/shapes.mc and the Juliet templates.
func FuzzLowerSSA(f *testing.F) {
	for _, units := range goldenPrograms(f) {
		var b strings.Builder
		for _, u := range units {
			b.WriteString(u.Src)
			b.WriteString("\n")
		}
		f.Add(b.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := minic.ParseProgram([]minic.NamedSource{{Name: "fuzz.mc", Src: src}})
		if err != nil {
			return
		}
		m, err := lower.Program(prog)
		if err != nil {
			return
		}
		for _, fn := range m.Funcs {
			if err := checkSSA(fn); err != nil {
				t.Fatalf("%s: %v\n%s", fn.Name, err, fn)
			}
		}
	})
}

// checkSSA reports how f falls short of SSA form: every value is defined by
// one instruction (or, read where no definition reaches, by none), every use
// is dominated by its definition (a φ operand at the end of its
// predecessor), no φ is trivial or dead, and the gate pass gives each φ one
// gate per operand. Dominance is read off the function's own tree, which is
// first held to the definition: a dominates b iff deleting a cuts b off from
// the entry.
func checkSSA(f *ir.Func) error {
	if err := ir.Verify(f); err != nil {
		return err
	}
	dominates := func(a, b *ir.Block) bool {
		for x := b; x != nil; x = f.Idom(x) {
			if x == a {
				return true
			}
		}
		return false
	}
	for _, a := range f.Blocks {
		seen := map[*ir.Block]bool{a: true}
		stack := []*ir.Block{f.Entry}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !seen[b] {
				seen[b] = true
				stack = append(stack, b.Succs...)
			}
		}
		for _, b := range f.Blocks {
			if want := a == b || !seen[b]; dominates(a, b) != want {
				return fmt.Errorf("%s dominates %s: %v in the dominator tree, %v by definition", a, b, !want, want)
			}
		}
	}
	defAt := make(map[*ir.Value]*ir.Instr)
	index := make(map[*ir.Instr]int)
	var phis []*ir.Instr
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			index[in] = i
			if in.Op == ir.OpPhi {
				phis = append(phis, in)
			}
			for _, d := range in.Defs() {
				if defAt[d] != nil {
					return fmt.Errorf("%s is defined twice", d)
				}
				if d.Def != in {
					return fmt.Errorf("%s is defined by %q but its Def is %v", d, in, d.Def)
				}
				if f.Value(d.ID) != d {
					return fmt.Errorf("%s is not the function's value %d", d, d.ID)
				}
				defAt[d] = in
			}
		}
	}
	// dominatesUse: the definition of v reaches the end of block b, or the
	// instruction at position at of b.
	dominatesUse := func(v *ir.Value, b *ir.Block, at int) error {
		if v.Kind != ir.VVar {
			return nil
		}
		def := defAt[v]
		if def == nil {
			if v.Def != nil || f.Value(v.ID) != v {
				return fmt.Errorf("%s is read but not defined", v)
			}
			return nil // read where no definition reaches
		}
		if def.Block == b && index[def] < at || def.Block != b && dominates(def.Block, b) {
			return nil
		}
		return fmt.Errorf("the definition of %s does not dominate its use in %s", v, b)
	}
	used := make(map[*ir.Value]bool)
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			for k, a := range in.Args {
				var err error
				if in.Op == ir.OpPhi {
					pred := in.Blocks()[k]
					err = dominatesUse(a, pred, len(pred.Instrs))
				} else {
					used[a] = true
					err = dominatesUse(a, b, i)
				}
				if err != nil {
					return err
				}
			}
		}
	}
	// A φ is live when a non-φ reads it or a live φ does.
	for changed := true; changed; {
		changed = false
		for _, phi := range phis {
			if used[phi.Dst] {
				for _, a := range phi.Args {
					if !used[a] {
						used[a], changed = true, true
					}
				}
			}
		}
	}
	for _, phi := range phis {
		if !used[phi.Dst] {
			return fmt.Errorf("φ %q is dead", phi)
		}
		trivial := true
		for _, a := range phi.Args[1:] {
			trivial = trivial && a == phi.Args[0]
		}
		if trivial {
			return fmt.Errorf("φ %q is trivial", phi)
		}
	}
	inf, err := ssa.Transform(f)
	if err != nil {
		return err
	}
	for _, phi := range phis {
		if g := inf.GatesOf(phi); len(g) != len(phi.Args) {
			return fmt.Errorf("φ %q has %d gates", phi, len(g))
		}
	}
	return nil
}
