package lower_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
	"repro/internal/modref"
	"repro/internal/pta"
	"repro/internal/seg"
	"repro/internal/ssa"
	"repro/internal/transform"
	"repro/internal/wirebin"
)

// FuzzLowerSSA lowers any source that parses and holds the result to SSA
// form and its φs to the frontier placement (checkPlacement): a lowering
// error is fine, a function that is not in SSA is not. It
// then runs the rest of the build — Mod/Ref, the connector transformation,
// points-to, the SEG — and holds each function's graph to the segment codec:
// it must encode, decode (which checks every ID, offset and count against
// the function's ID spaces) and encode again to the same bytes. The seeds are
// the examples, testdata/shapes.mc and the Juliet templates.
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
		infos := make([]*ssa.Info, len(m.Funcs))
		for i, fn := range m.Funcs {
			if err := checkPlacement(fn); err != nil {
				t.Fatalf("%s: %v\n%s", fn.Name, err, fn)
			}
			if infos[i], err = checkSSA(fn); err != nil {
				t.Fatalf("%s: %v\n%s", fn.Name, err, fn)
			}
		}
		if err := transform.Apply(m, modref.Analyze(m)); err != nil {
			return
		}
		for i, fn := range m.Funcs {
			if err := checkCodec(fn, infos[i]); err != nil {
				t.Fatalf("%s: %v\n%s", fn.Name, err, fn)
			}
		}
	})
}

// checkCodec builds f's SEG and holds it to the segment codec: the graph
// encodes, decodes against f's ID spaces and encodes again to the same bytes.
func checkCodec(f *ir.Func, inf *ssa.Info) error {
	pr, err := pta.Analyze(f, inf, pta.Options{})
	if err != nil {
		return err
	}
	g := seg.Build(f, inf, pr)
	var first, again wirebin.Writer
	seg.EncodeGraph(&first, g)
	r := wirebin.NewReader(first.B)
	back, err := seg.DecodeGraph(r, f, g.Conds())
	if err != nil {
		return err
	}
	seg.EncodeGraph(&again, back)
	if !bytes.Equal(first.B, again.B) {
		return fmt.Errorf("the decoded graph encodes to %d bytes that differ from the %d it was decoded from", len(again.B), len(first.B))
	}
	return nil
}

// checkSSA reports how f falls short of SSA form: every value is defined by
// one instruction (or, read where no definition reaches, by none), every use
// is dominated by its definition (a φ operand at the end of its
// predecessor), no φ is trivial or dead, and the gate pass gives each φ one
// gate per operand. Dominance is read off the function's own tree, which is
// first held to the definition: a dominates b iff deleting a cuts b off from
// the entry.
func checkSSA(f *ir.Func) (*ssa.Info, error) {
	if err := ir.Verify(f); err != nil {
		return nil, err
	}
	dominates := func(a, b int32) bool {
		for x := b; x >= 0; x = f.Idom(x) {
			if x == a {
				return true
			}
		}
		return false
	}
	for _, a := range f.Blocks() {
		seen := map[int32]bool{a: true}
		stack := []int32{f.Entry}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !seen[b] {
				seen[b] = true
				stack = append(stack, f.Succs(b)...)
			}
		}
		for _, b := range f.Blocks() {
			if want := a == b || !seen[b]; dominates(a, b) != want {
				return nil, fmt.Errorf("b%d dominates b%d: %v in the dominator tree, %v by definition", a, b, !want, want)
			}
		}
	}
	defAt := make(map[int32]int32)
	index := make(map[int32]int)
	var phis []int32
	for _, b := range f.Blocks() {
		for i, in := range f.Instrs(b) {
			index[in] = i
			if f.In(in).Op == ir.OpPhi {
				phis = append(phis, in)
			}
			for _, d := range append(f.Dsts(in), f.In(in).Dst) {
				if d < 0 {
					continue
				}
				if _, twice := defAt[d]; twice {
					return nil, fmt.Errorf("%s is defined twice", f.ValueString(d))
				}
				if f.Value(d).Def != in {
					return nil, fmt.Errorf("%s is defined by %q but its Def is %v", f.ValueString(d), f.InstrString(in), f.Value(d).Def)
				}
				if !f.HoldsValue(d) {
					return nil, fmt.Errorf("%s is not the function's value %d", f.ValueString(d), d)
				}
				defAt[d] = in
			}
		}
	}
	// dominatesUse: the definition of v reaches the end of block b, or the
	// instruction at position at of b.
	dominatesUse := func(v int32, b int32, at int) error {
		if f.Value(v).Kind != ir.VVar {
			return nil
		}
		def, ok := defAt[v]
		if !ok {
			if f.Value(v).Def >= 0 || !f.HoldsValue(v) {
				return fmt.Errorf("%s is read but not defined", f.ValueString(v))
			}
			return nil // read where no definition reaches
		}
		if db := f.In(def).Block; db == b && index[def] < at || db != b && dominates(db, b) {
			return nil
		}
		return fmt.Errorf("the definition of %s does not dominate its use in b%d", f.ValueString(v), b)
	}
	used := make(map[int32]bool)
	for _, b := range f.Blocks() {
		for i, in := range f.Instrs(b) {
			for k, a := range f.Args(in) {
				var err error
				if f.In(in).Op == ir.OpPhi {
					pred := f.Preds(b)[k]
					err = dominatesUse(a, pred, len(f.Instrs(pred)))
				} else {
					used[a] = true
					err = dominatesUse(a, b, i)
				}
				if err != nil {
					return nil, err
				}
			}
		}
	}
	// A φ is live when a non-φ reads it or a live φ does.
	for changed := true; changed; {
		changed = false
		for _, phi := range phis {
			if used[f.In(phi).Dst] {
				for _, a := range f.Args(phi) {
					if !used[a] {
						used[a], changed = true, true
					}
				}
			}
		}
	}
	for _, phi := range phis {
		if !used[f.In(phi).Dst] {
			return nil, fmt.Errorf("φ %q is dead", f.InstrString(phi))
		}
		args := f.Args(phi)
		trivial := true
		for _, a := range args[1:] {
			trivial = trivial && a == args[0]
		}
		if trivial {
			return nil, fmt.Errorf("φ %q is trivial", f.InstrString(phi))
		}
	}
	inf, err := ssa.Transform(f)
	if err != nil {
		return nil, err
	}
	for _, phi := range phis {
		for i := range f.Args(phi) {
			if g := f.GateID(phi, i); g < 0 || int(g) >= inf.Conds.NumNodes() {
				return nil, fmt.Errorf("φ %q has no gate for operand %d", f.InstrString(phi), i)
			}
		}
	}
	return inf, nil
}
