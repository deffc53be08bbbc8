package lower_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
	"repro/internal/ssa"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/ssa.golden")

// goldenPrograms returns the programs ssa.golden pins: the examples, the 51
// Juliet flaw templates (the first variant of each) and testdata/shapes.mc.
func goldenPrograms(t testing.TB) map[string][]minic.NamedSource {
	progs := make(map[string][]minic.NamedSource)
	files, err := filepath.Glob("../../examples/mc/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example inputs: %v", err)
	}
	files = append(files, filepath.Join("testdata", "shapes.mc"))
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		progs[filepath.Base(p)] = []minic.NamedSource{{Name: filepath.Base(p), Src: string(b)}}
	}
	for _, c := range workload.JulietSuite()[:51] {
		progs["juliet/"+c.FlawType] = c.Units
	}
	return progs
}

// TestSSAGolden pins the SSA form of every function the golden programs
// define: the IR as ir.Func.String prints it, then each block's reach
// condition and control dependences and each φ's gates. Conditions print
// their node IDs, so the order conditions are built in is pinned too. Each
// function's φs are held to the frontier placement first (checkPlacement).
func TestSSAGolden(t *testing.T) {
	progs := goldenPrograms(t)
	var names []string
	for name := range progs {
		names = append(names, name)
	}
	slices.Sort(names)
	var b strings.Builder
	for _, name := range names {
		prog, err := minic.ParseProgram(progs[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := lower.Program(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range m.Funcs {
			if err := checkPlacement(f); err != nil {
				t.Fatalf("%s: %s: %v\n%s", name, f.Name, err, f)
			}
			inf, err := ssa.Transform(f)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fmt.Fprintf(&b, "== %s\n%s", name, f)
			writeGates(&b, f, inf)
		}
	}
	path := filepath.Join("testdata", "ssa.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("SSA differs from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("SSA differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}

func writeGates(b *strings.Builder, f *ir.Func, inf *ssa.Info) {
	for _, blk := range f.Blocks() {
		fmt.Fprintf(b, "%s: reach %s cd [", ir.BlockName(blk), renderCond(inf, inf.ReachCond(blk)))
		for i, d := range inf.CD(blk) {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(b, "%s:%v", ir.BlockName(d.Branch), d.OnTrue)
		}
		b.WriteString("]\n")
		for _, in := range f.Instrs(blk) {
			if f.In(in).Op != ir.OpPhi {
				continue
			}
			fmt.Fprintf(b, "  gates %s:", f.ValueString(f.In(in).Dst))
			for i := range f.Args(in) {
				fmt.Fprintf(b, " %s", renderCond(inf, inf.Gate(in, i)))
			}
			b.WriteString("\n")
		}
	}
}

// renderCond prints c with its atoms by value name and every node by ID.
func renderCond(inf *ssa.Info, c *cond.Cond) string {
	switch c.Kind() {
	case cond.KTrue:
		return "true"
	case cond.KFalse:
		return "false"
	case cond.KAtom:
		return fmt.Sprintf("%s#%d", inf.Fn.ValueString(int32(c.Atom())), c.ID())
	case cond.KNot:
		return fmt.Sprintf("!%s#%d", renderCond(inf, c.Ops()[0]), c.ID())
	}
	sep := " & "
	if c.Kind() == cond.KOr {
		sep = " | "
	}
	var ops []string
	for _, op := range c.Ops() {
		ops = append(ops, renderCond(inf, op))
	}
	return fmt.Sprintf("(%s)#%d", strings.Join(ops, sep), c.ID())
}
