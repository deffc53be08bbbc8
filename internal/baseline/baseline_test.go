package baseline

import (
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/pta"
)

const trapSrc = `
// The "pointer trap" program: a path-insensitive analysis cannot tell the
// two slots apart in time, and the free/use guard correlation is invisible
// without path conditions.
void f(bool c) {
	int *p = malloc();
	int *q = malloc();
	int **slot = malloc();
	if (c) { *slot = p; } else { *slot = q; }
	int *u = *slot;
	if (c) { free(p); }
	if (!c) { sink(*u); }
}`

func TestAndersenBasic(t *testing.T) {
	m, err := BuildBaselineModule([]minic.NamedSource{{Name: "t.mc", Src: `
void f() {
	int *p = malloc();
	int *q = p;
	int x = *q;
}`}})
	if err != nil {
		t.Fatal(err)
	}
	ap := pta.Andersen(m)
	f := m.Lookup("f")
	mallocDst, copyDst := pta.Var{Fn: -1}, pta.Var{Fn: -1}
	for _, in := range f.Order() {
		switch r := f.In(in); r.Op {
		case ir.OpMalloc:
			mallocDst = pta.Var{Fn: int32(f.ID), Val: r.Dst}
		case ir.OpCopy:
			if f.Type(r.Dst).IsPointer() {
				copyDst = pta.Var{Fn: int32(f.ID), Val: r.Dst}
			}
		}
	}
	if mallocDst.Fn < 0 || copyDst.Fn < 0 {
		t.Fatal("values not found")
	}
	if !ap.Alias(mallocDst, copyDst) {
		t.Fatal("copy alias lost")
	}
}

func TestAndersenInterprocedural(t *testing.T) {
	m, err := BuildBaselineModule([]minic.NamedSource{{Name: "t.mc", Src: `
int *id(int *x) { return x; }
void f() {
	int *p = malloc();
	int *q = id(p);
	int v = *q;
}`}})
	if err != nil {
		t.Fatal(err)
	}
	ap := pta.Andersen(m)
	f := m.Lookup("f")
	mallocDst, callDst := pta.Var{Fn: -1}, pta.Var{Fn: -1}
	for _, in := range f.Order() {
		switch r := f.In(in); r.Op {
		case ir.OpMalloc:
			mallocDst = pta.Var{Fn: int32(f.ID), Val: r.Dst}
		case ir.OpCall:
			if f.Callee(in) == "id" && f.Dsts(in)[0] >= 0 {
				callDst = pta.Var{Fn: int32(f.ID), Val: f.Dsts(in)[0]}
			}
		}
	}
	if mallocDst.Fn < 0 || callDst.Fn < 0 {
		t.Fatal("values not found")
	}
	// Context-insensitive flow through id: the receiver aliases the
	// malloc result.
	if !ap.Alias(mallocDst, callDst) {
		t.Fatal("interprocedural flow lost")
	}
}

func TestSVFBaselineFloodsOnTrap(t *testing.T) {
	units := []minic.NamedSource{{Name: "t.mc", Src: trapSrc}}
	m, err := BuildBaselineModule(units)
	if err != nil {
		t.Fatal(err)
	}
	res := RunSVF(m, SVFOptions{})
	if res.TimedOut {
		t.Fatal("unexpected timeout")
	}
	// The layered baseline reports the infeasible path: at least one
	// warning (a false positive by ground truth).
	if len(res.Reports) == 0 {
		t.Fatal("baseline reported nothing on the trap program")
	}
	// Pinpoint on the same program reports nothing.
	a, err := core.BuildFromSource(units, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reports, _ := a.Check(checkers.UseAfterFree(), detect.Options{})
	if len(reports) != 0 {
		t.Fatalf("pinpoint has FP on trap program: %v", reports)
	}
}

func TestSVFEdgeBudgetTimeout(t *testing.T) {
	m, err := BuildBaselineModule([]minic.NamedSource{{Name: "t.mc", Src: trapSrc}})
	if err != nil {
		t.Fatal(err)
	}
	res := RunSVF(m, SVFOptions{MaxEdges: 2})
	if !res.TimedOut {
		t.Fatal("edge budget not enforced")
	}
}

func TestInferLikeMissesCrossUnit(t *testing.T) {
	units := []minic.NamedSource{
		{Name: "u1.mc", Src: "void release(int *x) { free(x); }"},
		{Name: "u2.mc", Src: `
void f() {
	int *p = malloc();
	release(p);
	sink(*p);
}`},
	}
	a, err := core.BuildFromSource(units, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Pinpoint finds the cross-unit bug.
	pin, _ := a.Check(checkers.UseAfterFree(), detect.Options{})
	if len(pin) != 1 {
		t.Fatalf("pinpoint missed cross-unit bug: %v", pin)
	}
	// The unit-confined baselines do not.
	inf, _ := RunInferLike(a, checkers.UseAfterFree())
	if len(inf) != 0 {
		t.Fatalf("infer-like crossed units: %v", inf)
	}
	csa, _ := RunCSALike(a, checkers.UseAfterFree())
	if len(csa) != 0 {
		t.Fatalf("csa-like crossed units: %v", csa)
	}
}

func TestInferLikeFalsePositiveOnOrdering(t *testing.T) {
	units := []minic.NamedSource{{Name: "t.mc", Src: `
void f() {
	int *p = malloc();
	sink(*p);
	free(p);
}`}}
	a, err := core.BuildFromSource(units, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inf, _ := RunInferLike(a, checkers.UseAfterFree())
	if len(inf) == 0 {
		t.Fatal("infer-like should flag use-before-free (its characteristic FP)")
	}
	csa, _ := RunCSALike(a, checkers.UseAfterFree())
	if len(csa) != 0 {
		t.Fatalf("csa-like should respect ordering: %v", csa)
	}
}

func TestCSALikeFalsePositiveOnConditions(t *testing.T) {
	units := []minic.NamedSource{{Name: "t.mc", Src: `
void f(bool c) {
	int *p = malloc();
	if (c) { free(p); }
	if (!c) { sink(*p); }
}`}}
	a, err := core.BuildFromSource(units, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	csa, _ := RunCSALike(a, checkers.UseAfterFree())
	if len(csa) == 0 {
		t.Fatal("csa-like should flag the infeasible path (no SMT)")
	}
	pin, _ := a.Check(checkers.UseAfterFree(), detect.Options{})
	if len(pin) != 0 {
		t.Fatalf("pinpoint FP: %v", pin)
	}
}

func TestSVFTrueBugStillFound(t *testing.T) {
	m, err := BuildBaselineModule([]minic.NamedSource{{Name: "t.mc", Src: `
void f() {
	int *p = malloc();
	free(p);
	sink(*p);
}`}})
	if err != nil {
		t.Fatal(err)
	}
	res := RunSVF(m, SVFOptions{})
	if len(res.Reports) == 0 {
		t.Fatal("baseline missed a trivial true bug")
	}
}
