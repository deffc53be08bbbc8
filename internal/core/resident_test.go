package core_test

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/seg"
	"repro/internal/wirebin"
	"repro/internal/workload"
)

// The structural ledger accounts for the heap a one-shot analysis holds —
// TestResidentBudget's first row, measured the same way — from its tables'
// lengths and capacities, all but the program-level indexes, to within 10%.
func TestResidentLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state of its own")
	}
	gen := workload.Generate(
		workload.Subject{Name: "alloc-budget", Origin: "synthetic", PaperKLoC: 300, TrueBugs: 6, OpaqueTraps: 4},
		workload.GenOptions{Scale: 30, Taint: true, Seed: 1})
	var a *core.Analysis
	heap, _ := residentHeap(t, func() (any, int) {
		var err error
		if a, err = core.BuildFromSource(gen.Units, core.BuildOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		return a, a.Sizes.Lines
	})
	r := a.Resident()
	ledger := float64(r.Total) / float64(a.Sizes.Lines)
	t.Logf("the ledger: %.0f bytes per instruction (%+v); the heap: %.0f", ledger, r, heap)
	if ledger < 0.9*heap || ledger > 1.1*heap {
		t.Errorf("the ledger says %.0f bytes per instruction, the heap %.0f: more than 10%% apart", ledger, heap)
	}
}

// A built graph holds exactly the tables the segment codec keeps: for every
// function of the r20k ladder rung, the graph seg.Build made and the one
// DecodeGraph makes of its encoding are equal, field for field — the body,
// the graph's own lists, the condition builder's nodes, nothing left of the
// build — and occupy the same bytes by the structural ledger, capacities
// included.
func TestBuiltGraphEqualsDecoded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 20k-line ladder")
	}
	a, err := core.BuildFromSource(ladder(600, 1), core.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range a.Module.Funcs {
		built := a.SEGs[f.ID]
		var e wirebin.Writer
		if err := cond.EncodeBuilder(&e, built.Conds()); err != nil {
			t.Fatal(err)
		}
		seg.EncodeGraph(&e, built)
		r := wirebin.NewReader(e.B)
		conds, err := cond.DecodeBuilder(r)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		decoded, err := seg.DecodeGraph(r, f, conds)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if field := graphsDiffer(built, decoded); field != "" {
			t.Fatalf("%s: the built graph and its decoded form differ in %s", f.Name, field)
		}
		if b, d := core.GraphResident(built), core.GraphResident(decoded); b != d {
			t.Fatalf("%s: the built graph occupies %+v, its decoded form %+v", f.Name, b, d)
		}
	}
}

// graphsDiffer names the first field in which a and b differ ("" if none):
// every field of seg.Graph, unexported ones included, deeply, but the
// condition builder, whose nodes are compared by ID.
func graphsDiffer(a, b *seg.Graph) string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		x := reflect.NewAt(fa.Type(), unsafe.Pointer(fa.UnsafeAddr())).Elem().Interface()
		y := reflect.NewAt(fb.Type(), unsafe.Pointer(fb.UnsafeAddr())).Elem().Interface()
		if ca, ok := x.(*cond.Builder); ok {
			cb := y.(*cond.Builder)
			if ca.NumNodes() != cb.NumNodes() {
				return "the number of condition nodes"
			}
			for id := int32(0); int(id) < ca.NumNodes(); id++ {
				if !reflect.DeepEqual(ca.Node(id), cb.Node(id)) {
					return fmt.Sprintf("condition node %d", id)
				}
			}
		} else if !reflect.DeepEqual(x, y) {
			return va.Type().Field(i).Name
		}
	}
	return ""
}
