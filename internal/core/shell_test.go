package core_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
	"repro/internal/workload"
)

// TestDetectionReadsOnlySEG holds detection to what the SEGs carry. A build
// without a store keeps only each function's shell once its SEG stands — no
// blocks, no instruction or value chunks — so a detection that reached for a
// body, an SSA info or a points-to result would find nothing; all six
// checkers, with witnesses and provenance, must report exactly what they
// report on a session with a store, which keeps the bodies.
func TestDetectionReadsOnlySEG(t *testing.T) {
	progs := map[string][]minic.NamedSource{"r20k": ladder(600, 1)}
	files, err := filepath.Glob("../../examples/mc/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example inputs: %v", err)
	}
	for _, p := range files {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		progs[filepath.Base(p)] = []minic.NamedSource{{Name: filepath.Base(p), Src: string(src)}}
	}
	for _, c := range workload.JulietSuite()[:51] {
		progs["juliet/"+c.FlawType] = c.Units
	}
	reports := func(a *core.Analysis, workers int) string {
		res := a.CheckAll(checkers.All(), detect.Options{Workers: workers, Witness: true})
		list := make([]detect.JSONReport, 0, len(res.Reports))
		for _, r := range res.Reports {
			list = append(list, r.ToJSON())
		}
		b, err := json.Marshal(list)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for name, units := range progs {
		for _, workers := range []int{1, 2} {
			tag := fmt.Sprintf("%s, workers %d", name, workers)
			shells, err := core.BuildFromSource(units, core.BuildOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			for _, f := range shells.Module.Funcs {
				if f.HasBody() {
					t.Fatalf("%s: %s kept its body after a build without a store", tag, f.Name)
				}
			}
			st := openDisk(t, t.TempDir())
			bodies, err := core.NewSession(core.BuildOptions{Workers: workers, Store: st}).Update(units)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			for _, f := range bodies.Module.Funcs {
				if !f.HasBody() {
					t.Fatalf("%s: %s lost its body in a session with a store", tag, f.Name)
				}
			}
			if got, want := reports(shells, workers), reports(bodies, workers); got != want {
				t.Errorf("%s: reports over shells differ from those over bodies\nshells: %s\nbodies: %s", tag, got, want)
			}
			st.Close()
		}
	}
}
