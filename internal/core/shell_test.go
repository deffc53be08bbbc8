package core_test

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
	"repro/internal/seg"
	"repro/internal/wirebin"
	"repro/internal/workload"
)

// TestDetectionReadsOnlySEG holds detection to what the SEGs carry. Every
// build keeps only each function's shell once its SEG stands — no blocks, no
// instruction or value chunks — and a warm restart over a store brings back
// shells and SEGs and lowers nothing, so a detection that reached for a
// body, an SSA info or a points-to result would find nothing. All six
// checkers, with witnesses and provenance, must report exactly the same over
// a storeless build and over a restart in which every artifact is a store
// hit.
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
			for pos := range shells.Module.NumFuncs() {
				f := shells.Module.Func(pos)
				if f.Body != nil {
					t.Fatalf("%s: %s kept its body after a build without a store", tag, f.Name)
				}
			}
			dir := t.TempDir()
			st := openDisk(t, dir)
			if _, err := core.NewSession(core.BuildOptions{Workers: workers, Store: st}).Update(units); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st = openDisk(t, dir)
			warm, err := core.NewSession(core.BuildOptions{Workers: workers, Store: st}).Update(units)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if s := warm.Artifacts; s.StoreHits != warm.Sizes.Functions || s.Misses != 0 || s.Invalidated != 0 || s.UnitsParsed != 0 {
				t.Fatalf("%s: the restart is not all store hits: %+v of %d functions", tag, s, warm.Sizes.Functions)
			}
			for pos := range warm.Module.NumFuncs() {
				f := warm.Module.Func(pos)
				if f.Body != nil {
					t.Fatalf("%s: %s has a body after a warm restart", tag, f.Name)
				}
			}
			if got, want := reports(warm, workers), reports(shells, workers); got != want {
				t.Errorf("%s: reports after a warm restart differ from a storeless build's\nwarm: %s\nstoreless: %s", tag, got, want)
			}
			st.Close()
		}
	}
}

// TestDetectionLeavesGraphsUnchanged holds detection to reading the SEGs: a
// graph is final when built or decoded, so all six checkers with witnesses,
// run at one worker and then at two, leave every graph's vertex count and
// encoding as they found them — over a storeless build of the r20k ladder
// and over a warm restart of it, whose graphs encode as the storeless
// build's do.
func TestDetectionLeavesGraphsUnchanged(t *testing.T) {
	units := ladder(600, 1)
	type graphState struct {
		nodes int
		wire  string
	}
	snapshot := func(a *core.Analysis) map[string]graphState {
		out := make(map[string]graphState, a.Module.NumFuncs())
		for pos := range a.Module.NumFuncs() {
			f := a.Module.Func(pos)
			if g := a.SEGs.At(f.ID); g != nil {
				var e wirebin.Writer
				seg.EncodeGraph(&e, g)
				out[f.Name] = graphState{g.NumNodes(), string(e.B)}
			}
		}
		return out
	}
	storeless, err := core.BuildFromSource(units, core.BuildOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st := openDisk(t, dir)
	if _, err := core.NewSession(core.BuildOptions{Workers: 2, Store: st}).Update(units); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openDisk(t, dir)
	defer st.Close()
	warm, err := core.NewSession(core.BuildOptions{Workers: 2, Store: st}).Update(units)
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Artifacts; s.StoreHits != warm.Sizes.Functions {
		t.Fatalf("the restart is not all store hits: %+v of %d functions", s, warm.Sizes.Functions)
	}
	built := snapshot(storeless)
	if len(built) == 0 {
		t.Fatal("the build holds no graph")
	}
	for name, a := range map[string]*core.Analysis{"storeless": storeless, "warm restart": warm} {
		if got := snapshot(a); !maps.Equal(got, built) {
			t.Fatalf("%s: the graphs encode otherwise than the storeless build's before detection", name)
		}
		for _, workers := range []int{1, 2} {
			a.CheckAll(checkers.All(), detect.Options{Workers: workers, Witness: true})
			for fn, after := range snapshot(a) {
				if before := built[fn]; after != before {
					t.Fatalf("%s, workers %d: detection changed the graph of %s: %d vertices and %d wire bytes, were %d and %d",
						name, workers, fn, after.nodes, len(after.wire), before.nodes, len(before.wire))
				}
			}
		}
	}
}
