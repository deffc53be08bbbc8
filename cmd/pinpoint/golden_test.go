package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

// TestDumpGolden pins what `-dump seg:<f>` and `-dump cfg:<f>` print for
// every function of the example programs.
func TestDumpGolden(t *testing.T) {
	files, err := filepath.Glob("../../examples/mc/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example inputs: %v", err)
	}
	var b strings.Builder
	for _, p := range files {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		units := []minic.NamedSource{{Name: filepath.Base(p), Src: string(src)}}
		a, err := core.BuildFromSource(units, core.BuildOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range a.Module.Funcs {
			for _, kind := range []string{"seg", "cfg"} {
				// As the CLI does: a cfg dump keeps the function's body.
				a := a
				if kind == "cfg" {
					if a, err = core.BuildFromSource(units, core.BuildOptions{Workers: 1, KeepBody: f.Name}); err != nil {
						t.Fatal(err)
					}
				}
				dot, err := dump(a, kind+":"+f.Name)
				if err != nil {
					t.Fatal(err)
				}
				b.WriteString("== " + filepath.Base(p) + " -dump " + kind + ":" + f.Name + "\n" + dot)
			}
		}
	}
	checkGolden(t, "dump.golden", b.String())
}

// TestReportGolden pins what `-checkers all -format json -witness
// -provenance` prints for the example programs and the 51 Juliet flaw
// templates (the first variant of each).
func TestReportGolden(t *testing.T) {
	files, err := filepath.Glob("../../examples/mc/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example inputs: %v", err)
	}
	progs := map[string][]minic.NamedSource{}
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
	var names []string
	for name := range progs {
		names = append(names, name)
	}
	slices.Sort(names)
	var b strings.Builder
	for _, name := range names {
		a, err := core.BuildFromSource(progs[name], core.BuildOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := a.CheckAll(checkers.All(), detect.Options{Workers: 1, Witness: true})
		list := make([]detect.JSONReport, 0, len(res.Reports))
		for _, r := range res.Reports {
			list = append(list, r.ToJSON())
		}
		out, err := json.MarshalIndent(list, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString("== " + name + "\n" + string(out) + "\n")
	}
	checkGolden(t, "reports.golden", b.String())
}

// checkGolden compares got with testdata/<name>, or rewrites it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
