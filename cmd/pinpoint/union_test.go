package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"repro/internal/checkers"
	"repro/internal/detect"
	"repro/internal/workload"
)

// TestAllEqualsUnionOfCheckers holds `-checkers all` — where checkers that
// share sources share one walk — against the six single-checker processes:
// the reports it prints are theirs, concatenated in checker order, on the
// example programs and on a generated 2k-line ladder, with as many workers
// as the test has CPUs (scripts/check.sh runs it at -cpu 1,2).
func TestAllEqualsUnionOfCheckers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the pinpoint binary")
	}
	bin := filepath.Join(t.TempDir(), "pinpoint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	examples, err := filepath.Glob("../../examples/mc/*.mc")
	if err != nil || len(examples) < 2 {
		t.Fatalf("example sources: %v (%d found)", err, len(examples))
	}
	// The benchmark's subject at its smallest size (benchmark/inputs.go, r2k).
	gen := workload.Generate(
		workload.Subject{Name: "ladder", Origin: "synthetic", PaperKLoC: 60, TrueBugs: 6, OpaqueTraps: 4},
		workload.GenOptions{Scale: 30, Taint: true, Seed: 1})
	dir := t.TempDir()
	var ladder []string
	for _, u := range gen.Units {
		path := filepath.Join(dir, u.Name)
		if err := os.WriteFile(path, []byte(u.Src), 0o644); err != nil {
			t.Fatal(err)
		}
		ladder = append(ladder, path)
	}

	names := checkers.Names()
	sort.Strings(names) // the order reports are printed in
	workers := strconv.Itoa(runtime.GOMAXPROCS(0))
	for what, files := range map[string][]string{"examples": examples, "ladder": ladder} {
		reports := func(sel string) ([]detect.JSONReport, int) {
			out, code := run(t, bin, append([]string{"-checkers", sel, "-workers", workers, "-format", "json"}, files...)...)
			var list []detect.JSONReport
			if err := json.Unmarshal(out, &list); err != nil {
				t.Fatalf("%s, -checkers %s: %v", what, sel, err)
			}
			return list, code
		}
		all, code := reports("all")
		if len(all) == 0 || code != 1 {
			t.Fatalf("%s: -checkers all printed %d reports and exited %d", what, len(all), code)
		}
		var union []detect.JSONReport
		for _, name := range names {
			one, code := reports(name)
			if (code == 1) != (len(one) > 0) {
				t.Errorf("%s, -checkers %s: %d reports, exit status %d", what, name, len(one), code)
			}
			union = append(union, one...)
		}
		if got, want := marshal(t, all), marshal(t, union); got != want {
			t.Errorf("%s: -checkers all differs from the six checkers' union\nall:   %s\nunion: %s", what, got, want)
		}
	}
}
