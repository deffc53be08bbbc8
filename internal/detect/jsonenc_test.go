package detect_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
	"repro/internal/workload"
)

// TestReportJSONMatchesEncodingJSON holds the report appender to
// encoding/json over every report of the example programs and of the Juliet
// suite, with provenance and without.
func TestReportJSONMatchesEncodingJSON(t *testing.T) {
	files, err := filepath.Glob("../../examples/mc/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example inputs: %v", err)
	}
	var progs [][]minic.NamedSource
	for _, p := range files {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, []minic.NamedSource{{Name: filepath.Base(p), Src: string(src)}})
	}
	suite := workload.JulietSuite()
	if testing.Short() {
		suite = suite[:51]
	}
	for _, c := range suite {
		progs = append(progs, c.Units)
	}
	reports := 0
	for _, units := range progs {
		a, err := core.BuildFromSource(units, core.BuildOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", units[0].Name, err)
		}
		for _, witness := range []bool{false, true} {
			res := a.CheckAll(checkers.All(), detect.Options{Workers: 1, Witness: witness})
			list := make([]detect.JSONReport, 0, len(res.Reports))
			for _, r := range res.Reports {
				list = append(list, r.ToJSON())
			}
			want, err := json.Marshal(list)
			if err != nil {
				t.Fatal(err)
			}
			if got := detect.AppendJSONReports(nil, list); !bytes.Equal(got, want) {
				t.Fatalf("%s (witness %t): appended\n%s\nencoding/json\n%s", units[0].Name, witness, got, want)
			}
			reports += len(list)
		}
	}
	if reports == 0 {
		t.Fatal("no reports to compare")
	}
}

// FuzzReportJSON holds the appender to encoding/json on reports whose strings
// are adversarial: HTML metacharacters, control bytes, the line and
// paragraph separators, invalid UTF-8.
func FuzzReportJSON(f *testing.F) {
	f.Add("use-after-free", "", "a.mc", 3, "f", "<b>&amp;</b>", "c@f = true", "x.1", int64(2))
	f.Add("memory-leak", "never-freed", "\x00\x1f\b\f\n\r\t\"\\", -1, "  ", "\xff\xfe", "\xe2\x80", "é", int64(-7))
	f.Fuzz(func(t *testing.T, checker, kind, file string, line int, fn, sink, witness, node string, n int64) {
		r := detect.JSONReport{
			Checker: checker, Kind: kind, SourceFile: file, SourceLine: line, SourceFunc: fn,
			SinkFile: sink, SinkLine: int(n), SinkFunc: node, PathLen: line, Contexts: int(n),
		}
		for _, w := range []string{witness, sink, ""} {
			r.Witness = append(r.Witness, w)
		}
		for _, prov := range []*detect.JSONProvenance{nil, {CondTerms: int(n), VerdictSource: kind}, {
			Hops:      []detect.JSONHop{{Ctx: line, Func: fn, Node: node, File: file, Line: int(n)}, {Node: witness}},
			CondTerms: line, VerdictSource: witness,
		}} {
			r.Provenance = prov
			for _, list := range [][]detect.JSONReport{{}, {r}, {r, {Checker: sink}}} {
				want, err := json.Marshal(list)
				if err != nil {
					t.Fatal(err)
				}
				if got := detect.AppendJSONReports(nil, list); !bytes.Equal(got, want) {
					t.Fatalf("appended\n%q\nencoding/json\n%q", got, want)
				}
			}
			r.Witness = nil
		}
	})
}
