package minic_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/minic"
	"repro/internal/workload"
)

// FuzzParseFunc holds a function's own parse to the whole unit's. Of a unit
// ParseFile accepts, each function parsed from its declaration's line and
// column — into one arena, reset from function to function — deep-equals,
// positions included, the declaration ParseFile yields. Of a unit it
// rejects, a parse from any offset must fail or succeed, never panic. The
// seeds are the examples and a Juliet case of each flaw type.
func FuzzParseFunc(f *testing.F) {
	examples, err := filepath.Glob("../../examples/mc/*.mc")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no examples: %v", err)
	}
	for _, path := range examples {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	seen := make(map[string]bool)
	for _, c := range workload.JulietSuite() {
		if !seen[c.FlawType] {
			seen[c.FlawType] = true
			for _, u := range c.Units {
				f.Add(u.Src)
			}
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		const name = "fuzz.mc"
		var a minic.Arena
		file, err := minic.ParseFile(name, src)
		if err != nil {
			at := minic.Pos{File: name, Line: 1, Col: 1}
			for off := 0; off <= len(src) && off < 1<<10; off++ {
				a.ParseFunc(src, at, off, minic.IntType)
				if at.Col++; off < len(src) && src[off] == '\n' {
					at.Line, at.Col = at.Line+1, 1
				}
			}
			return
		}
		for _, want := range file.Funcs {
			// Columns count bytes: the offset is the line's plus the column.
			off := 0
			for line := 1; line < want.Pos.Line; line++ {
				off += strings.IndexByte(src[off:], '\n') + 1
			}
			got, err := a.ParseFunc(src, want.Pos, off+want.Pos.Col-1, want.Ret)
			if err != nil {
				t.Fatalf("%s at %s: %v", want.Name, want.Pos, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s parsed from %s differs from the whole unit's parse", want.Name, want.Pos)
			}
		}
	})
}
