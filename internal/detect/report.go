package detect

import (
	"slices"
	"strings"

	"repro/internal/minic"
)

// JSONReport is the machine-readable report schema shared by cmd/pinpoint's
// -format json output, the examples, and CI scripts. Source–sink reports
// fill the sink fields; memory-leak reports set kind and leave them empty.
type JSONReport struct {
	Checker    string   `json:"checker"`
	Kind       string   `json:"kind,omitempty"`
	SourceFile string   `json:"sourceFile"`
	SourceLine int      `json:"sourceLine"`
	SourceFunc string   `json:"sourceFunc"`
	SinkFile   string   `json:"sinkFile,omitempty"`
	SinkLine   int      `json:"sinkLine,omitempty"`
	SinkFunc   string   `json:"sinkFunc,omitempty"`
	PathLen    int      `json:"pathLen,omitempty"`
	Contexts   int      `json:"contexts,omitempty"`
	Witness    []string `json:"witness,omitempty"`
	// Provenance is present only when the run captured it
	// (detect.Options.Witness / `pinpoint -provenance`).
	Provenance *JSONProvenance `json:"provenance,omitempty"`
}

// ToJSON converts a report to the exported JSON schema.
func (r Report) ToJSON() JSONReport {
	j := JSONReport{
		Checker:    r.Checker,
		Kind:       r.Kind,
		SourceFile: r.SourcePos.File,
		SourceLine: r.SourcePos.Line,
		SourceFunc: r.SourceFn,
		Witness:    r.Witness,
		Provenance: r.Provenance.ToJSON(),
	}
	if r.Sink.Fn != nil {
		j.SinkFile = r.SinkPos.File
		j.SinkLine = r.SinkPos.Line
		j.SinkFunc = r.SinkFn
		j.PathLen = r.PathLen
		j.Contexts = r.Contexts
	}
	return j
}

// SortReports orders reports by (checker, source position, sink position) —
// the canonical output order of CheckAll. The sort is stable, and ties (two
// reports at identical positions) keep their deterministic discovery order,
// so sorted output is byte-identical between sequential and parallel runs.
func SortReports(rs []Report) {
	ps := make([]*Report, len(rs))
	for i := range rs {
		ps[i] = &rs[i]
	}
	slices.SortStableFunc(ps, compareReports)
	sorted := make([]Report, len(rs))
	for i, p := range ps {
		sorted[i] = *p
	}
	copy(rs, sorted)
}

// foundReport is a report where the merge found it (see foundAt).
type foundReport struct {
	rep *Report
	at  foundAt
}

// compareReports orders two reports by (checker, source position, sink
// position).
func compareReports(a, b *Report) int {
	if a.Checker != b.Checker {
		return strings.Compare(a.Checker, b.Checker)
	}
	if c := comparePos(a.SourcePos, b.SourcePos); c != 0 {
		return c
	}
	return comparePos(a.SinkPos, b.SinkPos)
}

func comparePos(a, b minic.Pos) int {
	if a.File != b.File {
		if a.File < b.File {
			return -1
		}
		return 1
	}
	if a.Line != b.Line {
		return a.Line - b.Line
	}
	return a.Col - b.Col
}
