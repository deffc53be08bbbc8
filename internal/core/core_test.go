package core_test

import (
	"strings"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
)

const pipelineSrc = `
void helper(int *q) { *q = 5; }
int f(bool c) {
	int *p = malloc();
	helper(p);
	int v = *p;
	if (c) { free(p); }
	if (c) { v = *p; }
	return v;
}`

func TestBuildFromSourcePipeline(t *testing.T) {
	a, err := core.BuildFromSource([]minic.NamedSource{{Name: "p.mc", Src: pipelineSrc}}, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Sizes.Functions != 2 {
		t.Errorf("functions = %d", a.Sizes.Functions)
	}
	if a.Sizes.SEGNodes == 0 || a.Sizes.SEGEdges == 0 || a.Sizes.CondNodes == 0 {
		t.Errorf("sizes empty: %+v", a.Sizes)
	}
	if a.Timings.Total() <= 0 || a.Timings.SEGBuild() <= 0 {
		t.Errorf("timings empty: %+v", a.Timings)
	}
	// The connector transformation ran: helper has aux specs.
	helper := a.Module.Lookup("helper")
	if len(helper.AuxOut) == 0 {
		t.Error("connectors missing on helper")
	}
	reports, _ := a.Check(checkers.UseAfterFree(), detect.Options{})
	if len(reports) != 1 {
		t.Fatalf("reports = %v", reports)
	}
}

func TestBuildParseError(t *testing.T) {
	_, err := core.BuildFromSource([]minic.NamedSource{{Name: "bad.mc", Src: "void f( {"}}, core.BuildOptions{})
	if err == nil || !strings.Contains(err.Error(), "parse") {
		t.Fatalf("err = %v", err)
	}
}

func TestBuildLowerError(t *testing.T) {
	_, err := core.BuildFromSource([]minic.NamedSource{{Name: "bad.mc", Src: "void f() { undefined_var = 1; }"}}, core.BuildOptions{})
	if err == nil {
		t.Fatal("undefined variable not rejected")
	}
}

func TestDisableConnectorsOption(t *testing.T) {
	units := []minic.NamedSource{{Name: "p.mc", Src: pipelineSrc}}
	a, err := core.BuildFromSource(units, core.BuildOptions{DisableConnectors: true})
	if err != nil {
		t.Fatal(err)
	}
	helper := a.Module.Lookup("helper")
	if len(helper.AuxOut) != 0 || len(helper.AuxIn) != 0 {
		t.Error("connectors applied despite ablation")
	}
	if a.Timings.Transform != 0 {
		t.Error("transform timing recorded despite ablation")
	}
}

func TestPTAStatsAggregated(t *testing.T) {
	a, err := core.BuildFromSource([]minic.NamedSource{{Name: "p.mc", Src: pipelineSrc}}, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.PTAStats.LinearQueries == 0 {
		t.Error("PTA stats not aggregated")
	}
}

func TestParallelBuildMatchesSequential(t *testing.T) {
	// Same program, sequential vs parallel pipeline: identical reports
	// and identical SEG sizes.
	var units []minic.NamedSource
	units = append(units, minic.NamedSource{Name: "a.mc", Src: pipelineSrc})
	units = append(units, minic.NamedSource{Name: "b.mc", Src: `
void g1(int *p) { *p = 1; }
void g2() { int *q = malloc(); g1(q); free(q); sink(*q); }
void g3(bool c) { int *r = malloc(); if (c) { free(r); } if (!c) { sink(*r); } }
`})
	seq, err := core.BuildFromSource(units, core.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.BuildFromSource(units, core.BuildOptions{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Sizes.SEGNodes != par.Sizes.SEGNodes || seq.Sizes.SEGEdges != par.Sizes.SEGEdges {
		t.Fatalf("sizes differ: %+v vs %+v", seq.Sizes, par.Sizes)
	}
	rs, _ := seq.Check(checkers.UseAfterFree(), detect.Options{})
	rp, _ := par.Check(checkers.UseAfterFree(), detect.Options{})
	if len(rs) != len(rp) {
		t.Fatalf("reports differ: %v vs %v", rs, rp)
	}
	for i := range rs {
		if rs[i].SourcePos != rp[i].SourcePos || rs[i].SinkPos != rp[i].SinkPos {
			t.Fatalf("report %d differs: %v vs %v", i, rs[i], rp[i])
		}
	}
}
