package core_test

import (
	"bytes"
	"regexp"
	"slices"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
	"repro/internal/obs"
)

// A session encodes each report once. On the 20k-line ladder a resubmit and
// a driver edit keep the last run's list, so the reports they send are the
// bytes already made and detect.reports_encoded does not move. A cross-unit
// summary edit changes a report (the caller it relowers is another function
// object), so it makes a list of its own: it encodes the reports it found
// again — every report whose bytes changed, and a small share of the list —
// and copies the others' bytes. Every answer is the bytes a from-scratch
// build encodes.
func TestReportsEncodedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 20k-line ladder")
	}
	units := ladder(600, 1)
	xrel := regexp.MustCompile(`(?m)^void (xrel[0-9]+)\(int \*x\) \{ (\*x = 0; )?free\(x\); \}$`)
	xunit := slices.IndexFunc(units, func(u minic.NamedSource) bool { return xrel.MatchString(u.Src) })
	if xunit < 1 {
		t.Fatal("the ladder program has no cross-unit release helper")
	}
	sess := core.NewSession(core.BuildOptions{Workers: 2})
	rec := obs.New()
	var last []byte
	var lastList *detect.Report
	// serve answers one request as the server does and returns the reports
	// it encoded anew, the detect.reports_encoded counter's move, the objects
	// of its list that the last answer did not hold, and whether it kept the
	// last run's list.
	serve := func(what string) (encoded, counted, changed int, kept bool) {
		t.Helper()
		a, err := sess.Update(slices.Clone(units))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		before := rec.Snapshot().Counters["detect.reports_encoded"]
		res := a.CheckAll(checkers.All(), detect.Options{Workers: 2, Obs: rec})
		got := res.AppendJSON(nil)
		counted = int(rec.Snapshot().Counters["detect.reports_encoded"] - before)
		if again := res.AppendJSON(nil); !bytes.Equal(again, got) || res.ReportsEncoded != counted {
			t.Fatalf("%s: a second AppendJSON encoded again or wrote other bytes", what)
		}

		cold, err := core.BuildFromSource(units, core.BuildOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := cold.CheckAll(checkers.All(), detect.Options{Workers: 1})
		if wb := want.AppendJSON(nil); !bytes.Equal(got, wb) || want.ReportsEncoded != len(want.Reports) {
			t.Fatalf("%s: served reports differ from a from-scratch build's (%d of %d encoded there)\nserved: %s\ncold:   %s",
				what, want.ReportsEncoded, len(want.Reports), got, wb)
		}
		if !bytes.Equal(reportsJSON(t, res.Reports), got) {
			t.Fatalf("%s: the encoding differs from encoding/json's", what)
		}
		old := objects(last)
		for _, o := range objects(got) {
			if k := slices.Index(old, o); k >= 0 {
				old[k] = ""
			} else {
				changed++
			}
		}
		kept = &res.Reports[0] == lastList
		last, lastList = got, &res.Reports[0]
		return res.ReportsEncoded, counted, changed, kept
	}

	if enc, cnt, _, _ := serve("first request"); enc == 0 || cnt != enc {
		t.Fatalf("first request encoded %d reports, counted %d", enc, cnt)
	}
	n := bytes.Count(last, []byte(`{"checker"`))
	if enc, cnt, _, kept := serve("resubmit"); enc != 0 || cnt != 0 || !kept {
		t.Errorf("resubmit encoded %d reports, counted %d, kept the list: %t; want 0, 0, true", enc, cnt, kept)
	}
	for i := 0; i < 3; i++ {
		driverEdit(units, i)
		if enc, cnt, _, kept := serve("driver edit"); enc != 0 || cnt != 0 || !kept {
			t.Errorf("driver edit %d encoded %d reports, counted %d, kept the list: %t; want 0, 0, true", i, enc, cnt, kept)
		}
	}
	for i := 0; i < 2; i++ {
		with := []string{"*x = 0; ", ""}[i%2]
		units[xunit].Src = xrel.ReplaceAllString(units[xunit].Src, "void $1(int *x) { "+with+"free(x); }")
		enc, cnt, changed, kept := serve("cross-unit summary edit")
		t.Logf("cross-unit summary edit %d: %d of %d reports encoded anew, %d changed bytes", i, enc, n, changed)
		if kept || cnt != enc || enc == 0 || enc < changed || enc*10 > n {
			t.Errorf("cross-unit summary edit %d encoded %d of %d reports (counted %d, list kept: %t), want at least one, the %d that changed bytes, and at most a tenth",
				i, enc, n, cnt, kept, changed)
		}
	}
}

// objects splits a compact JSON array of reports into its objects: a report
// holds no string with `},{"checker"` in it.
func objects(arr []byte) []string {
	if len(arr) <= 2 {
		return nil
	}
	var out []string
	for _, o := range bytes.Split(arr[1:len(arr)-1], []byte(`},{"checker"`)) {
		out = append(out, string(o))
	}
	return out
}
