package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/minic"
	"repro/internal/workload"
)

// rung is one size of the synthetic "ladder" subject. KLoC is the
// PaperKLoC handed to the generator; at Scale 30 it yields about 34 lines
// per unit of KLoC.
type rung struct {
	Name string
	KLoC int
}

var (
	r1k   = rung{"r1k", 30}
	r2k   = rung{"r2k", 60}
	r4k   = rung{"r4k", 120}
	r20k  = rung{"r20k", 600}
	r68k  = rung{"r68k", 2000}
	r136k = rung{"r136k", 4000}
)

// sizes fixes how much each workload runs. full is what BENCHMARK.json
// gates; smoke is the same code on inputs small enough for a unit test.
type sizes struct {
	Ladder      [3]rung // batch-ladder: bottom, middle, top
	Serve       rung    // serve-edit project size
	Store       rung    // restart-store subject
	Trace       rung    // in-process layer replay subject
	JulietCases int     // 0 = the whole suite
	JulietWarm  int     // untimed warm-up passes in the child
	MinRounds   int     // measured rounds (passes, cycles) at least
	SetupReps   int     // set-ups per run; setup_s is their median
	ProbeN      int     // samples per micro-probe
	CalPerOp    int     // fresh-process calibration samples before each CLI run
}

var (
	fullSizes  = sizes{Ladder: [3]rung{r20k, r68k, r136k}, Serve: r20k, Store: r68k, Trace: r68k, JulietWarm: 2, MinRounds: 3, SetupReps: 3, ProbeN: 2000, CalPerOp: 3}
	smokeSizes = sizes{Ladder: [3]rung{r1k, r2k, r4k}, Serve: r2k, Store: r2k, Trace: r2k, JulietCases: 40, JulietWarm: 1, MinRounds: 2, SetupReps: 1, ProbeN: 100, CalPerOp: 1}
)

// genLadder synthesizes one rung. Every workload's program comes from
// here, so the seed alone decides the bytes the analyzer sees.
func genLadder(r rung, seed int64) *workload.Generated {
	return workload.Generate(
		workload.Subject{Name: "ladder", Origin: "synthetic", PaperKLoC: r.KLoC, TrueBugs: 6, OpaqueTraps: 4},
		workload.GenOptions{Scale: 30, Taint: true, Seed: seed})
}

// genJuliet returns the recall suite in a seed-shuffled order, cut to n
// cases when n > 0. The cases themselves do not depend on the seed.
func genJuliet(seed int64, n int) []workload.JulietCase {
	cases := workload.JulietSuite()
	rand.New(rand.NewSource(seed)).Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	if n > 0 && n < len(cases) {
		cases = cases[:n]
	}
	return cases
}

// digestUnits is the SHA-256 over unit names and sources, in order.
func digestUnits(h io.Writer, units []minic.NamedSource) {
	for _, u := range units {
		fmt.Fprintf(h, "%d:%s\x00%d:", len(u.Name), u.Name, len(u.Src))
		io.WriteString(h, u.Src)
	}
}

func ladderDigest(g *workload.Generated) string {
	h := sha256.New()
	digestUnits(h, g.Units)
	return hex.EncodeToString(h.Sum(nil))
}

// subject is one generated program with the digest of its bytes.
type subject struct {
	*workload.Generated
	Rung   rung
	Digest string
}

// newSubject generates a rung and holds it against inputs.lock.
func newSubject(e *env, r rung, seed int64) (*subject, error) {
	g := genLadder(r, seed)
	s := &subject{Generated: g, Rung: r, Digest: ladderDigest(g)}
	return s, checkLock(lockPath(e), seed, r.Name, s.Digest)
}

func (s *subject) String() string {
	return fmt.Sprintf("%s: %d lines, %d units, sha256 %s", s.Rung.Name, s.Lines, len(s.Units), s.Digest)
}

func lockPath(e *env) string { return filepath.Join(e.Root, "benchmark", "inputs.lock") }

// rounds paces a measuring loop: next reports whether another round
// should start — always until min have run, then for as long as one more
// round of the last one's length still fits in the time budget. A loop
// therefore ends just before its budget rather than one round after.
type rounds struct {
	min       int
	seconds   float64
	n         int
	start     time.Time
	lastStart time.Time
}

func (r *rounds) next() bool {
	now := time.Now()
	if r.n == 0 {
		r.start, r.lastStart = now, now
	}
	last := now.Sub(r.lastStart)
	r.lastStart = now
	r.n++
	return r.n <= r.min || (now.Sub(r.start)+last).Seconds() <= r.seconds
}

func julietDigest(cases []workload.JulietCase) string {
	h := sha256.New()
	for _, c := range cases {
		fmt.Fprintf(h, "%s\x00", c.Name)
		digestUnits(h, c.Units)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// lockSeed is the seed whose input digests are committed in inputs.lock.
const lockSeed = 1

// checkLock compares one input's digest with inputs.lock. Only lockSeed
// is pinned; other seeds (and inputs the lock does not name) pass.
func checkLock(lockPath string, seed int64, input, digest string) error {
	if seed != lockSeed {
		return nil
	}
	f, err := os.Open(lockPath)
	if err != nil {
		return fmt.Errorf("input lock: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == input {
			if fields[1] != digest {
				return fmt.Errorf("input lock: internal/workload now generates different bytes for %q at seed %d (got %s, locked %s); "+
					"numbers from this run are not comparable with earlier ones — if the generator change is intended, regenerate %s with -write-lock in a change of its own",
					input, seed, digest, fields[1], lockPath)
			}
			return nil
		}
	}
	return sc.Err()
}

// writeUnits writes each unit as dir/<unit name> and returns the names in
// order. The CLI is run with dir as its working directory and these
// relative names, so the file names in its reports equal the unit names
// the ground truth and the served requests use.
func writeUnits(dir string, units []minic.NamedSource) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names := make([]string, len(units))
	for i, u := range units {
		names[i] = u.Name
		if err := os.WriteFile(filepath.Join(dir, u.Name), []byte(u.Src), 0o644); err != nil {
			return nil, err
		}
	}
	return names, nil
}

const editLine = "\tseed = seed + 1;\n"

// applyEdit is the serve-edit mutator: edit number i inserts one
// statement as the first line of the body of unit (i mod n)'s driver
// function, the last function of the unit. It returns the index of the
// unit it changed. Edits accumulate, so relative to the previous request
// exactly one function is dirty, and no reported line moves because
// nothing is declared after the driver.
func applyEdit(units []minic.NamedSource, i int) (int, error) {
	u := i % len(units)
	src := units[u].Src
	at := strings.LastIndex(src, "\nvoid drive_")
	if at < 0 {
		return 0, fmt.Errorf("edit: unit %s has no driver function", units[u].Name)
	}
	nl := strings.IndexByte(src[at+1:], '\n')
	if nl < 0 || !strings.HasSuffix(src[at+1:at+1+nl], "{") {
		return 0, fmt.Errorf("edit: unit %s: driver opener not on one line", units[u].Name)
	}
	cut := at + 1 + nl + 1
	units[u].Src = src[:cut] + editLine + src[cut:]
	return u, nil
}
