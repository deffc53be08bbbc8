package tenant_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// analyzeOnce runs one Update+CheckAll request against a project through
// the manager, returning the canonical report bytes.
func analyzeOnce(t *testing.T, m *tenant.Manager, project string, gen *workload.Generated) []byte {
	t.Helper()
	h, err := m.Acquire(context.Background(), project)
	if err != nil {
		t.Fatalf("Acquire(%q): %v", project, err)
	}
	defer h.Release()
	a, err := h.Session().Update(gen.Units)
	if err != nil {
		t.Fatalf("Update(%q): %v", project, err)
	}
	res := a.CheckAll(checkers.All(), detect.Options{Workers: 1})
	return reportsJSON(t, res.Reports)
}

func reportsJSON(t *testing.T, rs []detect.Report) []byte {
	t.Helper()
	js := make([]detect.JSONReport, len(rs))
	for i, r := range rs {
		js[i] = r.ToJSON()
	}
	b, err := json.Marshal(js)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fakeClock drives a manager's LRU and idle clocks deterministically.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock(m *tenant.Manager) *fakeClock {
	c := &fakeClock{now: time.Unix(1700000000, 0)}
	m.SetClock(func() time.Time {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.now
	})
	return c
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func openDisk(t *testing.T, dir string) *store.DiskStore {
	t.Helper()
	st, err := store.Open(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAcquireStickySession: same-project requests land on one session —
// the second Update of identical sources is a full cache hit, the contract
// the single-session server's sticky cache gave every client.
func TestAcquireStickySession(t *testing.T) {
	gen := workload.Generate(workload.Subjects[0], workload.GenOptions{Scale: 30})
	m := tenant.NewManager(tenant.Config{})

	if got := analyzeOnce(t, m, "", gen); len(got) == 0 {
		t.Fatal("first request produced no report bytes")
	}
	h, err := m.Acquire(context.Background(), "default")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Session().Update(gen.Units); err != nil {
		t.Fatal(err)
	}
	stats := h.Session().ArtifactStats()
	h.Release()
	if stats.Misses != 0 || stats.Hits == 0 {
		t.Fatalf("repeat request on the same tenant rebuilt artifacts: %+v", stats)
	}
	if m.Resident() != 1 {
		t.Fatalf("Resident() = %d, want 1 (canonical default only)", m.Resident())
	}
}

// TestCrossTenantParallelism is the deterministic lock-shape proof: while
// project A's tenant lock is held, a request for project B completes, but
// a second request for A times out waiting — different projects proceed
// concurrently, same-project requests serialize.
func TestCrossTenantParallelism(t *testing.T) {
	m := tenant.NewManager(tenant.Config{})

	held, err := m.Acquire(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}

	// Different project: must not block on alpha's lock.
	ctxB, cancelB := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelB()
	hb, err := m.Acquire(ctxB, "beta")
	if err != nil {
		t.Fatalf("Acquire(beta) blocked behind alpha's lock: %v", err)
	}
	hb.Release()

	// Same project: must wait, and the deadline must surface as the error.
	ctxA, cancelA := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelA()
	if _, err := m.Acquire(ctxA, "alpha"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second Acquire(alpha) = %v, want deadline exceeded", err)
	}

	held.Release()
	// The timed-out acquire must have unwound its hold: alpha is idle
	// again and evictable.
	h2, err := m.Acquire(context.Background(), "alpha")
	if err != nil {
		t.Fatalf("alpha unusable after a timed-out waiter: %v", err)
	}
	h2.Release()
}

// TestLRUEvictionOrder: with a resident cap, admitting a new project
// evicts the least-recently-used idle tenant, busy tenants are never
// victims, and a full house of busy tenants rejects with ErrResidentLimit.
func TestLRUEvictionOrder(t *testing.T) {
	rec := obs.New()
	m := tenant.NewManager(tenant.Config{MaxResident: 2, IdleTTL: -1, Obs: rec})
	clock := newFakeClock(m)

	// Touch default, then admit alpha later: default is the LRU.
	h, err := m.Acquire(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	clock.advance(time.Second)
	h, err = m.Acquire(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	clock.advance(time.Second)

	// Admitting beta must evict default (older), not alpha.
	hb, err := m.Acquire(context.Background(), "beta")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Evictions(); got != 1 {
		t.Fatalf("Evictions() = %d, want 1", got)
	}
	if !m.View("alpha", func(*core.Session) {}) {
		t.Fatal("alpha was evicted; want default (the LRU) evicted")
	}
	if m.View("default", func(*core.Session) {}) {
		t.Fatal("default still resident after LRU eviction")
	}

	// Both residents busy: a third project has nothing to evict.
	ha, err := m.Acquire(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Acquire(context.Background(), "gamma"); !errors.Is(err, tenant.ErrResidentLimit) {
		t.Fatalf("Acquire(gamma) with a busy full house = %v, want ErrResidentLimit", err)
	}
	ha.Release()
	hb.Release()

	// Re-admitting default is an admission like any other: it evicts the
	// LRU of the two, and the manager remembers nothing of the first stay.
	h, err = m.Acquire(context.Background(), "default")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if created, evicted := rec.Counter("tenant.created").Value(), rec.Counter("tenant.evictions").Value(); created != 4 || evicted != 2 {
		t.Fatalf("tenant.created = %d, tenant.evictions = %d, want 4 and 2", created, evicted)
	}
	if got := rec.Gauge("tenant.resident").Value(); got != 2 {
		t.Fatalf("tenant.resident gauge = %d, want 2", got)
	}
}

// TestIdleSweep: tenants idle past the TTL are evicted by SweepIdle and
// lazily by Acquire; active tenants survive the sweep.
func TestIdleSweep(t *testing.T) {
	m := tenant.NewManager(tenant.Config{MaxResident: -1, IdleTTL: time.Minute})
	clock := newFakeClock(m)

	// Touch default too: its creation stamp predates the fake clock.
	for _, p := range []string{"", "a", "b"} {
		h, err := m.Acquire(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	held, err := m.Acquire(context.Background(), "c")
	if err != nil {
		t.Fatal(err)
	}
	clock.advance(2 * time.Minute)

	if n := m.SweepIdle(); n != 3 { // default, a, b — not the held c
		t.Fatalf("SweepIdle() = %d, want 3", n)
	}
	if m.Resident() != 1 {
		t.Fatalf("Resident() = %d after sweep, want 1 (the held tenant)", m.Resident())
	}
	held.Release()

	// Release refreshed c's clock; a later lazy sweep inside Acquire
	// evicts it once it ages out.
	clock.advance(2 * time.Minute)
	h, err := m.Acquire(context.Background(), "d")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if m.View("c", func(*core.Session) {}) {
		t.Fatal("idle tenant c survived the lazy sweep in Acquire")
	}
}

// TestEvictReadmitEquivalence is the correctness half of eviction: an
// evicted-then-readmitted tenant's reports are byte-identical to an
// always-resident tenant's, both warm (persistent store, artifacts
// reload) and cold (no store, full rebuild).
func TestEvictReadmitEquivalence(t *testing.T) {
	gen := workload.Generate(workload.Subjects[2], workload.GenOptions{Scale: 80, Taint: true})

	for _, mode := range []string{"warm", "cold"} {
		t.Run(mode, func(t *testing.T) {
			var st store.Store
			if mode == "warm" {
				disk := openDisk(t, t.TempDir())
				defer disk.Close()
				st = disk
			}

			// Always-resident baseline: no cap, two requests (the second is
			// the warm in-memory path every sticky client sees).
			resident := tenant.NewManager(tenant.Config{MaxResident: -1, IdleTTL: -1,
				Build: core.BuildOptions{Store: st}})
			analyzeOnce(t, resident, "proj", gen)
			want := analyzeOnce(t, resident, "proj", gen)

			// Evicting manager: cap 1, so admitting "other" evicts "proj"
			// (persisting it first), and re-requesting "proj" readmits it.
			var est store.Store
			if mode == "warm" {
				disk := openDisk(t, t.TempDir())
				defer disk.Close()
				est = disk
			}
			evicting := tenant.NewManager(tenant.Config{MaxResident: 1, IdleTTL: -1,
				Build: core.BuildOptions{Store: est}})
			analyzeOnce(t, evicting, "proj", gen)
			h, err := evicting.Acquire(context.Background(), "other")
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
			if evicting.Evictions() == 0 {
				t.Fatal("admitting a second project under cap 1 evicted nothing")
			}
			if evicting.View("proj", func(*core.Session) {}) {
				t.Fatal("proj still resident after eviction")
			}

			h, err = evicting.Acquire(context.Background(), "proj")
			if err != nil {
				t.Fatal(err)
			}
			a, err := h.Session().Update(gen.Units)
			if err != nil {
				t.Fatal(err)
			}
			stats := h.Session().ArtifactStats()
			got := reportsJSON(t, a.CheckAll(checkers.All(), detect.Options{Workers: 1}).Reports)
			h.Release()

			if !bytes.Equal(got, want) {
				t.Fatalf("readmitted reports differ from always-resident\ngot:  %s\nwant: %s", got, want)
			}
			if mode == "warm" {
				if stats.Misses != 0 || stats.StoreHits == 0 || stats.StoreHits != stats.Hits {
					t.Fatalf("warm readmission rebuilt artifacts instead of loading: %+v", stats)
				}
				if stats.UnitsParsed != 0 || stats.UnitsLoaded != len(gen.Units) {
					t.Fatalf("warm readmission parsed %d units and knew %d of %d from the store", stats.UnitsParsed, stats.UnitsLoaded, len(gen.Units))
				}
			} else {
				if stats.Misses == 0 {
					t.Fatalf("cold readmission reported cache hits with no store: %+v", stats)
				}
			}
		})
	}
}

// TestInvalidProject rejects IDs that would break store prefixes or
// metric labels.
func TestInvalidProject(t *testing.T) {
	m := tenant.NewManager(tenant.Config{})
	for _, bad := range []string{"a/b", "a b", "p\n", string(make([]byte, 65)), "é"} {
		if _, err := m.Acquire(context.Background(), bad); err == nil {
			t.Errorf("Acquire(%q) admitted an invalid project ID", bad)
		}
	}
}

// TestSnapshotShape: the debug snapshot lists residents sorted by project
// with request counts and occupancy.
func TestSnapshotShape(t *testing.T) {
	gen := workload.Generate(workload.Subjects[0], workload.GenOptions{Scale: 20})
	m := tenant.NewManager(tenant.Config{MaxResident: 8, IdleTTL: -1})
	analyzeOnce(t, m, "zeta", gen)
	analyzeOnce(t, m, "alpha", gen)
	analyzeOnce(t, m, "alpha", gen)

	snap := m.Snapshot()
	if snap.Resident != 3 || len(snap.Tenants) != 3 {
		t.Fatalf("snapshot residents = %d/%d rows, want 3", snap.Resident, len(snap.Tenants))
	}
	if snap.MaxResident != 8 {
		t.Fatalf("MaxResident = %d, want 8", snap.MaxResident)
	}
	order := []string{"alpha", "default", "zeta"}
	for i, info := range snap.Tenants {
		if info.Project != order[i] {
			t.Fatalf("row %d = %q, want %q (sorted)", i, info.Project, order[i])
		}
	}
	alpha := snap.Tenants[0]
	if alpha.Requests != 2 || alpha.Units == 0 || alpha.Artifacts == 0 || alpha.Functions == 0 {
		t.Fatalf("alpha row %+v: want 2 requests and non-zero occupancy", alpha)
	}
	if alpha.InFlight != 0 {
		t.Fatalf("alpha InFlight = %d with no request running", alpha.InFlight)
	}
	zeta := snap.Tenants[2]
	if zeta.LastUsedUnixNano == 0 || zeta.IdleNs < 0 {
		t.Fatalf("zeta occupancy clock %+v", zeta)
	}
}

// TestEvictUnderLoadRace hammers more projects than the resident cap from
// GOMAXPROCS workers while a spectator loops Snapshot/SweepIdle/View, so
// admission, eviction, persistence, and re-admission all interleave. Run
// with -race this is the eviction data-race proof; in any mode every
// project's final reports must match its isolated baseline.
func TestEvictUnderLoadRace(t *testing.T) {
	const projects = 5
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	iters := 4
	if testing.Short() {
		iters = 2
	}

	gens := make([]*workload.Generated, projects)
	want := make([][]byte, projects)
	for i := range gens {
		gens[i] = workload.Generate(workload.Subjects[i%len(workload.Subjects)],
			workload.GenOptions{Scale: 20 + 5*i, Taint: i%2 == 0})
		base := tenant.NewManager(tenant.Config{})
		want[i] = analyzeOnce(t, base, "", gens[i])
	}

	disk := openDisk(t, t.TempDir())
	defer disk.Close()
	m := tenant.NewManager(tenant.Config{
		MaxResident: 3,
		IdleTTL:     -1,
		Build:       core.BuildOptions{Store: disk},
		Obs:         obs.New(),
	})

	stop := make(chan struct{})
	var spectator sync.WaitGroup
	spectator.Add(1)
	go func() {
		defer spectator.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				m.Snapshot()
			case 1:
				m.SweepIdle()
			default:
				m.View(fmt.Sprintf("p%d", i%projects), func(s *core.Session) {
					s.ArtifactCount()
				})
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				p := (w + it) % projects
				name := fmt.Sprintf("p%d", p)
				h, err := m.Acquire(context.Background(), name)
				if errors.Is(err, tenant.ErrResidentLimit) {
					// All residents busy — legal under cap 3 with more
					// workers; retry counts as load, not failure.
					it--
					runtime.Gosched()
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d Acquire(%s): %w", w, name, err)
					return
				}
				a, err := h.Session().Update(gens[p].Units)
				if err != nil {
					h.Release()
					errs <- fmt.Errorf("worker %d Update(%s): %w", w, name, err)
					return
				}
				got := reportsJSON(t, a.CheckAll(checkers.All(), detect.Options{Workers: 1}).Reports)
				h.Release()
				if !bytes.Equal(got, want[p]) {
					errs <- fmt.Errorf("worker %d: %s reports diverged under eviction load", w, name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	spectator.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m.Evictions() == 0 {
		t.Error("load over cap 3 with 5 projects evicted nothing — test lost its teeth")
	}
	if m.Resident() > 3 {
		t.Errorf("Resident() = %d exceeds cap 3", m.Resident())
	}
}

// TestHistogramsFollowResidency: a tenant's series are the ones its Handle
// was asked for, once, and leave the registry with the tenant; one observed
// into afterwards does not come back.
func TestHistogramsFollowResidency(t *testing.T) {
	rec := obs.New()
	m := tenant.NewManager(tenant.Config{MaxResident: 1, IdleTTL: -1, Obs: rec})
	names := func(project string) []string {
		return []string{obs.Labeled("t.a_ns", "tenant", project), obs.Labeled("t.b_ns", "tenant", project)}
	}
	h, err := m.Acquire(context.Background(), "alpha") // evicts default
	if err != nil {
		t.Fatal(err)
	}
	hists := h.Histograms(names)
	if len(hists) != 2 || hists[1] != rec.Histogram(`t.b_ns{tenant="alpha"}`) || h.Histograms(nil)[0] != hists[0] {
		t.Fatalf("Handle.Histograms() = %v, want alpha's two registered series, resolved once", hists)
	}
	h.Release()
	if h, err = m.Acquire(context.Background(), "beta"); err != nil { // evicts alpha
		t.Fatal(err)
	}
	h.Histograms(names)
	h.Release()
	hists[0].Observe(1)
	want := []string{"t.a_ns{tenant=\"beta\"}", "t.b_ns{tenant=\"beta\"}", "tenant.created", "tenant.evictions", "tenant.resident"}
	if got := rec.Registry().Names(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("registry holds %v, want %v", got, want)
	}
}
