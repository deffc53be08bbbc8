package tenant

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/store"
)

// Per-tenant cost accounting. Every analysis request already carries an
// exact timing partition (the server's TimingJSON); the cost meter folds
// those partitions into per-project accumulators, so "who is spending the
// CPU" is answerable without log mining. A project's Cost outlives its
// resident session: eviction drops the memory-heavy session but keeps the
// meter, so readmission continues the same ledger.
//
// Store consumption is metered at the store boundary: each tenant's
// namespaced store view is wrapped in a counting layer that attributes
// every Put's bytes to the writing project — cumulative bytes written for
// all namespaces, plus a live resident-artifact figure that tracks the
// last-written size of each artifact key (superseding a key replaces its
// contribution rather than double-counting).

// Cost is one project's cumulative resource ledger. All methods are safe
// for concurrent use; a nil *Cost is a no-op everywhere.
type Cost struct {
	requests      atomic.Int64
	buildNs       atomic.Int64
	detectNs      atomic.Int64
	smtNs         atomic.Int64
	smtSolved     atomic.Int64
	smtEliminated atomic.Int64
	storeBytes    atomic.Int64
	artifactBytes atomic.Int64

	// artSizes maps artifact key → last-written size, so re-putting a key
	// adjusts the resident figure by the delta instead of accumulating.
	artMu    sync.Mutex
	artSizes map[string]int64

	// Hoisted labeled metric handles (nil with no recorder; nil-safe).
	mRequests      *obs.Counter
	mBuildNs       *obs.Counter
	mDetectNs      *obs.Counter
	mSMTNs         *obs.Counter
	mSMTSolved     *obs.Counter
	mSMTEliminated *obs.Counter
	mStoreBytes    *obs.Counter
	mArtifactBytes *obs.Gauge
}

func newCost(project string, rec *obs.Recorder) *Cost {
	c := &Cost{artSizes: make(map[string]int64)}
	if rec != nil {
		c.mRequests = rec.Counter(obs.Labeled("tenant.cost_requests", "tenant", project))
		c.mBuildNs = rec.Counter(obs.Labeled("tenant.cost_cpu_ns", "phase", "build", "tenant", project))
		c.mDetectNs = rec.Counter(obs.Labeled("tenant.cost_cpu_ns", "phase", "detect", "tenant", project))
		c.mSMTNs = rec.Counter(obs.Labeled("tenant.cost_cpu_ns", "phase", "smt", "tenant", project))
		c.mSMTSolved = rec.Counter(obs.Labeled("tenant.cost_smt_solved", "tenant", project))
		c.mSMTEliminated = rec.Counter(obs.Labeled("tenant.cost_smt_eliminated", "tenant", project))
		c.mStoreBytes = rec.Counter(obs.Labeled("tenant.cost_store_bytes", "tenant", project))
		c.mArtifactBytes = rec.Gauge(obs.Labeled("tenant.cost_artifact_bytes", "tenant", project))
	}
	return c
}

// CostDelta is one completed request's contribution, taken verbatim from
// the request's timing partition and SMT stats.
type CostDelta struct {
	// BuildNs and DetectNs are the request's build and detect phase times;
	// SMTNs is the solver time inside detect (SMTNs ⊆ DetectNs, so total
	// attributed CPU is BuildNs + DetectNs, not the three summed).
	BuildNs  int64
	DetectNs int64
	SMTNs    int64
	// SMTSolved counts queries the solver actually ran; SMTEliminated
	// counts queries the prefilter refuted without solving.
	SMTSolved     int64
	SMTEliminated int64
}

// Add folds one request into the ledger.
func (c *Cost) Add(d CostDelta) {
	if c == nil {
		return
	}
	c.requests.Add(1)
	c.buildNs.Add(d.BuildNs)
	c.detectNs.Add(d.DetectNs)
	c.smtNs.Add(d.SMTNs)
	c.smtSolved.Add(d.SMTSolved)
	c.smtEliminated.Add(d.SMTEliminated)
	c.mRequests.Inc()
	c.mBuildNs.Add(d.BuildNs)
	c.mDetectNs.Add(d.DetectNs)
	c.mSMTNs.Add(d.SMTNs)
	c.mSMTSolved.Add(d.SMTSolved)
	c.mSMTEliminated.Add(d.SMTEliminated)
}

// addPut attributes one store write.
func (c *Cost) addPut(ns, key string, n int64) {
	if c == nil {
		return
	}
	c.storeBytes.Add(n)
	c.mStoreBytes.Add(n)
	if ns != store.NSArtifact {
		return
	}
	c.artMu.Lock()
	delta := n - c.artSizes[key]
	c.artSizes[key] = n
	c.artMu.Unlock()
	if delta != 0 {
		c.mArtifactBytes.Set(c.artifactBytes.Add(delta))
	}
}

// CostSnapshot is one project's ledger, as /v1/debug/costs reports it.
type CostSnapshot struct {
	Project  string `json:"project"`
	Requests int64  `json:"requests"`
	// CPUNs is the total attributed analysis CPU: BuildNs + DetectNs
	// (SMTNs is inside DetectNs and broken out for visibility).
	CPUNs    int64 `json:"cpuNs"`
	BuildNs  int64 `json:"buildNs"`
	DetectNs int64 `json:"detectNs"`
	SMTNs    int64 `json:"smtNs"`
	// SMTSolved vs SMTEliminated splits query outcomes into paid-for solver
	// runs and queries the prefilter refuted for free.
	SMTSolved     int64 `json:"smtSolved"`
	SMTEliminated int64 `json:"smtEliminated"`
	// StoreBytesWritten is cumulative bytes accepted by the store for this
	// project (all namespaces); ResidentArtifactBytes is the live size of
	// its artifact records (last write per key). Both are zero when the
	// server runs without a persistent store — nothing is encoded then.
	StoreBytesWritten     int64 `json:"storeBytesWritten"`
	ResidentArtifactBytes int64 `json:"residentArtifactBytes"`
	// Resident reports whether the project's session is currently in
	// memory; Share is this project's fraction of the report's TotalCPUNs.
	Resident bool    `json:"resident"`
	Share    float64 `json:"share"`
}

func (c *Cost) snapshot(project string) CostSnapshot {
	if c == nil {
		return CostSnapshot{Project: project}
	}
	b, d := c.buildNs.Load(), c.detectNs.Load()
	return CostSnapshot{
		Project:               project,
		Requests:              c.requests.Load(),
		CPUNs:                 b + d,
		BuildNs:               b,
		DetectNs:              d,
		SMTNs:                 c.smtNs.Load(),
		SMTSolved:             c.smtSolved.Load(),
		SMTEliminated:         c.smtEliminated.Load(),
		StoreBytesWritten:     c.storeBytes.Load(),
		ResidentArtifactBytes: c.artifactBytes.Load(),
	}
}

// CostReport is the ranked per-tenant cost view behind GET /v1/debug/costs.
type CostReport struct {
	// TotalCPUNs sums every tenant's CPUNs; each row's Share is its
	// fraction of this (0 when the total is 0).
	TotalCPUNs int64 `json:"totalCpuNs"`
	// Tenants is ranked by CPUNs descending (project ID ascending on ties),
	// evicted projects included — the ledger outlives the session.
	Tenants []CostSnapshot `json:"tenants"`
}

// cost returns project's ledger, creating it on first use. Caller holds
// m.mu.
func (m *Manager) costLocked(project string) *Cost {
	c := m.costs[project]
	if c == nil {
		c = newCost(project, m.cfg.Obs)
		m.costs[project] = c
	}
	return c
}

// Costs reports every project's ledger — resident or evicted — ranked by
// attributed CPU.
func (m *Manager) Costs() CostReport {
	m.mu.Lock()
	rep := CostReport{}
	for project, c := range m.costs {
		snap := c.snapshot(project)
		_, snap.Resident = m.tenants[project]
		rep.TotalCPUNs += snap.CPUNs
		rep.Tenants = append(rep.Tenants, snap)
	}
	m.mu.Unlock()
	if rep.TotalCPUNs > 0 {
		for i := range rep.Tenants {
			rep.Tenants[i].Share = float64(rep.Tenants[i].CPUNs) / float64(rep.TotalCPUNs)
		}
	}
	sort.Slice(rep.Tenants, func(i, j int) bool {
		a, b := &rep.Tenants[i], &rep.Tenants[j]
		if a.CPUNs != b.CPUNs {
			return a.CPUNs > b.CPUNs
		}
		return a.Project < b.Project
	})
	return rep
}

// RecordCost attributes one completed request's resources to the held
// tenant. The server calls this with the response's timing partition.
func (h *Handle) RecordCost(d CostDelta) { h.t.cost.Add(d) }

// costStore wraps a tenant's (already namespaced) store view, attributing
// every write to the tenant's ledger. Reads pass through untouched — cost
// accounting is write-side only.
type costStore struct {
	store.Store
	cost *Cost
}

func (s *costStore) Put(ns, key string, val []byte) error {
	err := s.Store.Put(ns, key, val)
	if err == nil {
		s.cost.addPut(ns, key, int64(len(val)))
	}
	return err
}
