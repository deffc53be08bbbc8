// Package tenant turns the single persistent analysis session into a
// multi-project session manager: a Manager maps project IDs to
// independently locked core.Sessions, so requests for different projects
// build and detect concurrently while same-project requests keep the
// serialized, sticky-cache-identical semantics of the single-session
// server.
//
// Residency is bounded: at most MaxResident sessions are held in memory,
// with least-recently-used idle eviction when a new project needs a slot
// and time-based eviction for projects idle past IdleTTL. Eviction
// persists the session's artifacts first (core.Session.Persist), and each
// project's records live under their own store namespace
// (store.Namespaced), so an evicted project re-admitted later warm-loads
// from disk instead of cold-building — residency control in the DFI style:
// the disk format holds the long tail, memory holds the working set.
//
// Lock hierarchy (deadlock freedom):
//
//	Manager.mu  >  Tenant.lock
//
// Manager.mu guards the resident map, the per-tenant active counts, and
// LRU bookkeeping; Tenant.lock serializes all use of one tenant's
// session. Code may take a Tenant.lock while holding Manager.mu (eviction
// does, for a tenant with no active holders, so the wait is at most a
// debug reader); code must NEVER take Manager.mu while holding any
// Tenant.lock. Analysis requests hold only Tenant.lock for the duration
// of build+detect, so the manager's map stays responsive while requests
// run.
package tenant

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// DefaultMaxResident is the resident-session cap when Config.MaxResident
// is zero. Sessions are memory-heavy (full IR + SEG + caches), so the
// default is deliberately modest; deployments with deep memory raise it.
const DefaultMaxResident = 64

// DefaultIdleTTL is the idle-eviction age when Config.IdleTTL is zero.
const DefaultIdleTTL = 15 * time.Minute

// ErrResidentLimit is returned by Acquire when admitting a new project
// would exceed the resident cap and every resident tenant has requests in
// flight — there is nothing idle to evict.
var ErrResidentLimit = errors.New("tenant: resident session limit reached and no tenant is idle")

// Config parameterizes a Manager.
type Config struct {
	// MaxResident caps concurrently resident sessions. 0 means
	// DefaultMaxResident; negative means unlimited.
	MaxResident int
	// IdleTTL is the age past which an idle tenant is evicted (checked
	// lazily on Acquire and by SweepIdle). 0 means DefaultIdleTTL;
	// negative disables time-based eviction.
	IdleTTL time.Duration
	// Build is the base build-option set for every tenant's session. Its
	// Store, when persistent, is re-namespaced per project with
	// store.Namespaced, so tenants share one physical store without key
	// collisions. The default project keeps the bare store — byte- and
	// disk-compatible with the single-session server.
	Build core.BuildOptions
	// Obs receives the tenant.* metrics. Nil is a no-op.
	Obs *obs.Recorder
}

// Manager owns the resident tenant set. Create with NewManager.
type Manager struct {
	cfg Config
	now func() time.Time // test clock

	mu        sync.Mutex
	tenants   map[string]*Tenant
	evictions int64
}

// Tenant is one project's resident state: a session behind its own lock,
// and use bookkeeping.
type Tenant struct {
	project string

	// active and lastUsed are guarded by Manager.mu: active counts
	// requests between Acquire and Release (including those still waiting
	// on the lock), and a tenant with active > 0 is never
	// evicted.
	active   int
	lastUsed time.Time

	// lock serializes all session access: core.Session.Update is not safe
	// for concurrent use, and serializing CheckAll too keeps the warm
	// sticky-cache behavior identical to the single-session server. It is
	// a capacity-1 Gate rather than a sync.Mutex so waiters honor their
	// request deadline (Enter returns ctx.Err() instead of blocking past
	// it).
	lock *conc.Gate
	sess *core.Session
	// sent is the memo of the units of the last request, guarded by lock.
	sent Sent

	// histNames and hists are the tenant's series in Config.Obs (see
	// Handle.Histograms), guarded by lock.
	histNames []string
	hists     []*obs.Histogram

	requests atomic.Int64
}

// NewManager builds a Manager and eagerly admits the default project, so
// the first request to a fresh server behaves exactly like every later
// one — the same contract server.New had with its single session.
func NewManager(cfg Config) *Manager {
	m := &Manager{
		cfg:     cfg,
		now:     time.Now,
		tenants: make(map[string]*Tenant),
	}
	m.mu.Lock()
	m.newTenantLocked(store.DefaultProject)
	m.mu.Unlock()
	return m
}

// Canonical maps the absent project spelling to the default tenant.
func Canonical(project string) string {
	if project == "" {
		return store.DefaultProject
	}
	return project
}

// ValidProject reports whether a project ID is acceptable: 1..64 bytes of
// [A-Za-z0-9._-]. The character set keeps IDs safe as store-namespace
// prefixes (no '/' separator collisions) and as Prometheus label values.
func ValidProject(project string) bool {
	if len(project) == 0 || len(project) > 64 {
		return false
	}
	for i := 0; i < len(project); i++ {
		c := project[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// Handle is an acquired tenant: the holder owns the tenant lock until
// Release. Exactly one Release per successful Acquire.
type Handle struct {
	m *Manager
	t *Tenant
}

// Session is the held tenant's session. Valid only until Release.
func (h *Handle) Session() *core.Session { return h.t.sess }

// Sent is the held tenant's memo of the units of its last request as they
// were sent. Valid only until Release.
func (h *Handle) Sent() *Sent { return &h.t.sent }

// Project is the held tenant's canonical project ID.
func (h *Handle) Project() string { return h.t.project }

// Histograms returns the held tenant's own series in Config.Obs: the
// histograms names(project) lists, in that order. They are resolved on the
// tenant's first call and dropped from the registry when it is evicted, so
// the registry holds per-project series for the resident set only. Call it
// before Release; the histograms stay safe to observe afterwards.
func (h *Handle) Histograms(names func(project string) []string) []*obs.Histogram {
	t := h.t
	if t.hists == nil {
		t.histNames = names(t.project)
		t.hists = make([]*obs.Histogram, len(t.histNames))
		for i, name := range t.histNames {
			t.hists[i] = h.m.cfg.Obs.Histogram(name)
		}
	}
	return t.hists
}

// Release unlocks the tenant.
func (h *Handle) Release() {
	t := h.t
	t.requests.Add(1)
	t.lock.Leave()
	h.m.release(t)
}

// Acquire admits one request for project: it resolves (or creates,
// evicting the LRU idle tenant if the resident cap demands it) the
// tenant, waits for the tenant lock under ctx's deadline, and returns a Handle holding the lock. The elapsed time
// inside Acquire is exactly the request's "session wait".
func (m *Manager) Acquire(ctx context.Context, project string) (*Handle, error) {
	project = Canonical(project)
	if !ValidProject(project) {
		return nil, fmt.Errorf("tenant: invalid project ID %q", project)
	}

	m.mu.Lock()
	m.sweepIdleLocked()
	t := m.tenants[project]
	if t == nil {
		if err := m.makeRoomLocked(); err != nil {
			m.mu.Unlock()
			return nil, err
		}
		t = m.newTenantLocked(project)
	}
	t.active++
	t.lastUsed = m.now()
	m.mu.Unlock()

	if err := t.lock.Enter(ctx); err != nil {
		// The deadline burned down waiting for the tenant lock; don't
		// start an analysis nobody is waiting for.
		m.release(t)
		return nil, err
	}
	return &Handle{m: m, t: t}, nil
}

// release drops one active hold and refreshes the LRU clock.
func (m *Manager) release(t *Tenant) {
	m.mu.Lock()
	t.active--
	t.lastUsed = m.now()
	m.mu.Unlock()
}

// newTenantLocked creates and registers a tenant. Caller holds m.mu.
func (m *Manager) newTenantLocked(project string) *Tenant {
	opts := m.cfg.Build
	opts.Store = store.Namespaced(opts.Store, project)
	t := &Tenant{
		project:  project,
		lock:     conc.NewGate(1),
		sess:     core.NewSession(opts),
		lastUsed: m.now(),
	}
	m.tenants[project] = t
	m.cfg.Obs.Counter("tenant.created").Inc()
	m.cfg.Obs.Gauge("tenant.resident").Set(int64(len(m.tenants)))
	return t
}

// maxResident normalizes the resident cap.
func (m *Manager) maxResident() int {
	switch {
	case m.cfg.MaxResident == 0:
		return DefaultMaxResident
	case m.cfg.MaxResident < 0:
		return int(^uint(0) >> 1) // unlimited
	default:
		return m.cfg.MaxResident
	}
}

// idleTTL normalizes the idle-eviction age (0 = disabled).
func (m *Manager) idleTTL() time.Duration {
	switch {
	case m.cfg.IdleTTL == 0:
		return DefaultIdleTTL
	case m.cfg.IdleTTL < 0:
		return 0
	default:
		return m.cfg.IdleTTL
	}
}

// makeRoomLocked evicts LRU idle tenants until one slot is free. Caller
// holds m.mu.
func (m *Manager) makeRoomLocked() error {
	for len(m.tenants) >= m.maxResident() {
		victim := m.lruIdleLocked()
		if victim == nil {
			return ErrResidentLimit
		}
		m.evictLocked(victim)
	}
	return nil
}

// lruIdleLocked picks the least-recently-used tenant with no requests in
// flight (nil if every resident tenant is busy). Caller holds m.mu.
func (m *Manager) lruIdleLocked() *Tenant {
	var victim *Tenant
	for _, t := range m.tenants {
		if t.active > 0 {
			continue
		}
		if victim == nil || t.lastUsed.Before(victim.lastUsed) {
			victim = t
		}
	}
	return victim
}

// evictLocked removes a tenant with no active holders: persist first (so
// re-admission warm-loads instead of cold-building), then drop. Caller
// holds m.mu; the victim's active count is zero, so taking its lock waits
// at most for a debug reader.
func (m *Manager) evictLocked(t *Tenant) {
	rec := m.cfg.Obs
	t.lock.Enter(context.Background())
	t.sess.Persist()
	for _, name := range t.histNames {
		rec.Registry().DropHistogram(name)
	}
	t.lock.Leave()
	delete(m.tenants, t.project)
	m.evictions++
	rec.Counter("tenant.evictions").Inc()
	rec.Gauge("tenant.resident").Set(int64(len(m.tenants)))
}

// sweepIdleLocked evicts every tenant idle past the TTL. Caller holds
// m.mu.
func (m *Manager) sweepIdleLocked() int {
	ttl := m.idleTTL()
	if ttl <= 0 {
		return 0
	}
	cutoff := m.now().Add(-ttl)
	var victims []*Tenant
	for _, t := range m.tenants {
		if t.active == 0 && t.lastUsed.Before(cutoff) {
			victims = append(victims, t)
		}
	}
	for _, t := range victims {
		m.evictLocked(t)
	}
	return len(victims)
}

// SweepIdle evicts every tenant idle past the TTL and reports how many it
// dropped. The server's janitor calls this on a timer; Acquire also
// sweeps lazily, so a manager without a janitor still converges.
func (m *Manager) SweepIdle() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sweepIdleLocked()
}

// Resident reports the current resident-session count.
func (m *Manager) Resident() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.tenants)
}

// Evictions reports the cumulative eviction count.
func (m *Manager) Evictions() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evictions
}

// View runs f with project's session under the tenant lock, without
// creating the tenant or counting as use. It reports whether the project
// was resident. Debug endpoints use it to read occupancy.
func (m *Manager) View(project string, f func(*core.Session)) bool {
	m.mu.Lock()
	t := m.tenants[Canonical(project)]
	if t == nil {
		m.mu.Unlock()
		return false
	}
	t.active++ // pin against eviction while reading
	m.mu.Unlock()
	t.lock.Enter(context.Background())
	f(t.sess)
	t.lock.Leave()
	// Unpin without refreshing lastUsed: a debug read is not use and must
	// not keep an idle tenant resident.
	m.mu.Lock()
	t.active--
	m.mu.Unlock()
	return true
}

// Info is one resident tenant's occupancy snapshot.
type Info struct {
	// Project is the canonical project ID.
	Project string `json:"project"`
	// Units is the number of translation units the session knows (by name,
	// source and facts; it holds no parse), Artifacts the number of
	// per-function artifacts it retains; Functions is the current program's
	// function count.
	Units     int `json:"units"`
	Artifacts int `json:"artifacts"`
	Functions int `json:"functions"`
	// LastUpdate is the artifact outcome of the session's latest Update.
	LastUpdate struct {
		Hits        int `json:"hits"`
		Misses      int `json:"misses"`
		Invalidated int `json:"invalidated"`
	} `json:"lastUpdate"`
	// ReplayTable is the number of detection task results the session
	// holds for replay by its next analysis.
	ReplayTable int `json:"replayTable"`
	// Requests counts completed Acquire/Release cycles; InFlight is the
	// current active count (admitted or waiting).
	Requests int64 `json:"requests"`
	InFlight int   `json:"inFlight"`
	// LastUsedUnixNano is the wall clock of the last acquire or release;
	// IdleNs is the age relative to the snapshot time.
	LastUsedUnixNano int64 `json:"lastUsedUnixNano"`
	IdleNs           int64 `json:"idleNs"`
}

// Snapshot is the manager-wide view: the tenants section of GET /v1/debug.
type Snapshot struct {
	// MaxResident is the normalized resident cap; IdleTTLNs the
	// normalized idle-eviction age (0 = disabled).
	MaxResident int   `json:"maxResident"`
	IdleTTLNs   int64 `json:"idleTtlNs"`
	// Resident is the live session count; Evictions the cumulative
	// evictions since the manager was created.
	Resident  int   `json:"resident"`
	Evictions int64 `json:"evictions"`
	// Tenants lists every resident tenant, sorted by project ID.
	Tenants []Info `json:"tenants"`
}

// Snapshot captures the resident set. Per-tenant occupancy is read under
// each tenant's lock in turn, so a tenant mid-analysis delays its own row
// but never blocks the manager map.
func (m *Manager) Snapshot() Snapshot {
	m.mu.Lock()
	now := m.now()
	snap := Snapshot{
		MaxResident: m.maxResident(),
		IdleTTLNs:   m.idleTTL().Nanoseconds(),
		Resident:    len(m.tenants),
		Evictions:   m.evictions,
	}
	pinned := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		t.active++ // pin against eviction until this row is read
		pinned = append(pinned, t)
	}
	m.mu.Unlock()

	for _, t := range pinned {
		t.lock.Enter(context.Background())
		info := Info{
			Project:   t.project,
			Units:     t.sess.UnitCount(),
			Artifacts: t.sess.ArtifactCount(),
			Requests:  t.requests.Load(),
		}
		st := t.sess.ArtifactStats()
		info.LastUpdate.Hits, info.LastUpdate.Misses, info.LastUpdate.Invalidated =
			st.Hits, st.Misses, st.Invalidated
		if a := t.sess.Analysis(); a != nil {
			info.Functions = a.Sizes.Functions
			info.ReplayTable = a.Prog.ReplayTableSize()
		}
		t.lock.Leave()
		m.mu.Lock()
		t.active--
		info.InFlight = t.active
		info.LastUsedUnixNano = t.lastUsed.UnixNano()
		info.IdleNs = now.Sub(t.lastUsed).Nanoseconds()
		m.mu.Unlock()
		snap.Tenants = append(snap.Tenants, info)
	}
	sort.Slice(snap.Tenants, func(i, j int) bool {
		return snap.Tenants[i].Project < snap.Tenants[j].Project
	})
	return snap
}
