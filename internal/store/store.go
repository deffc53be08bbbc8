// Package store provides the pluggable persistence layer behind the
// incremental session's per-function artifacts.
//
// A Store is a flat content-addressed map: namespaced string keys to opaque
// byte records. Callers derive keys from content fingerprints (AST hashes,
// dependency fingerprints), so records never need in-place updates — a key
// either names exactly the bytes it was written with, or a newer record for
// the same key supersedes the old one (last writer wins, reclaimed by
// Compact).
//
// DiskStore is the implementation: an append-only checksummed log with an
// in-memory index, read-on-demand record loading, and atomic
// (write-temp-then-rename) compaction. Namespaced and the tenant layer's
// cost attribution wrap it in views. A nil Store means memory-only at every
// layer: nothing is encoded and nothing outlives the process.
//
// All implementations are safe for concurrent use.
package store

// NSArtifact is the namespace of encoded per-function build artifacts, keyed
// by program-shape fingerprint + AST hash. A Store treats namespaces as
// opaque, so a log that also holds records under namespaces nothing reads
// (older -store-dirs carry SMT verdicts under "verdict" and "vshape") opens
// and serves its artifacts all the same.
const NSArtifact = "artifact"

// Stats is a point-in-time snapshot of a store's counters.
type Stats struct {
	// Hits / Misses count Get outcomes (a corrupt record reads as a miss).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts counts records accepted; DedupedPuts counts Put calls skipped
	// because the key already held byte-identical content.
	Puts        int64 `json:"puts"`
	DedupedPuts int64 `json:"dedupedPuts"`
	// CorruptRecords counts records rejected by checksum or framing
	// validation, at open or at read time.
	CorruptRecords int64 `json:"corruptRecords"`
	// Compactions counts completed Compact runs; LastCompactUnixNano is
	// the wall-clock completion time of the latest (0 = never).
	Compactions         int64 `json:"compactions"`
	LastCompactUnixNano int64 `json:"lastCompactUnixNano"`
	// Records is the live (indexed) record count.
	Records int `json:"records"`
	// DiskBytes is the backing file size.
	DiskBytes int64 `json:"diskBytes"`
}

// Store is the persistence interface the session speaks. Implementations
// must be safe for concurrent use.
type Store interface {
	// Get returns the record stored under (ns, key), or ok=false if the
	// key is absent or its record failed validation.
	Get(ns, key string) (val []byte, ok bool, err error)
	// Put stores val under (ns, key). Re-putting identical content is a
	// cheap no-op; different content supersedes the old record.
	Put(ns, key string, val []byte) error
	// Stat reports the store's counters.
	Stat() Stats
	// Compact reclaims space held by superseded or dropped records.
	Compact() error
	// Close flushes and releases resources. The store must not be used
	// afterwards.
	Close() error
}
