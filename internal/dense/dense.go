// Package dense holds the side-table shape shared by the analysis layers:
// facts about values, instructions and blocks are keyed by the dense
// per-function IDs the IR assigns (value, instruction and block IDs), so a
// table is a slice indexed by the ID, not a pointer-keyed map. See
// DESIGN.md, "Data layout".
package dense

import "slices"

// Lists maps IDs to lists when only some IDs have one (the points-to sets
// of values, the sources of loads): an int32 per ID points into a compact
// array of the lists assigned so far. It distinguishes "assigned nil" from
// "never assigned". The zero value is an empty table over no IDs.
//
// A Lists is filled by one goroutine; once filling stops it is read-only and
// safe to share.
type Lists[T any] struct {
	slot  []int32 // by ID: 1 + position in lists, 0 = never assigned
	lists [][]T   // in assignment order
}

// NewLists returns an empty table over IDs [0, n).
func NewLists[T any](n int) Lists[T] { return Lists[T]{slot: make([]int32, n)} }

// Get returns the list assigned to id and whether one was assigned; an id
// beyond the table (created after it was sized) reads as unassigned.
func (t *Lists[T]) Get(id int) ([]T, bool) {
	if id >= len(t.slot) || t.slot[id] == 0 {
		return nil, false
	}
	return t.lists[t.slot[id]-1], true
}

// Put assigns a list (possibly nil) to id, which must be inside the table.
func (t *Lists[T]) Put(id int, list []T) {
	if s := t.slot[id]; s != 0 {
		t.lists[s-1] = list
		return
	}
	t.lists = append(t.lists, list)
	t.slot[id] = int32(len(t.lists))
}

// chunkBits sizes a Table's chunks: 64 entries.
const (
	chunkBits = 6
	chunkSize = 1 << chunkBits
)

// Table is a persistent array of a fixed number of entries, held in chunks
// of 64 behind a directory, so that the tables of a series of programs that
// differ in a few entries share the rest. A table writes in place only the
// chunks it made; Fork hands a table's chunks to a second table, and from
// then on the first write of either to a chunk copies that chunk (and its
// first write at all copies the directory, a pointer per chunk). A reader
// of one table therefore never sees a write to another, and an edit of k
// entries costs at most k chunks and a directory, not the table.
//
// The entries after the last multiple of 64 are a tail sized to fit, so a
// table of at most 64 entries is that one small chunk. At is two loads; a
// reader that comes back to one entry often keeps what it read. The zero
// value is an empty table. A table is written by one goroutine at a time; it
// may be read by any number meanwhile through the tables forked from it, but
// not through itself.
type Table[T any] struct {
	dir  []*[chunkSize]T // the full chunks
	tail []T             // chunk len(dir): the last Len()%64 entries
	own  []uint64        // bit k: this table made chunk k; nil: it shares its directory
}

// allMade is the ownership of a new table of at most 64 chunks: every bit
// set, so that no write ever stores to it and tables can share it.
var allMade = []uint64{^uint64(0)}

// NewTable returns a table of n zero entries. Each chunk is an allocation of
// its own, so that a chunk later tables replaced, with what its entries
// point to, dies once no table holds it; chunks cut from one array would
// live as long as the last of them.
func NewTable[T any](n int) Table[T] {
	var t Table[T]
	if full := n >> chunkBits; full > 0 {
		t.dir = make([]*[chunkSize]T, full)
		for k := range t.dir {
			t.dir[k] = new([chunkSize]T)
		}
	}
	if rest := n & (chunkSize - 1); rest > 0 {
		t.tail = make([]T, rest)
	}
	t.own = allMade
	if words := (len(t.dir) + 1 + 63) >> 6; words > 1 {
		t.own = make([]uint64, words)
		for w := range t.own {
			t.own[w] = ^uint64(0)
		}
	}
	return t
}

// Len returns the number of entries.
func (t *Table[T]) Len() int { return len(t.dir)<<chunkBits + len(t.tail) }

// At returns entry i.
func (t *Table[T]) At(i int) T {
	if k := uint(i) >> chunkBits; k < uint(len(t.dir)) {
		return t.dir[k][i&(chunkSize-1)]
	}
	return t.tail[i-len(t.dir)<<chunkBits]
}

// Set writes entry i, copying its chunk first unless this table made it.
func (t *Table[T]) Set(i int, v T) {
	k := int(uint(i) >> chunkBits)
	if k >= len(t.dir) {
		_ = t.tail[i-len(t.dir)<<chunkBits] // out of the table: panic before any copy
	}
	if t.made(k) {
		if k < len(t.dir) {
			t.dir[k][i&(chunkSize-1)] = v
		} else {
			t.tail[i&(chunkSize-1)] = v
		}
		return
	}
	if k < len(t.dir) {
		c := *t.dir[k]
		c[i&(chunkSize-1)] = v
		t.dir[k] = &c
	} else {
		t.tail = slices.Clone(t.tail)
		t.tail[i&(chunkSize-1)] = v
	}
}

// Append adds an entry at the end.
func (t *Table[T]) Append(v T) {
	k := len(t.dir)
	if !t.made(k) {
		t.tail = slices.Clip(slices.Clone(t.tail))
	}
	t.tail = append(t.tail, v)
	if len(t.tail) == chunkSize { // the tail is full: it becomes chunk k
		t.dir, t.tail = append(t.dir, (*[chunkSize]T)(t.tail)), nil
		t.made(k + 1)
	}
}

// Fork returns a table equal to t that shares all of t's chunks. From then
// on neither table writes a chunk they share in place. A copy of a table that
// owns no chunk — a fork before its first write — is a fork too.
func (t *Table[T]) Fork() Table[T] {
	t.own = nil
	return Table[T]{dir: t.dir, tail: t.tail}
}

// made reports whether this table made chunk k, and makes it so: a table
// that shared its directory copies it first, and the caller copies the chunk
// when it was not.
func (t *Table[T]) made(k int) bool {
	if t.own == nil {
		t.dir = slices.Clone(t.dir)
		t.own = make([]uint64, (len(t.dir)+1+63)>>6)
	}
	for k>>6 >= len(t.own) {
		t.own = append(t.own, 0)
	}
	bit := uint64(1) << (k & 63)
	if t.own[k>>6]&bit != 0 {
		return true
	}
	t.own[k>>6] |= bit
	return false
}
