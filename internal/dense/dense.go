// Package dense holds the side-table shape shared by the analysis layers:
// facts about values, instructions and blocks are keyed by the dense
// per-function IDs the IR assigns (Value.ID, Instr.ID, Block.ID), so a
// table is a slice indexed by the ID, not a pointer-keyed map. See
// DESIGN.md, "Data layout".
package dense

// Lists maps IDs to lists when only some IDs have one (the gates of φ
// instructions, the sources of loads): an int32 per ID points into a compact
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

// Grow extends the table to cover IDs [0, n); it never shrinks.
func (t *Lists[T]) Grow(n int) {
	if n > len(t.slot) {
		t.slot = append(t.slot, make([]int32, n-len(t.slot))...)
	}
}

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

// CSR is a Lists frozen into compressed-sparse-row form: the lists are cut
// from one array, and the per-ID slots and the list bounds share another, so
// a table is two allocations however many lists it holds. Lists that several
// IDs held — the same array, the same length — are stored once. It reads like
// the Lists it was frozen from: assigned nil and assigned empty stay apart.
type CSR[T any] struct {
	slot  []int32 // by ID: 0 = never assigned, -1 = assigned nil, else 1 + k
	start []int32 // list k is items[start[k]:start[k+1]]
	items []T
}

// Freeze returns the table's lists in a CSR of exactly their size.
func (t *Lists[T]) Freeze() CSR[T] {
	// A list is known by its first element's address and its length; every
	// empty list is the same one.
	type key struct {
		at *T
		n  int
	}
	keyOf := func(l []T) key {
		if len(l) == 0 {
			return key{}
		}
		return key{&l[0], len(l)}
	}
	at, items := make(map[key]int32, len(t.lists)), 0
	for _, l := range t.lists {
		if k := keyOf(l); l != nil && at[k] == 0 {
			at[k], items = -1, items+len(l)
		}
	}
	ids := make([]int32, len(t.slot)+len(at)+1)
	out := CSR[T]{slot: ids[:len(t.slot)], start: ids[len(t.slot) : len(t.slot)+1], items: make([]T, 0, items)}
	for id, s := range t.slot {
		if s == 0 {
			continue
		}
		l := t.lists[s-1]
		k := keyOf(l)
		switch {
		case l == nil:
			out.slot[id] = -1
			continue
		case at[k] < 0:
			out.items = append(out.items, l...)
			out.start = append(out.start, int32(len(out.items)))
			at[k] = int32(len(out.start) - 1)
		}
		out.slot[id] = at[k]
	}
	return out
}

// Get returns the list assigned to id and whether one was assigned; an id
// beyond the table reads as unassigned. The list has no spare capacity.
func (t *CSR[T]) Get(id int) ([]T, bool) {
	if id >= len(t.slot) || t.slot[id] == 0 {
		return nil, false
	}
	if k := t.slot[id]; k > 0 {
		return t.items[t.start[k-1]:t.start[k]:t.start[k]], true
	}
	return nil, true
}
