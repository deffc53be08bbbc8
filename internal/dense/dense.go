// Package dense holds the side-table shape shared by the analysis layers:
// facts about values, instructions and blocks are keyed by the dense
// per-function IDs the IR assigns (value, instruction and block IDs), so a
// table is a slice indexed by the ID, not a pointer-keyed map. See
// DESIGN.md, "Data layout".
package dense

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
