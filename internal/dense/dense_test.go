package dense

import (
	"math/rand"
	"slices"
	"testing"
)

func TestLists(t *testing.T) {
	tab := NewLists[string](6)
	if _, ok := tab.Get(3); ok {
		t.Error("fresh table reports an assignment")
	}
	tab.Put(4, []string{"d"})
	tab.Put(1, nil) // assigned, but empty
	tab.Put(4, []string{"e", "f"})
	if v, ok := tab.Get(1); !ok || v != nil {
		t.Errorf("Get(1) = %v, %v; want nil, true", v, ok)
	}
	if v, ok := tab.Get(4); !ok || len(v) != 2 || v[0] != "e" {
		t.Errorf("Get(4) = %v, %v; want the reassigned list", v, ok)
	}
	if _, ok := tab.Get(99); ok {
		t.Error("id beyond the table reports an assignment")
	}
	var zero Lists[int]
	if _, ok := zero.Get(0); ok {
		t.Error("zero table reports an assignment")
	}
}

// TestTableForks holds a family of tables, each forked from another and
// written at random, against plain slices copied at each fork.
func TestTableForks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 5, 63, 64, 65, 200, 1000} {
		tabs := []Table[int]{NewTable[int](n)}
		model := [][]int{make([]int, n)}
		for op := 0; op < 2000; op++ {
			k := rng.Intn(len(tabs))
			switch r := rng.Intn(10); {
			case r == 0 && len(tabs) < 8:
				tabs = append(tabs, tabs[k].Fork())
				model = append(model, slices.Clone(model[k]))
			case r == 1:
				tabs[k].Append(op)
				model[k] = append(model[k], op)
			default:
				i := rng.Intn(len(model[k]))
				tabs[k].Set(i, op)
				model[k][i] = op
			}
			for j := range tabs {
				if tabs[j].Len() != len(model[j]) {
					t.Fatalf("n=%d op %d: table %d has %d entries, want %d", n, op, j, tabs[j].Len(), len(model[j]))
				}
				for i, want := range model[j] {
					if got := tabs[j].At(i); got != want {
						t.Fatalf("n=%d op %d: table %d entry %d = %d, want %d", n, op, j, i, got, want)
					}
				}
			}
		}
	}
}

// TestTableCopiesWhatItWrites: a fork's first write copies the directory and
// one chunk, its next write to that chunk nothing; a small table is one chunk
// sized to fit, and one allocation.
func TestTableCopiesWhatItWrites(t *testing.T) {
	base := NewTable[*int](10*chunkSize + 3)
	x := new(int)
	if n := testing.AllocsPerRun(10, func() {
		f := base.Fork()
		f.Set(3, x)
		f.Set(5, x)
	}); n != 3 { // the directory, its ownership bits and one chunk
		t.Errorf("a fork's first writes to one chunk made %.0f allocations, want 3", n)
	}
	if n := testing.AllocsPerRun(10, func() { _ = NewTable[*int](5) }); n != 1 {
		t.Errorf("a table of 5 entries made %.0f allocations, want 1 (its chunk)", n)
	}
	if small := NewTable[*int](5); len(small.dir) != 0 || len(small.tail) != 5 || cap(small.tail) != 5 {
		t.Errorf("a table of 5 entries has %d full chunks and a tail of %d/%d, want 0 and 5/5", len(small.dir), len(small.tail), cap(small.tail))
	}
	f := base.Fork()
	f.Set(chunkSize+1, x)
	for k := range base.dir {
		if shared := f.dir[k] == base.dir[k]; shared != (k != 1) {
			t.Errorf("chunk %d shared: %t, want %t", k, shared, k != 1)
		}
	}
	f.Set(10*chunkSize+2, x)
	if base.At(10*chunkSize+2) != nil || f.At(10*chunkSize+2) != x {
		t.Error("a write to a fork's tail shows in the table it was forked from, or not in the fork")
	}
}

func TestTableBounds(t *testing.T) {
	tab := NewTable[int](70)
	for _, i := range []int{-1, 70, 127, 128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) on a table of 70 did not panic", i)
				}
			}()
			tab.At(i)
		}()
	}
}
