package dense

import "testing"

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
