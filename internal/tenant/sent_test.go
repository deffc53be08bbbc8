package tenant

import (
	"testing"

	"repro/internal/minic"
)

// The memo holds the units of the last request whose units were all
// recorded, one entry per name: a unit is found only under its name and
// with its bytes as sent, and a name the last request did not hold is
// forgotten.
func TestSentHoldsTheLastRequest(t *testing.T) {
	var s Sent
	unit := func(name, src string) minic.NamedSource { return minic.NamedSource{Name: name, Src: src} }
	request := func(units ...minic.NamedSource) {
		for _, u := range units {
			if _, ok := s.Lookup([]byte(u.Name), []byte(u.Src+"!")); ok {
				s.Record(u, nil)
			} else {
				s.Record(u, []byte(u.Src+"!")) // the bytes as sent, standing in for escapes
			}
		}
		s.Done()
	}
	found := func(name, raw string) (string, bool) {
		u, ok := s.Lookup([]byte(name), []byte(raw))
		return u.Src, ok
	}

	request(unit("a", "1"), unit("b", "2"), unit("c", "3"))
	if src, ok := found("b", "2!"); !ok || src != "2" {
		t.Errorf("b as sent: %q, %v; want the source recorded", src, ok)
	}
	for _, miss := range [][2]string{{"b", "2"}, {"b", "3!"}, {"b", "2!!"}, {"d", "2!"}, {"", ""}} {
		if _, ok := found(miss[0], miss[1]); ok {
			t.Errorf("%q sent as %q: found", miss[0], miss[1])
		}
	}

	// c is edited, a dropped; the same name twice is one entry, the last.
	request(unit("b", "2"), unit("c", "4"), unit("d", "5"), unit("d", "6"))
	if len(s.units) != 3 {
		t.Errorf("%d entries after a request of three names, want 3", len(s.units))
	}
	if _, ok := found("a", "1!"); ok {
		t.Error("a, which the last request did not hold, is still found")
	}
	for _, want := range [][3]string{{"b", "2!", "2"}, {"c", "4!", "4"}, {"d", "6!", "6"}} {
		if src, ok := found(want[0], want[1]); !ok || src != want[2] {
			t.Errorf("%s sent as %q: %q, %v; want %q", want[0], want[1], src, ok, want[2])
		}
	}

	request(unit("b", "2"))
	if len(s.units) != 1 {
		t.Errorf("%d entries after a request of one name, want 1", len(s.units))
	}
}
