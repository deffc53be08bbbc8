package tenant

import (
	"bytes"

	"repro/internal/minic"
)

// Sent is a tenant's memo of the units of its last request as the client
// sent them: for each unit name, the bytes that came over the wire and the
// source they decoded to. Decoding is a pure function of those bytes, so a
// unit sent again byte for byte can be handed the source recorded for it
// with no work beyond the comparison, whatever the session did with it
// since. It holds one entry per name of the last request whose units all
// decoded, lives as long as its tenant and is guarded by the tenant lock
// (see Handle.Sent).
type Sent struct {
	units map[string]*sentUnit
	// gen counts the requests recorded; kept counts the names the current
	// one recorded so far.
	gen, kept int
}

type sentUnit struct {
	raw []byte
	src minic.NamedSource
	gen int // the request that last recorded the name
}

// Lookup returns the source recorded for the unit named name if it was sent
// as raw.
func (s *Sent) Lookup(name, raw []byte) (minic.NamedSource, bool) {
	if e := s.units[string(name)]; e != nil && bytes.Equal(e.raw, raw) {
		return e.src, true
	}
	return minic.NamedSource{}, false
}

// Record records one unit of the current request: u decoded from raw, a
// copy of the bytes as sent that the memo keeps, or, with raw nil, the
// entry that Lookup found for u.Name.
func (s *Sent) Record(u minic.NamedSource, raw []byte) {
	if s.units == nil {
		s.units = make(map[string]*sentUnit)
	}
	e := s.units[u.Name]
	if e == nil {
		e = new(sentUnit)
		s.units[u.Name] = e
	}
	if raw != nil {
		e.raw, e.src = raw, u
	}
	if e.gen != s.gen+1 {
		e.gen = s.gen + 1
		s.kept++
	}
}

// Done ends the current request, every unit of which was recorded: the
// names it did not hold are forgotten.
func (s *Sent) Done() {
	s.gen++
	if s.kept < len(s.units) {
		for name, e := range s.units {
			if e.gen != s.gen {
				delete(s.units, name)
			}
		}
	}
	s.kept = 0
}
