package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkers"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/store"
	"repro/internal/wirebin"
	"repro/internal/workload"
)

// factsUnits are two units that between them use everything a facts record
// can hold: globals, a struct, pointer and struct types, several callees, a
// function without any.
var factsUnits = []minic.NamedSource{
	{Name: "a.mc", Src: `
struct node { int *val; struct node *next; };
int *slot_g;
bool ready;
int *pick(bool c, int *a) {
	int *p = malloc();
	*p = 1;
	if (c) { free(p); p = a; }
	slot_g = p;
	return p;
}
struct node *head(struct node *n, int **out) {
	*out = n->val;
	return n->next;
}`},
	{Name: "b.mc", Src: `
void drive(bool c) {
	int *q = malloc();
	int *r = pick(c, q);
	if (!c) { free(q); }
	sink(*r);
	log_value(*r);
}
void idle() { }`},
}

// unitOf parses one unit into what the session keeps of it.
func unitOf(t testing.TB, u minic.NamedSource) *parsedUnit {
	t.Helper()
	f, err := minic.ParseFile(u.Name, u.Src)
	if err != nil {
		t.Fatal(err)
	}
	pu := &parsedUnit{name: u.Name, src: u.Src, unitFacts: factsOf(f, nil, true), sum: unitDigest(u.Name, u.Src)}
	pu.shape = pu.unitFacts.shape()
	return pu
}

func unitsOf(t testing.TB, srcs []minic.NamedSource) []*parsedUnit {
	t.Helper()
	units := make([]*parsedUnit, len(srcs))
	for i, u := range srcs {
		units[i] = unitOf(t, u)
	}
	return units
}

// sameFacts compares two units' facts field by field (an empty list is an
// empty list, nil or not).
func sameFacts(a, b *unitFacts) bool {
	return slices.Equal(a.globals, b.globals) &&
		slices.EqualFunc(a.structs, b.structs, func(x, y structFacts) bool {
			return x.name == y.name && slices.Equal(x.fields, y.fields)
		}) &&
		slices.Equal(a.funcs, b.funcs) && slices.Equal(a.types, b.types) && slices.Equal(a.callees, b.callees)
}

// setCallees makes names what the unit's k-th function calls.
func setCallees(uf *unitFacts, k int, names ...string) {
	end := int(uf.funcs[k].calleesEnd)
	was := len(uf.calleesOf(k))
	uf.callees = slices.Concat(uf.callees[:end-was], names, uf.callees[end:])
	for i := k; i < len(uf.funcs); i++ {
		uf.funcs[i].calleesEnd += int32(len(names) - was)
	}
}

// TestUnitFactsRoundTrip is the codec's differential: for every unit of
// examples/mc and of the r4k ladder, what a record decodes to is what was
// encoded, at one worker and at several, and that is what a fresh parse of
// the unit yields.
func TestUnitFactsRoundTrip(t *testing.T) {
	srcs := slices.Clone(factsUnits)
	files, err := filepath.Glob("../../examples/mc/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example inputs: %v", err)
	}
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, minic.NamedSource{Name: "examples/mc/" + filepath.Base(p), Src: string(b)})
	}
	srcs = append(srcs, workload.Generate(
		workload.Subject{Name: "ladder", Origin: "synthetic", PaperKLoC: 120, TrueBugs: 6, OpaqueTraps: 4},
		workload.GenOptions{Scale: 30, Taint: true, Seed: 1}).Units...)

	units := unitsOf(t, srcs)
	rec := encodeUnitFacts(units)
	funcs := 0
	for _, workers := range []int{1, 4} {
		got, err := decodeUnitFacts(rec, workers)
		if err != nil || len(got) != len(units) {
			t.Fatalf("workers=%d: decoded %d of %d units: %v", workers, len(got), len(units), err)
		}
		for i, su := range got {
			want := units[i]
			if su == nil || su.name != want.name || su.sum != want.sum || !sameFacts(&su.unitFacts, &want.unitFacts) {
				t.Fatalf("workers=%d: %s decodes to other facts than were encoded: %+v", workers, want.name, su)
			}
			if fresh := unitOf(t, srcs[i]); !sameFacts(&su.unitFacts, &fresh.unitFacts) || su.unitFacts.shape() != fresh.shape {
				t.Fatalf("workers=%d: %s decodes to other facts than a fresh parse yields", workers, want.name)
			}
			funcs += len(su.funcs)
		}
		if !bytes.Equal(encodeUnitFacts(got), rec) {
			t.Fatalf("workers=%d: the decoded record encodes differently", workers)
		}
	}
	t.Logf("%d units, %d functions, %d bytes", len(units), funcs/2, len(rec))
}

// TestFactsOwnNothingOfTheArena is the guard against facts that alias the
// arena their unit's tree was parsed into: each unit's facts, taken while its
// tree is the arena's, must equal a fresh parse's facts after the next parse
// on the same arena — another unit's — has reused its slabs.
func TestFactsOwnNothingOfTheArena(t *testing.T) {
	units := slices.Clone(factsUnits)
	units = append(units, minic.NamedSource{Name: "c.mc", Src: "struct other { bool b; int *w; int z; };\nint g2 = 7;\nint *alt(struct other *o, int k) { return o->w; }\n"})
	for i, c := range workload.JulietSuite() {
		if i%100 == 0 {
			units = append(units, c.Units...)
		}
	}
	var a minic.Arena
	for i, u := range units {
		f, err := a.ParseFile(u.Name, u.Src)
		if err != nil {
			t.Fatal(err)
		}
		facts := factsOf(f, nil, true)
		next := units[(i+1)%len(units)]
		if _, err := a.ParseFile(next.Name, next.Src); err != nil {
			t.Fatal(err)
		}
		if fresh := unitOf(t, u).unitFacts; !reflect.DeepEqual(facts, fresh) {
			t.Errorf("%s: its facts changed when %s was parsed into the arena:\n%+v\nwant %+v", u.Name, next.Name, facts, fresh)
		}
	}
}

// TestFactsOfLike: the facts of an edited unit are the facts of a parse from
// nothing, whatever they are built beside, and the lists an edit leaves alone
// are the previous facts' own, not copies.
func TestFactsOfLike(t *testing.T) {
	parse := func(src string) *minic.File {
		t.Helper()
		f, err := minic.ParseFile("b.mc", src)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	src := factsUnits[1].Src
	was := factsOf(parse(src), nil, true)
	for _, tc := range []struct {
		name, old, new         string
		sameTypes, sameCallees bool
	}{
		{"a body edit", "sink(*r);", "sink(*r); int z = 1;", true, true},
		{"one more call", "sink(*r);", "sink(*r); mark(*r);", true, false},
		{"one more parameter", "void idle() { }", "void idle(int n) { }", false, true},
		{"a function in front", "void drive(", "int first(int *p) { return peek(p); }\nvoid drive(", false, false},
		{"the last function gone", "void idle() { }", "", true, true},
	} {
		f := parse(strings.Replace(src, tc.old, tc.new, 1))
		got, fresh := factsOf(f, &was, true), factsOf(f, nil, true)
		if !sameFacts(&got, &fresh) {
			t.Errorf("%s: facts built beside the previous ones differ from a fresh parse's:\n%+v\n%+v", tc.name, got, fresh)
		}
		if shared := &got.types[0] == &was.types[0]; shared != tc.sameTypes {
			t.Errorf("%s: types shared with the previous facts = %v, want %v", tc.name, shared, tc.sameTypes)
		}
		if shared := &got.callees[0] == &was.callees[0]; shared != tc.sameCallees {
			t.Errorf("%s: callees shared with the previous facts = %v, want %v", tc.name, shared, tc.sameCallees)
		}
	}
}

// factsFrame returns where the i-th unit's frame lies in a facts record.
func factsFrame(rec []byte, i int) (start, end int) {
	r := wirebin.NewReader(rec[len(unitFactsMagic):])
	r.Int()
	r.Int()
	var n int
	for ; i >= 0; i-- {
		n = r.Frame().Rest()
	}
	end = len(rec) - r.Rest()
	return end - n, end
}

// reframe returns rec with its i-th frame's content replaced by what edit
// makes of it (the checksum aside), under a fresh checksum and length: a
// frame that vouches for whatever edit wrote.
func reframe(rec []byte, i int, edit func(body []byte) []byte) []byte {
	start, end := factsFrame(rec, i)
	body := edit(bytes.Clone(rec[start : end-4]))
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	out := append(bytes.Clone(rec[:start]), body...)
	binary.LittleEndian.PutUint32(out[start-4:], uint32(len(body)))
	return append(out, rec[end:]...)
}

// atFirstFunc walks r over a frame's body to its first function's entry.
func atFirstFunc(r *wirebin.Reader) {
	r.Raw(len(digest{}))
	r.Str()
	decodeParams(r)
	for n := r.Len(); n > 0; n-- {
		r.Str()
		decodeParams(r)
	}
	r.Len()
}

// pokeVarint replaces the varint seek leaves the reader at by v.
func pokeVarint(body []byte, v int64, seek func(r *wirebin.Reader)) []byte {
	r := wirebin.NewReader(body)
	seek(r)
	at := len(body) - r.Rest()
	r.Varint()
	var w wirebin.Writer
	w.B = append(w.B, body[:at]...)
	w.Varint(v)
	return append(w.B, body[len(body)-r.Rest():]...)
}

// malformedFacts are facts records that must not decode to facts: each is
// the seed record with one thing wrong. Where unit is 0 the damage is
// confined to the first unit's frame and must cost that unit alone; where it
// is -1 the record's framing is gone and with it every unit.
func malformedFacts(t testing.TB) map[string]struct {
	data []byte
	unit int
} {
	units := unitsOf(t, factsUnits)
	seed := encodeUnitFacts(units)
	type bad = struct {
		data []byte
		unit int
	}
	out := map[string]bad{
		"facts-cut-header": {seed[:5], -1},
		"facts-cut-1of3":   {seed[:len(seed)/3], -1},
		"facts-cut-2of3":   {seed[:2*len(seed)/3], -1},
		"facts-cut-tail":   {seed[:len(seed)-1], -1},
		"facts-bad-magic":  {append([]byte("ppsg"), seed[4:]...), -1},
		"facts-version-2":  {append(append([]byte(unitFactsMagic), 4), seed[5:]...), -1},
		"facts-long-count": {append(append([]byte(unitFactsMagic), seed[4], 0xfe, 0xff, 0x03), seed[6:]...), -1},
	}
	// What the encoder writes of facts no parse yields.
	for name, spoil := range map[string]func(uf *unitFacts){
		"facts-bad-type-tag":    func(uf *unitFacts) { uf.types[0] = minic.Type{Base: "float"} },
		"facts-deep-pointer":    func(uf *unitFacts) { uf.globals[0].Type.Ptr = ir.MaxPtrDepth + 1 },
		"facts-negative-line":   func(uf *unitFacts) { uf.funcs[0].line = -3 },
		"facts-callee-order":    func(uf *unitFacts) { setCallees(uf, 0, "zeta", "alpha") },
		"facts-callee-twice":    func(uf *unitFacts) { setCallees(uf, 0, "alpha", "alpha") },
		"facts-function-twice":  func(uf *unitFacts) { uf.funcs[1].name = uf.funcs[0].name },
		"facts-unnamed-func":    func(uf *unitFacts) { uf.funcs[0].name = "" },
		"facts-unnamed-global":  func(uf *unitFacts) { uf.globals[1].Name = "" },
		"facts-unnamed-field":   func(uf *unitFacts) { uf.structs[0].fields = []minic.Param{{Type: minic.IntType}} },
		"facts-unnamed-structs": func(uf *unitFacts) { uf.structs[0].name = "" },
	} {
		spoilt := unitsOf(t, factsUnits)
		spoil(&spoilt[0].unitFacts)
		out[name] = bad{encodeUnitFacts(spoilt), 0}
	}
	// What only a damaged or forged stream holds.
	out["facts-wide-line"] = bad{reframe(seed, 0, func(b []byte) []byte {
		return pokeVarint(b, 1<<40, func(r *wirebin.Reader) { atFirstFunc(r); r.Str() })
	}), 0}
	out["facts-wide-col"] = bad{reframe(seed, 0, func(b []byte) []byte {
		return pokeVarint(b, 1<<31, func(r *wirebin.Reader) { atFirstFunc(r); r.Str(); r.Varint() })
	}), 0}
	out["facts-long-func-count"] = bad{reframe(seed, 0, func(b []byte) []byte {
		r := wirebin.NewReader(b)
		atFirstFunc(r)
		b[len(b)-r.Rest()-1] = 0x7f // the count itself: two functions become 127
		return b
	}), 0}
	// A field's type "node" as the first symbol of a frame writes it: the
	// type's tag, then index 1 and the name that defines it.
	var node wirebin.Writer
	ir.EncodeType(&node, minic.StructType("node"))
	nodeType := node.B[:len(node.B)-1] // less its pointer levels
	out["facts-bad-symbol"] = bad{reframe(seed, 0, func(b []byte) []byte {
		// The first symbol of the frame is the struct name in a field's type.
		// Make its index 9 of a table holding none.
		at := bytes.Index(b, nodeType)
		b[at+1] = 9
		return b
	}), 0}
	out["facts-unnamed-struct-type"] = bad{reframe(seed, 0, func(b []byte) []byte {
		at := bytes.Index(b, nodeType)
		return append(b[:at+1:at+1], append([]byte{0}, b[at+7:]...)...)
	}), 0}
	out["facts-trailing-byte"] = bad{reframe(seed, 0, func(b []byte) []byte { return append(b, 0) }), 0}
	out["facts-stale-checksum"] = bad{func() []byte {
		b := bytes.Clone(seed)
		start, _ := factsFrame(b, 0)
		b[start+len(digest{})+2] ^= 0x20 // a letter of the unit's name
		return b
	}(), 0}
	out["facts-frame-overruns"] = bad{func() []byte {
		b := bytes.Clone(seed)
		start, _ := factsFrame(b, 1)
		binary.LittleEndian.PutUint32(b[start-4:], uint32(len(b)))
		return b
	}(), -1}
	return out
}

// TestUnitFactsRejectsMalformed: none of the malformed records decodes to
// facts for the damaged unit, and damage inside one frame leaves the other
// unit's facts as they were.
func TestUnitFactsRejectsMalformed(t *testing.T) {
	want := unitsOf(t, factsUnits)
	for name, bad := range malformedFacts(t) {
		got, err := decodeUnitFacts(bad.data, 1)
		switch {
		case bad.unit < 0:
			if err == nil {
				t.Errorf("%s: the record decoded", name)
			}
		case err != nil:
			t.Errorf("%s: the whole record was discarded: %v", name, err)
		case len(got) != 2 || got[0] != nil:
			t.Errorf("%s: the damaged unit decoded: %+v", name, got[0])
		case got[1] == nil || !sameFacts(&got[1].unitFacts, &want[1].unitFacts):
			t.Errorf("%s: damage to the first unit changed the second", name)
		}
	}
}

// TestUnitFactsCorruptionIsConfined overwrites every byte of the first unit's
// frame in turn, length prefix included. Decoding never panics, never yields
// facts for that unit, and either discards the record (its framing broke) or
// yields the second unit's facts untouched.
func TestUnitFactsCorruptionIsConfined(t *testing.T) {
	want := unitsOf(t, factsUnits)
	seed := encodeUnitFacts(want)
	start, end := factsFrame(seed, 0)
	var discarded, skipped int
	for at := start - 4; at < end; at++ {
		for _, b := range []byte{seed[at] ^ 0x01, seed[at] ^ 0x80, 0xff} {
			if b == seed[at] {
				continue
			}
			mut := bytes.Clone(seed)
			mut[at] = b
			got, err := decodeUnitFacts(mut, 1)
			if err != nil {
				discarded++
				continue
			}
			for i, su := range got {
				if su != nil && (i >= len(want) || !sameFacts(&su.unitFacts, &want[i].unitFacts)) {
					t.Fatalf("byte %d = %#x: unit %d decodes to other facts", at, b, i)
				}
			}
			// Past the length prefix the damage is the first unit's alone.
			if at >= start && (len(got) != 2 || got[0] != nil || got[1] == nil) {
				t.Fatalf("byte %d = %#x: decoded %v, want the second unit only", at, b, got)
			}
			skipped++
		}
	}
	t.Logf("%d bytes: %d mutations discard the record, %d cost the unit alone", end-start+4, discarded, skipped)
	if discarded == 0 || skipped == 0 {
		t.Errorf("mutations never %s", map[bool]string{true: "discarded the record", false: "cost one unit"}[discarded == 0])
	}
}

// TestUnitFactsCorpus keeps the fuzz target's committed seed corpus — the
// seed record and the malformed ones — in step with the encoding: a file that
// is missing is written, one that differs fails.
func TestUnitFactsCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeUnitFacts")
	corpus := map[string][]byte{"facts": encodeUnitFacts(unitsOf(t, factsUnits))}
	for name, bad := range malformedFacts(t) {
		corpus[name] = bad.data
	}
	for name, data := range corpus {
		path := filepath.Join(dir, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		got, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			if err := os.MkdirAll(dir, 0o777); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o666); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", path)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s is not today's encoding; delete it and run this test again to regenerate it", path)
		}
	}
}

// FuzzDecodeUnitFacts: arbitrary bytes never panic the decoder, and whatever
// it accepts is facts the encoder writes back to a record that decodes to the
// same. Seeds: testdata/fuzz (see TestUnitFactsCorpus).
func FuzzDecodeUnitFacts(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeUnitFacts(data, 1)
		if err != nil {
			return
		}
		units := slices.DeleteFunc(got, func(su *parsedUnit) bool { return su == nil })
		again, err := decodeUnitFacts(encodeUnitFacts(units), 1)
		if err != nil || len(again) != len(units) {
			t.Fatalf("accepted facts re-encode to a record that decodes to %d of %d units: %v", len(again), len(units), err)
		}
		for i, su := range again {
			if su == nil || su.name != units[i].name || su.sum != units[i].sum || !sameFacts(&su.unitFacts, &units[i].unitFacts) {
				t.Fatalf("unit %d changed across an encode/decode round trip", i)
			}
		}
	})
}

// rewriteFacts replaces the store's facts record by what edit makes of its
// units.
func rewriteFacts(t *testing.T, st store.Store, edit func(units []*parsedUnit) []*parsedUnit) {
	t.Helper()
	data, ok, err := st.Get(store.NSArtifact, unitFactsKey)
	if err != nil || !ok {
		t.Fatalf("the store holds no facts record: ok=%v err=%v", ok, err)
	}
	units, err := decodeUnitFacts(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(store.NSArtifact, unitFactsKey, encodeUnitFacts(edit(units))); err != nil {
		t.Fatal(err)
	}
}

// TestSessionStoreFactsMismatch: stored facts are believed only as far as
// the stored artifacts bear them out. A record that the store's checksum and
// its own vouch for, but which names a function the artifacts do not — or
// leaves out one they do, or sits under another unit's digest, or was damaged
// before it was written — costs the units concerned a parse and nothing else:
// every artifact still loads and the reports are a cold build's.
func TestSessionStoreFactsMismatch(t *testing.T) {
	units := []minic.NamedSource{
		{Name: "a.mc", Src: "int *mk() { return malloc(); }\nvoid lone(int *p) { *p = 3; }\n"},
		{Name: "b.mc", Src: "void other() { int *x = mk(); lone(x); free(x); use(*x); }\nvoid spare(int *p) { lone(p); }\n"},
		{Name: "c.mc", Src: "void third(int *p) { spare(p); }\n"},
	}
	specs := checkers.All()
	dopts := detect.Options{Workers: 1}
	report := func(a *Analysis) string { return fmt.Sprint(a.CheckAll(specs, dopts).Reports) }
	coldA, err := NewSession(BuildOptions{}).Update(units)
	if err != nil {
		t.Fatal(err)
	}
	cold := report(coldA)
	if !strings.Contains(cold, "use-after-free") {
		t.Fatalf("the program has no report to compare: %s", cold)
	}

	for _, tc := range []struct {
		name   string
		forge  func(units []*parsedUnit) []*parsedUnit
		parsed int
	}{
		{"untouched", func(us []*parsedUnit) []*parsedUnit { return us }, 0},
		{"facts lack a function", func(us []*parsedUnit) []*parsedUnit {
			us[1].funcs = us[1].funcs[:1]
			return us
		}, 1},
		{"facts name an unknown function", func(us []*parsedUnit) []*parsedUnit {
			extra := us[0].funcs[1]
			extra.name = "phantom"
			us[0].types = append(us[0].types, minic.VoidType)
			extra.typesEnd++
			us[0].funcs = append(us[0].funcs, extra)
			return us
		}, 1},
		{"facts hold another hash", func(us []*parsedUnit) []*parsedUnit {
			us[2].funcs[0].sum[3] ^= 1
			return us
		}, 1},
		{"digests swapped", func(us []*parsedUnit) []*parsedUnit {
			us[0].sum, us[1].sum = us[1].sum, us[0].sum
			return us
		}, 2},
		{"another unit's facts under this digest", func(us []*parsedUnit) []*parsedUnit {
			us[1].unitFacts, us[1].name = us[2].unitFacts, us[2].name
			return us
		}, 1},
		{"unit dropped from the record", func(us []*parsedUnit) []*parsedUnit { return us[1:] }, 1},
	} {
		dir := t.TempDir()
		st, err := store.Open(dir, store.DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewSession(BuildOptions{Store: st}).Update(units); err != nil {
			t.Fatal(err)
		}
		rewriteFacts(t, st, tc.forge)
		s := NewSession(BuildOptions{Store: st})
		a, err := s.Update(units)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		stats := s.ArtifactStats()
		if stats.UnitsParsed != tc.parsed || stats.UnitsLoaded != len(units)-tc.parsed {
			t.Errorf("%s: parsed %d units and took %d from the store, want %d and %d", tc.name, stats.UnitsParsed, stats.UnitsLoaded, tc.parsed, len(units)-tc.parsed)
		}
		if stats.StoreHits != a.Sizes.Functions || stats.Misses+stats.Invalidated != 0 {
			t.Errorf("%s: not every artifact loaded: %+v", tc.name, stats)
		}
		if got := report(a); got != cold {
			t.Errorf("%s: reports differ from a cold build's\ngot:  %s\nwant: %s", tc.name, got, cold)
		}
		if s.ArtifactFingerprint() != fingerprintOf(t, units) {
			t.Errorf("%s: artifact fingerprint differs from a cold build's", tc.name)
		}
		// Whatever was wrong with the record, the commit put it right.
		s = NewSession(BuildOptions{Store: st})
		if _, err := s.Update(units); err != nil {
			t.Fatal(err)
		}
		if stats := s.ArtifactStats(); stats.UnitsParsed != 0 || stats.UnitsLoaded != len(units) {
			t.Errorf("%s: the restart after parsed %d units and took %d from the store", tc.name, stats.UnitsParsed, stats.UnitsLoaded)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionStoreFactsDelta: a commit writes the facts of the units it
// changed, in the slot of its delta segment, and leaves the record of the last
// full snapshot as it is — what an edit writes is the size of the edit. A unit
// whose bytes changed and whose functions did not still takes a slot, and a
// restart finds every unit among the records.
func TestSessionStoreFactsDelta(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	record := func(key string) []byte {
		t.Helper()
		data, ok, err := st.Get(store.NSArtifact, key)
		if err != nil || !ok {
			t.Fatalf("no record %s: ok=%v err=%v", key, ok, err)
		}
		return bytes.Clone(data)
	}
	deltaUnits := func(slot int) []*parsedUnit {
		t.Helper()
		units, err := decodeUnitFacts(record(unitFactsDeltaKey(slot)), 1)
		if err != nil {
			t.Fatal(err)
		}
		return units
	}

	sess := NewSession(BuildOptions{Store: st})
	if _, err := sess.Update(factsUnits); err != nil {
		t.Fatal(err)
	}
	full := record(unitFactsKey)

	bodyEdit := slices.Clone(factsUnits)
	bodyEdit[1].Src = strings.Replace(bodyEdit[1].Src, "void idle() { }", "void idle() { int z = 1; }", 1)
	if _, err := sess.Update(bodyEdit); err != nil {
		t.Fatal(err)
	}
	if got := deltaUnits(0); len(got) != 1 || got[0] == nil || got[0].name != "b.mc" || got[0].sum != unitDigest("b.mc", bodyEdit[1].Src) {
		t.Fatalf("the first delta holds %+v, want the edited b.mc alone", got)
	}

	spaceEdit := slices.Clone(bodyEdit)
	spaceEdit[0].Src += "\n"
	if _, err := sess.Update(spaceEdit); err != nil {
		t.Fatal(err)
	}
	if stats := sess.ArtifactStats(); stats.Invalidated+stats.Misses != 0 || stats.UnitsParsed != 1 {
		t.Fatalf("a trailing newline rebuilt something: %+v", stats)
	}
	if got := deltaUnits(1); len(got) != 1 || got[0] == nil || got[0].name != "a.mc" || got[0].sum != unitDigest("a.mc", spaceEdit[0].Src) {
		t.Fatalf("the second delta holds %+v, want the edited a.mc alone", got)
	}
	if _, arts, err := decodeSegment(sess.shape.fp, record(segDeltaKey(1)), 1); err != nil || len(arts) != 0 {
		t.Fatalf("the second delta segment holds %d artifacts (%v), want an empty one holding the slot", len(arts), err)
	}
	if !bytes.Equal(record(unitFactsKey), full) {
		t.Error("an edit rewrote the full facts record")
	}

	restarted := NewSession(BuildOptions{Store: st})
	a, err := restarted.Update(spaceEdit)
	if err != nil {
		t.Fatal(err)
	}
	if stats := restarted.ArtifactStats(); stats.UnitsParsed != 0 || stats.UnitsLoaded != 2 || stats.StoreHits != a.Sizes.Functions {
		t.Errorf("the restart: %+v, want nothing parsed and everything loaded", stats)
	}
	if restarted.ArtifactFingerprint() != fingerprintOf(t, spaceEdit) {
		t.Error("the restart's artifact fingerprint differs from a cold build's")
	}
}

func fingerprintOf(t *testing.T, units []minic.NamedSource) string {
	t.Helper()
	s := NewSession(BuildOptions{})
	if _, err := s.Update(units); err != nil {
		t.Fatal(err)
	}
	return s.ArtifactFingerprint()
}

// TestSessionStoreFactsByteFlips flips every byte of one unit's frame in a
// store's facts record in turn, each time under a store checksum that vouches
// for the damaged record. The restart parses that unit — or, where the flip
// broke the record's framing, every unit — loads every artifact and reports
// what a cold build reports.
func TestSessionStoreFactsByteFlips(t *testing.T) {
	units := factsUnits
	coldA, err := NewSession(BuildOptions{}).Update(units)
	if err != nil {
		t.Fatal(err)
	}
	cold := fmt.Sprint(coldA.CheckAll(checkers.All(), detect.Options{Workers: 1}).Reports)

	st, err := store.Open(t.TempDir(), store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := NewSession(BuildOptions{Store: st}).Update(units); err != nil {
		t.Fatal(err)
	}
	seed, ok, err := st.Get(store.NSArtifact, unitFactsKey)
	if err != nil || !ok {
		t.Fatalf("no facts record: ok=%v err=%v", ok, err)
	}
	seed = bytes.Clone(seed)
	start, end := factsFrame(seed, 1)
	var one, all int
	for at := start - 4; at < end; at++ {
		mut := bytes.Clone(seed)
		mut[at] ^= 0x04
		if err := st.Put(store.NSArtifact, unitFactsKey, mut); err != nil {
			t.Fatal(err)
		}
		// The session must not repair the record: each flip starts from the
		// seed, so the store is handed over read-only.
		s := NewSession(BuildOptions{Store: readOnly{st}})
		a, err := s.Update(units)
		if err != nil {
			t.Fatalf("byte %d: %v", at, err)
		}
		stats := s.ArtifactStats()
		switch stats.UnitsParsed {
		case 1:
			one++
		case len(units):
			all++
		default:
			t.Fatalf("byte %d: %d units parsed", at, stats.UnitsParsed)
		}
		if stats.StoreHits != a.Sizes.Functions || stats.Misses+stats.Invalidated != 0 {
			t.Fatalf("byte %d: not every artifact loaded: %+v", at, stats)
		}
		if got := fmt.Sprint(a.CheckAll(checkers.All(), detect.Options{Workers: 1}).Reports); got != cold {
			t.Fatalf("byte %d: reports differ from a cold build's", at)
		}
	}
	t.Logf("%d flips cost one unit a parse, %d every unit", one, all)
	if one == 0 {
		t.Error("no flip was confined to its unit")
	}
}

// readOnly is a store that accepts writes and keeps none.
type readOnly struct{ store.Store }

func (readOnly) Put(ns, key string, val []byte) error { return nil }
