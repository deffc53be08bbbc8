package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"time"

	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wirebin"
)

// Unit facts. Between Updates the session knows a translation unit by its
// name, its source and the facts below — what an Update reads of a unit
// without lowering any of its functions — and never by its AST: a unit is
// parsed when its bytes are new, and its tree dies once the facts stand; a
// function that must be lowered is parsed again, alone, from the declaration
// the facts place (see build.decl). The facts hold nothing of the tree's
// arena: strings are the source's, and lists are their own.

// unitFacts are one unit's declarations as the program-level tables see
// them: its globals and struct layouts (its share of the program shape) and,
// per function, the signature, the content hash and the names called. The
// signatures and the callee names of all its functions lie end to end in two
// lists of the unit's, so a unit's facts are a handful of allocations however
// many functions it declares.
type unitFacts struct {
	globals []minic.Param
	structs []structFacts
	funcs   []funcFacts
	types   []minic.Type // per function: the return type, then the parameter types
	callees []string     // per function: minic.AppendCalleeNames, sorted and de-duplicated
}

type structFacts struct {
	name   string
	fields []minic.Param
}

type funcFacts struct {
	name      string
	line, col int32  // of the declaration, in the unit's file
	sum       digest // minic.HashFuncSum: structure, literals, positions
	// Where the function's stretches of the unit's types and callees end;
	// they start where the function before it ends.
	typesEnd, calleesEnd int32
}

// sig is the k-th function's return type followed by its parameter types.
func (uf *unitFacts) sig(k int) []minic.Type {
	from := int32(0)
	if k > 0 {
		from = uf.funcs[k-1].typesEnd
	}
	return uf.types[from:uf.funcs[k].typesEnd]
}

func (uf *unitFacts) ret(k int) minic.Type      { return uf.sig(k)[0] }
func (uf *unitFacts) params(k int) []minic.Type { return uf.sig(k)[1:] }

// calleesOf is the names the k-th function calls.
func (uf *unitFacts) calleesOf(k int) []string {
	from := int32(0)
	if k > 0 {
		from = uf.funcs[k-1].calleesEnd
	}
	return uf.callees[from:uf.funcs[k].calleesEnd]
}

// listBuilder builds one of a unit's end-to-end lists. While what is added
// is what like holds at the same place nothing is allocated and the list is
// like's own: an edit seldom changes a signature or a call, so an edited
// unit's lists are mostly those of the facts it replaces.
type listBuilder[T comparable] struct {
	like []T
	room int // what to make room for when like does not serve
	own  []T // the list, once it has parted from like
	n    int
}

func (b *listBuilder[T]) add(items ...T) {
	if b.own == nil && b.n+len(items) <= len(b.like) && slices.Equal(b.like[b.n:b.n+len(items)], items) {
		b.n += len(items)
		return
	}
	if b.own == nil {
		b.own = append(make([]T, 0, max(b.room, b.n+len(items))), b.like[:b.n]...)
	}
	b.own = append(b.own, items...)
	b.n += len(items)
}

func (b *listBuilder[T]) list() []T {
	if cap(b.own) > len(b.own) {
		return slices.Clip(slices.Clone(b.own)) // the session keeps it: no slack
	}
	if b.own != nil {
		return b.own
	}
	return b.like[:b.n:b.n]
}

// factsOf reads a parsed unit's facts off its AST. like, when not nil, is
// the facts the unit was known by until now. Without hash the functions'
// AST digests are left zero, for a session that never reads them.
func factsOf(f *minic.File, like *unitFacts, hash bool) unitFacts {
	uf := unitFacts{
		globals: make([]minic.Param, len(f.Globals)),
		structs: make([]structFacts, len(f.Structs)),
		funcs:   make([]funcFacts, len(f.Funcs)),
	}
	for i, g := range f.Globals {
		uf.globals[i] = minic.Param{Name: g.Name, Type: g.Type}
	}
	for i, sd := range f.Structs {
		uf.structs[i] = structFacts{name: sd.Name, fields: sd.Fields}
	}
	ntypes := len(f.Funcs)
	for _, fn := range f.Funcs {
		ntypes += len(fn.Params)
	}
	// Two callees a function is more than the programs at hand average.
	types, callees := listBuilder[minic.Type]{room: ntypes}, listBuilder[string]{room: 2 * len(f.Funcs)}
	if like != nil {
		types.like, callees.like = like.types, like.callees
	}
	var room [64]string // for one function's callees, before they join the list
	names := room[:0]
	for i, fn := range f.Funcs {
		types.add(fn.Ret)
		for _, p := range fn.Params {
			types.add(p.Type)
		}
		names = minic.AppendCalleeNames(names[:0], fn)
		callees.add(names...)
		uf.funcs[i] = funcFacts{name: fn.Name, line: int32(fn.Pos.Line), col: int32(fn.Pos.Col),
			typesEnd: int32(types.n), calleesEnd: int32(callees.n)}
		if hash {
			uf.funcs[i].sum = minic.HashFuncSum(fn)
		}
	}
	uf.types, uf.callees = types.list(), callees.list()
	return uf
}

// shape renders the unit's globals and struct layouts, its share of the
// whole-program lowering inputs (see progShape). The bytes feed the
// program-shape fingerprint every persisted segment carries.
func (uf *unitFacts) shape() string {
	var b strings.Builder
	for _, g := range uf.globals {
		fmt.Fprintf(&b, "global\x00%s\x00%s\x00", g.Name, g.Type)
	}
	for _, sd := range uf.structs {
		fmt.Fprintf(&b, "struct\x00%s\x00", sd.name)
		for _, fld := range sd.fields {
			fmt.Fprintf(&b, "field\x00%s\x00%s\x00", fld.Name, fld.Type)
		}
	}
	return b.String()
}

// unitDigest identifies a unit's content across processes: its name and its
// bytes. It is computed only for a session with a store attached.
func unitDigest(name, src string) digest { return minic.HashSourceSum(name, src) }

// Persistence of unit facts: records under store.NSArtifact, beside the
// artifact segments and in step with them — "!units" holds every unit of the
// program as of the last full snapshot, "!units-NN" the units changed by the
// commit that wrote delta segment NN. A record is the magic, a header (codec
// version, unit count) and one wirebin frame per unit: the unit's digest and
// name, its facts, and a CRC-32 of the frame up to there. Facts are a function
// of the name and the bytes the digest is of, so records cannot contradict one
// another and need no order: a restarted session reads all that are there,
// looks each incoming unit up by digest and parses only the ones it does not
// find. The contract is the segments': a record of another version or whose
// framing is broken is a miss for every unit in it, a frame whose content is
// rejected is a miss for its unit alone, and a miss is a parse — never a wrong
// answer. The checksum is there because, unlike an artifact, a fact cannot be
// verified against anything else in the record: a return type is whatever the
// bytes say.
const (
	unitFactsKey     = "!units" // '!' as for segment keys
	unitFactsDelta   = "!units-"
	unitFactsMagic   = "ppuf"
	unitFactsVersion = 1
)

func encodeParams(e *wirebin.Writer, ps []minic.Param) {
	e.Uvarint(uint64(len(ps)))
	for _, p := range ps {
		e.Str(p.Name)
		ir.EncodeType(e, p.Type)
	}
}

func decodeParams(r *wirebin.Reader) ([]minic.Param, error) {
	ps := make([]minic.Param, r.Len())
	for i := range ps {
		name := r.Str()
		t, err := ir.DecodeType(r)
		if err != nil {
			return nil, err
		}
		if name == "" {
			return nil, r.Errorf("unit facts: declaration without a name")
		}
		ps[i] = minic.Param{Name: name, Type: t}
	}
	return ps, nil
}

// encodeUnitFacts renders a facts record holding units.
func encodeUnitFacts(units []*parsedUnit) []byte {
	e := &wirebin.Writer{}
	e.B = append(e.B, unitFactsMagic...)
	e.Int(unitFactsVersion)
	e.Int(len(units))
	for _, pu := range units {
		frame := e.Begin()
		e.B = append(e.B, pu.sum[:]...)
		e.Str(pu.name)
		encodeParams(e, pu.globals)
		e.Uvarint(uint64(len(pu.structs)))
		for _, sd := range pu.structs {
			e.Str(sd.name)
			encodeParams(e, sd.fields)
		}
		e.Uvarint(uint64(len(pu.funcs)))
		for k := range pu.funcs {
			ff := &pu.funcs[k]
			e.Str(ff.name)
			e.I32(ff.line)
			e.I32(ff.col)
			ir.EncodeType(e, pu.ret(k))
			e.Uvarint(uint64(len(pu.params(k))))
			for _, t := range pu.params(k) {
				ir.EncodeType(e, t)
			}
			e.B = append(e.B, ff.sum[:]...)
			e.Uvarint(uint64(len(pu.calleesOf(k))))
			for _, c := range pu.calleesOf(k) {
				e.Sym(c)
			}
		}
		e.B = binary.LittleEndian.AppendUint32(e.B, crc32.ChecksumIEEE(e.B[frame:]))
		e.End(frame)
	}
	return e.B
}

func readDigest(r *wirebin.Reader) (d digest) {
	copy(d[:], r.Raw(len(d)))
	return d
}

// decodeStoredUnit reads one unit's frame into a unit the store holds: its
// digest, name and facts (its source and shape are for whoever has the bytes
// to fill in). What it accepts is what a parse can yield: named declarations,
// known types, positions that fit, callees in AppendCalleeNames' order, one
// declaration per function name, nothing left over.
func decodeStoredUnit(frame *wirebin.Reader) (*parsedUnit, error) {
	body := frame.Raw(frame.Rest())
	if len(body) < 4 || crc32.ChecksumIEEE(body[:len(body)-4]) != binary.LittleEndian.Uint32(body[len(body)-4:]) {
		return nil, fmt.Errorf("unit facts: frame checksum mismatch")
	}
	r := wirebin.NewReader(body[:len(body)-4])
	su := &parsedUnit{sum: readDigest(r), name: r.Str(), stored: true}
	var err error
	if su.globals, err = decodeParams(r); err != nil {
		return nil, err
	}
	su.structs = make([]structFacts, r.Len())
	for i := range su.structs {
		sd := &su.structs[i]
		sd.name = r.Str()
		if sd.fields, err = decodeParams(r); err != nil {
			return nil, err
		}
		if sd.name == "" {
			return nil, r.Errorf("unit facts: struct without a name")
		}
	}
	// A function's entry is at least its digest and seven more bytes; holding
	// the count to that keeps a forged one from buying a large allocation.
	n := r.Len()
	if n > r.Rest()/(len(digest{})+7) {
		return nil, r.Errorf("unit facts: %d functions in %d bytes", n, r.Rest())
	}
	su.funcs = make([]funcFacts, n)
	su.types, su.callees = make([]minic.Type, 0, 3*n), make([]string, 0, 2*n)
	seen := make(map[string]struct{}, len(su.funcs))
	for i := range su.funcs {
		ff := &su.funcs[i]
		ff.name = r.Str()
		line, col := r.Varint(), r.Varint()
		if line < 0 || col < 0 || int64(int32(line)) != line || int64(int32(col)) != col {
			return nil, r.Errorf("unit facts: %s declared at %d:%d", ff.name, line, col)
		}
		ff.line, ff.col = int32(line), int32(col)
		ret, err := ir.DecodeType(r)
		if err != nil {
			return nil, err
		}
		su.types = append(su.types, ret)
		for n := r.Len(); n > 0; n-- {
			t, err := ir.DecodeType(r)
			if err != nil {
				return nil, err
			}
			su.types = append(su.types, t)
		}
		ff.sum = readDigest(r)
		first := len(su.callees)
		for n := r.Len(); n > 0; n-- {
			c := r.Sym()
			if c == "" || len(su.callees) > first && c <= su.callees[len(su.callees)-1] {
				return nil, r.Errorf("unit facts: callees of %s out of order at %q", ff.name, c)
			}
			su.callees = append(su.callees, c)
		}
		ff.typesEnd, ff.calleesEnd = int32(len(su.types)), int32(len(su.callees))
		if _, dup := seen[ff.name]; dup || ff.name == "" {
			return nil, r.Errorf("unit facts: function %q declared twice or unnamed", ff.name)
		}
		seen[ff.name] = struct{}{}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Rest() != 0 {
		return nil, fmt.Errorf("unit facts: %d bytes left in the frame of %s", r.Rest(), su.name)
	}
	// The lists were made with room for more than most units need; the
	// session keeps them, so they keep no slack.
	su.types, su.callees = slices.Clip(slices.Clone(su.types)), slices.Clip(slices.Clone(su.callees))
	return su, nil
}

// decodeUnitFacts reads a facts record: the units it holds, in the record's
// order, nil where a frame's content was rejected.
func decodeUnitFacts(data []byte, workers int) ([]*parsedUnit, error) {
	if len(data) < len(unitFactsMagic) || string(data[:len(unitFactsMagic)]) != unitFactsMagic {
		return nil, fmt.Errorf("unit facts: bad magic")
	}
	r := wirebin.NewReader(data[len(unitFactsMagic):])
	version, count := r.Int(), r.Int()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("unit facts header: %w", err)
	}
	if version != unitFactsVersion {
		return nil, fmt.Errorf("unit facts: codec version %d, want %d", version, unitFactsVersion)
	}
	return decodeFrames(r, count, workers, "unit facts", decodeStoredUnit)
}

func unitFactsDeltaKey(slot int) string { return fmt.Sprintf("%s%02d", unitFactsDelta, slot) }

// loadUnitFacts reads the store's facts records into a look-up by unit
// digest. A record that is not there, or does not decode, adds nothing.
func loadUnitFacts(st store.Store, workers int, rec *obs.Recorder) map[digest]*parsedUnit {
	known := make(map[digest]*parsedUnit)
	var readNs, decodeNs time.Duration
	read := func(key string) {
		t0 := time.Now()
		data, ok, err := st.Get(store.NSArtifact, key)
		readNs += time.Since(t0)
		if err != nil || !ok {
			return
		}
		t0 = time.Now()
		units, err := decodeUnitFacts(data, workers)
		decodeNs += time.Since(t0)
		if err != nil && rec != nil {
			rec.Counter("store.facts.decode_errors").Inc()
		}
		for _, su := range units {
			if su != nil {
				known[su.sum] = su
			}
		}
	}
	read(unitFactsKey)
	for i := 0; i < maxDeltaSegments; i++ {
		read(unitFactsDeltaKey(i))
	}
	if rec != nil {
		rec.Counter("store.read_ns").Add(int64(readNs))
		rec.Counter("store.decode_ns").Add(int64(decodeNs))
	}
	return known
}
