package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// decodeRequestReference is the request decoder the scanner replaced, kept
// as its oracle: encoding/json's Decoder with DisallowUnknownFields, asked
// for one field, and one unit, at a time, so that like the scanner it stops
// at the end of the object. (It matched field names with strings.ToLower,
// which is not encoding/json's fold; that is put right here.)
func decodeRequestReference(r io.Reader, req *AnalyzeRequest) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	// The request's fields by their JSON names.
	fields := make(map[string]any)
	for rv, i := reflect.ValueOf(req).Elem(), 0; i < rv.NumField(); i++ {
		name, _, _ := strings.Cut(rv.Type().Field(i).Tag.Get("json"), ",")
		fields[name] = rv.Field(i).Addr().Interface()
	}
	if tok, err := dec.Token(); err != nil || tok == nil {
		return err // null leaves the request as it is
	} else if tok != json.Delim('{') {
		return fmt.Errorf("json: %v where a request object should start", tok)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		key, _ := tok.(string) // inside an object, before a value: a key
		var field any
		for name, dst := range fields {
			if strings.EqualFold(name, key) {
				field = dst
			}
		}
		switch dst := field.(type) {
		case *[]UnitJSON:
			err = decodeUnitsReference(dec, dst)
		case nil:
			err = fmt.Errorf("json: unknown field %q", tok)
		default:
			err = dec.Decode(dst)
		}
		if err != nil {
			return err
		}
	}
	_, err := dec.Token() // the closing brace, or what is there instead
	return err
}

// decodeUnitsReference reads the value of the units field: an array of
// unit objects, or null.
func decodeUnitsReference(dec *json.Decoder, units *[]UnitJSON) error {
	tok, err := dec.Token()
	if err != nil || tok == nil {
		*units = nil
		return err
	}
	if tok != json.Delim('[') {
		return fmt.Errorf("json: units: %v where an array should start", tok)
	}
	*units = []UnitJSON{}
	for dec.More() {
		var u UnitJSON
		if err := dec.Decode(&u); err != nil {
			return err
		}
		*units = append(*units, u)
	}
	_, err = dec.Token()
	return err
}

// noUnits is a session that holds no unit, for decodeRequest.
var noUnits = core.NewSession(core.BuildOptions{})

// decodeRequest reads r with the scanner and copies what it found into req,
// as the handler does: the units through sent, the memo of one tenant whose
// session holds none of them.
func decodeRequest(r io.Reader, req *AnalyzeRequest, sent *tenant.Sent) error {
	b := openBody(r, 0)
	defer b.release()
	if err := b.decode(req); err != nil {
		return err
	}
	if b.units != nil {
		units, _, err := b.sources(noUnits, sent)
		if err != nil {
			return err
		}
		req.Units = make([]UnitJSON, len(units))
		for i, u := range units {
			req.Units[i] = UnitJSON{Name: u.Name, Src: u.Src}
		}
	}
	return nil
}

// ladderBody is the body the benchmark's serve-edit client sends for a
// ladder subject of the given size: project and checkers first, then each
// unit as json.Marshal writes it (every '<' a \u003c).
func ladderBody(tb testing.TB, kloc int) ([]byte, []minic.NamedSource) {
	tb.Helper()
	g := workload.Generate(
		workload.Subject{Name: "ladder", Origin: "synthetic", PaperKLoC: kloc, TrueBugs: 6, OpaqueTraps: 4},
		workload.GenOptions{Scale: 30, Taint: true, Seed: 1})
	return unitsBody(tb, g.Units), g.Units
}

func unitsBody(tb testing.TB, units []minic.NamedSource) []byte {
	tb.Helper()
	var b bytes.Buffer
	b.WriteString(`{"project":"p0","checkers":["all"],"units":[`)
	for i, u := range units {
		data, err := json.Marshal(UnitJSON{Name: u.Name, Src: u.Src})
		if err != nil {
			tb.Fatal(err)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(data)
	}
	b.WriteString("]}")
	return b.Bytes()
}

// pieces is a body that arrives n bytes a Read and then fails with err,
// which is io.EOF for one that simply ends. With last set the error comes
// with the final bytes, as http.MaxBytesReader's does, not after them.
type pieces struct {
	data []byte
	n    int
	err  error
	last bool
}

func (p *pieces) Read(b []byte) (int, error) {
	n := copy(b, p.data[:min(p.n, len(p.data))])
	p.data = p.data[n:]
	if len(p.data) == 0 && (n == 0 || p.last) {
		return n, p.err
	}
	return n, nil
}

// FuzzDecodeRequest holds the scanner to the decoder it replaced: the same
// bodies accepted, the same request read from them, however the body
// arrives — a byte, seven bytes or everything a Read — and whether what
// follows the last byte the scanner needs is the rest of the body or an
// error. Each body goes through one tenant's memo of the units it was last
// sent: first after a ladder body, then after itself.
func FuzzDecodeRequest(f *testing.F) {
	good, _ := ladderBody(f, 30) // r1k
	f.Add(good)
	// One source changed, and not in length.
	f.Add(bytes.Replace(good, []byte("void "), []byte("VOID "), 1))
	for _, tc := range analyzeErrorCases() {
		f.Add([]byte(tc.body))
	}
	for _, body := range []string{
		`{"units":[{"name":"a.mc","src":"\ud83d\ude00 \ud83d \ude00 \ud83d\u0041"}]}`,
		`{"units":[{"name":"a.mc","src":"a\u0000b"}]}`,
		"{\"units\":[{\"name\":\"a.mc\",\"src\":\"a\x01b\"}]}",
		"{\"units\":[{\"name\":\"a.mc\",\"src\":\"caf\xc3\xa9 \xff \\n\xc3\"}]}",
		`{"units":[{"name":"a.mc","src":null}]}`,
		`{"units":[null]}`,
		`{"units":[{"name":"a.mc","src":"int f( {","src":"void f() { }","src":null}]}`,
		`{"units":[{"name":"a.mc","src":"int\x f( {","src":"void f() { }"}]}`,
		`{"units":[{"name":"a.mc","src":"\u12"}],"units":[{"name":"a.mc","src":"void f() { }"}]}`,
		`{"colour":{"a":[1,{"b":"}]"}],"c":null},"units":[]}`,
		`{"checkers":["null-deref"],"checkers":null,"workers":null,"witness":null,"project":null,"units":[{"n\u0061me":"a.mc","\u017frc":""}]}`,
		`{"workers":1x}`, `{"workers":[1}}`, `{"project":"p" "units":[]}`, `{"units":[{}],}`, `null`, ` nullx`, `{"units":nulL}`,
		// As json.Marshal writes '<', '>' and '&'.
		`{"units":[{"name":"a.mc","src":"` + strings.Repeat(`a \u003c b \u003e\u0026c;\n`, 40) + `"}]}`,
		// A source that ends in a backslash, and one that ends in a quote.
		`{"units":[{"name":"a.mc","src":"int x; \\"},{"name":"b.mc","src":"\\\\\\\"\\\\"}]}`,
		`{"units":[{"name":"a.mc","src":"int x; \""},{"name":"b.mc","src":"\\\"\""}]}`,
		`{"units":[{"name":"a.mc","src":"int x; \\\"}]}`,
	} {
		f.Add([]byte(body))
	}
	// An escaped quote, and a source ending in a backslash, split at every
	// place in a 7-byte Read (and between any two bytes in a 1-byte one).
	for pad := 0; pad < 7; pad++ {
		f.Add([]byte(`{"units":[{"name":"a.mc","src":"` + strings.Repeat("x", pad) + `\"\\"}]}`))
	}
	cut := errors.New("connection cut")
	f.Fuzz(func(t *testing.T, body []byte) {
		// What the scanner needs of a body it accepts.
		b := openBody(bytes.NewReader(body), 0)
		needed := len(body)
		if b.decode(new(AnalyzeRequest)) == nil {
			needed = b.pos
		}
		b.release()
		var sent tenant.Sent
		if err := decodeRequest(bytes.NewReader(good), new(AnalyzeRequest), &sent); err != nil {
			t.Fatal(err)
		}
		for _, p := range []pieces{
			{body, len(body) + 1, io.EOF, false},
			{body, 7, io.EOF, true},
			{body, 1, io.EOF, false},
			{body[:needed], len(body) + 1, cut, true},
			{body[:needed], 7, cut, false},
			{body[:needed], 1, cut, false},
		} {
			var got, want AnalyzeRequest
			in, ref := p, p
			gotErr, wantErr := decodeRequest(&in, &got, &sent), decodeRequestReference(&ref, &want)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%d bytes a Read, then %v: scanner: %v; reference: %v", p.n, p.err, gotErr, wantErr)
			}
			if gotErr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%d bytes a Read, then %v: scanner read %+v, reference %+v", p.n, p.err, got, want)
			}
		}
	})
}

// measure returns the objects and bytes one call of run allocated, run
// being what prepare returns; the least of a few tries, because a collection
// in the middle of one empties the buffer pool, which only ever adds.
func measure(prepare func() (run func())) (objects, size uint64) {
	objects, size = ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for try := 0; try < 5; try++ {
		run := prepare()
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		size = min(size, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, size
}

// TestDecodeBudget bounds what reading a request costs beyond its pooled
// buffer: a few small objects for the scan; for the strings, nothing that
// the tenant's last request sent alike; and for a unit that changed, its
// source and a copy of its bytes as sent.
func TestDecodeBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state of its own")
	}
	body, units := ladderBody(t, 60) // r2k
	const fields = 3                 // project, checkers, units
	scan := func(body []byte) *requestBody {
		b := openBody(bytes.NewReader(body), int64(len(body)))
		if err := b.decode(new(AnalyzeRequest)); err != nil {
			t.Fatal(err)
		}
		return b
	}
	var got []minic.NamedSource
	sess := core.NewSession(core.BuildOptions{Workers: 1})
	var sent tenant.Sent
	intern := func(b *requestBody) func() {
		return func() {
			var err error
			if got, _, err = b.sources(sess, &sent); err != nil {
				t.Fatal(err)
			}
		}
	}

	scan(body).release() // from here on the pool has a buffer
	objects, size := measure(func() func() { return func() { scan(body).release() } })
	t.Logf("scanning %d units in %d bytes: %d objects, %d bytes", len(units), len(body), objects, size)
	if limit := uint64(2 * (len(units) + fields)); objects > limit {
		t.Errorf("the scan allocated %d objects, budget %d", objects, limit)
	}
	if size > 16<<10 {
		t.Errorf("the scan allocated %d bytes beyond the buffer, budget %d", size, 16<<10)
	}

	// A first request, then the same bytes again: every string handed to
	// Update is the session's own, and only the slice of units is made.
	intern(scan(body))()
	if !reflect.DeepEqual(got, units) {
		t.Fatal("the scanner read other units than were sent")
	}
	first := got
	if _, err := sess.Update(first); err != nil {
		t.Fatal(err)
	}
	slice := uint64(len(units)) * uint64(unsafe.Sizeof(minic.NamedSource{}))
	objects, size = measure(func() func() { return intern(scan(body)) })
	t.Logf("resubmit: %d objects, %d bytes", objects, size)
	for i, u := range got {
		if unsafe.StringData(u.Name) != unsafe.StringData(first[i].Name) || unsafe.StringData(u.Src) != unsafe.StringData(first[i].Src) {
			t.Errorf("resubmit: unit %d (%s) is a copy, not the session's string", i, u.Name)
		}
	}
	if objects != 1 || size > 2*slice {
		t.Errorf("resubmit: the strings cost %d objects and %d bytes, want the slice of units (%d bytes) alone", objects, size, slice)
	}

	// One unit edited, after a request that sent the units unedited: its
	// source and the copy of its bytes as sent are the two strings made.
	edited := append([]minic.NamedSource(nil), units...)
	edited[1].Src += "\nvoid budget_probe() { }\n"
	editBody := unitsBody(t, edited)
	objects, size = measure(func() func() {
		intern(scan(body))()
		return intern(scan(editBody))
	})
	t.Logf("edit: %d objects, %d bytes", objects, size)
	if !reflect.DeepEqual(got, edited) {
		t.Fatal("the scanner read other units than the edit sent")
	}
	src := uint64(len(edited[1].Src))
	quoted, _ := json.Marshal(edited[1].Src)
	raw := uint64(len(quoted) - 2)
	if want := slice + src + raw; objects != 3 || size < src+raw || size > 2*want {
		t.Errorf("edit: the strings cost %d objects and %d bytes, want the slice (%d bytes), one source (%d) and its bytes as sent (%d)", objects, size, slice, src, raw)
	}
}

// BenchmarkDecodeRequest reads the r2k body of TestDecodeBudget as a first
// request, every unit unescaped and made a string; compare its MB/s with
// BenchmarkDecodeRequestReference's.
func BenchmarkDecodeRequest(b *testing.B) {
	body, _ := ladderBody(b, 60)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodeRequest(bytes.NewReader(body), new(AnalyzeRequest), new(tenant.Sent)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeResubmit reads the same body a second time through the
// tenant's memo of the first.
func BenchmarkDecodeResubmit(b *testing.B) {
	body, _ := ladderBody(b, 60)
	var sent tenant.Sent
	if err := decodeRequest(bytes.NewReader(body), new(AnalyzeRequest), &sent); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodeRequest(bytes.NewReader(body), new(AnalyzeRequest), &sent); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRequestReference(b *testing.B) {
	body, _ := ladderBody(b, 60)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodeRequestReference(bytes.NewReader(body), new(AnalyzeRequest)); err != nil {
			b.Fatal(err)
		}
	}
}
