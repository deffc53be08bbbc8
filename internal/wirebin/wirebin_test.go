package wirebin

import "testing"

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.Uvarint(0)
	w.Uvarint(1 << 40)
	w.Varint(-1)
	w.Int(-12345)
	w.I32(-1)
	w.I32(1<<31 - 1)
	w.U8(0xab)
	w.Bool(true)
	w.Bool(false)
	w.Str("")
	w.Str("hello, wire")
	for _, sym := range []string{"a", "", "bc", "a", "bc"} {
		w.Sym(sym)
	}

	r := NewReader(w.B)
	if got := r.Uvarint(); got != 0 {
		t.Errorf("uvarint: got %d", got)
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Errorf("uvarint: got %d", got)
	}
	if got := r.Varint(); got != -1 {
		t.Errorf("varint: got %d", got)
	}
	if got := r.Int(); got != -12345 {
		t.Errorf("int: got %d", got)
	}
	if got := r.I32(); got != -1 {
		t.Errorf("i32: got %d", got)
	}
	if got := r.I32(); got != 1<<31-1 {
		t.Errorf("i32: got %d", got)
	}
	if got := r.U8(); got != 0xab {
		t.Errorf("u8: got %#x", got)
	}
	if got := r.Bool(); !got {
		t.Errorf("bool: got false")
	}
	if got := r.Bool(); got {
		t.Errorf("bool: got true")
	}
	if got := r.Str(); got != "" {
		t.Errorf("str: got %q", got)
	}
	if got := r.Str(); got != "hello, wire" {
		t.Errorf("str: got %q", got)
	}
	for _, want := range []string{"a", "", "bc", "a", "bc"} {
		if got := r.Sym(); got != want {
			t.Errorf("sym: got %q, want %q", got, want)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatalf("err: %v", err)
	}
	if rest := r.Rest(); rest != 0 {
		t.Fatalf("rest: %d bytes unconsumed", rest)
	}
}

func TestTruncation(t *testing.T) {
	var w Writer
	w.Str("some payload that will be cut")
	w.I32(1 << 20)
	full := w.B
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.Str()
		r.I32()
		if r.Err() == nil {
			t.Fatalf("truncation at %d of %d not detected", cut, len(full))
		}
	}
}

// A corrupt length prefix must fail before allocating, not attempt a
// huge make().
func TestOversizedLength(t *testing.T) {
	var w Writer
	w.Uvarint(1 << 50)
	r := NewReader(w.B)
	if n := r.Len(); n != 0 || r.Err() == nil {
		t.Fatalf("oversized length accepted: n=%d err=%v", n, r.Err())
	}
}

// Sticky errors: after a failure every read returns zero values and the
// original error is preserved.
func TestStickyError(t *testing.T) {
	r := NewReader(nil)
	r.U8()
	first := r.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	if got := r.Str(); got != "" {
		t.Errorf("str after error: %q", got)
	}
	if r.Err() != first {
		t.Errorf("error replaced: %v", r.Err())
	}
}

// Frames are read through a Reader of their own: the outer Reader steps over
// a frame whatever its content, a frame starts with an empty symbol table,
// and a frame longer than the input is the outer Reader's error.
func TestFrames(t *testing.T) {
	var w Writer
	at := w.Begin()
	w.Sym("x")
	w.Sym("y")
	w.End(at)
	at = w.Begin()
	w.Sym("y") // index 0 again: the table does not outlive a frame
	w.End(at)
	w.Int(7)

	r := NewReader(w.B)
	first, second := r.Frame(), r.Frame()
	if got := r.Int(); got != 7 || r.Err() != nil || r.Rest() != 0 {
		t.Fatalf("after two frames: %d, %v, %d bytes left", got, r.Err(), r.Rest())
	}
	if first.Sym() != "x" || first.Sym() != "y" || first.Rest() != 0 || first.Err() != nil {
		t.Errorf("first frame: %v", first.Err())
	}
	first.U8() // past the frame's end, not into the next frame
	if first.Err() == nil || r.Err() != nil {
		t.Errorf("reading past a frame: frame error %v, outer error %v", first.Err(), r.Err())
	}
	if got := second.Sym(); got != "y" || second.Err() != nil {
		t.Errorf("second frame: %q, %v", got, second.Err())
	}

	undefined := NewReader([]byte{3}) // symbol index 2 of an empty table
	if undefined.Sym(); undefined.Err() == nil {
		t.Error("undefined symbol index accepted")
	}
	for cut := 0; cut < len(w.B)-1; cut++ {
		r := NewReader(w.B[:cut])
		r.Frame()
		r.Frame()
		r.Int()
		if r.Err() == nil {
			t.Fatalf("truncation at %d of %d not detected", cut, len(w.B))
		}
	}
}

// Raw hands back fixed-size fields as they lie in the input, and running out
// of input is the stream's error like any other.
func TestRaw(t *testing.T) {
	var w Writer
	w.B = append(w.B, 0xde, 0xad, 0xbe, 0xef)
	w.Int(-5)
	r := NewReader(w.B)
	if got := r.Raw(4); string(got) != "\xde\xad\xbe\xef" {
		t.Errorf("raw: got %x", got)
	}
	if got := r.Int(); got != -5 || r.Err() != nil || r.Rest() != 0 {
		t.Errorf("after raw: %d, %v, %d bytes left", got, r.Err(), r.Rest())
	}
	if got := r.Raw(0); len(got) != 0 || r.Err() != nil {
		t.Errorf("raw of nothing: %x, %v", got, r.Err())
	}
	if got := r.Raw(1); got != nil || r.Err() == nil {
		t.Errorf("raw past the end: %x, %v", got, r.Err())
	}
}
