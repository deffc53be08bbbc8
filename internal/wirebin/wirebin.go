// Package wirebin provides a minimal append-style binary codec for the
// persistent artifact store.
//
// A build artifact is flat data — varints, strings, lists of dense IDs — and
// the per-package codecs (cond, seg, core's own) write and read it field by
// field, straight from and into the analysis objects: a length-prefixed
// layout decodes with one linear scan of the buffer, no reflection and no
// intermediate representation.
//
// Encoding conventions:
//   - ints and int32s are zig-zag varints (negative sentinels like -1 stay
//     one byte);
//   - strings and slices carry a uvarint length prefix;
//   - enums (uint8 kinds/ops/roles) are single raw bytes;
//   - a frame is a u32 byte count followed by that many bytes, read through
//     a Reader of its own, so a reader can step over a frame whose content
//     it rejects;
//   - a symbol is a string that repeats within a frame (type names, file
//     names, callee names): its first occurrence defines the next index of
//     the frame's table inline, later ones are the index alone;
//   - there is no embedded type information — readers must consume fields
//     in exactly the order writers appended them, and callers version the
//     overall stream.
//
// Readers are sticky-error: after the first malformed field every
// subsequent read returns a zero value, and Err reports the failure.
// Length prefixes are validated against the remaining input before any
// allocation, so corrupt or truncated data fails cleanly instead of
// attempting a huge allocation.
package wirebin

import (
	"encoding/binary"
	"fmt"
)

// Writer accumulates an encoded stream in B.
type Writer struct {
	B []byte
	// syms is the open frame's symbol table: 1 + the index of each symbol
	// written so far.
	syms map[string]uint64
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.B = binary.AppendUvarint(w.B, v) }

// Varint appends a signed (zig-zag) varint.
func (w *Writer) Varint(v int64) { w.B = binary.AppendVarint(w.B, v) }

// Int appends an int as a signed varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// I32 appends an int32 as a signed varint.
func (w *Writer) I32(v int32) { w.Varint(int64(v)) }

// U8 appends one raw byte (enum kinds, ops, roles).
func (w *Writer) U8(v uint8) { w.B = append(w.B, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.B = append(w.B, 1)
	} else {
		w.B = append(w.B, 0)
	}
}

// Str appends a length-prefixed string.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.B = append(w.B, s...)
}

// Sym appends a symbol: 0 for the empty string, else 1 + its index in the
// frame's table, followed by the string itself when this is the occurrence
// that defines the index.
func (w *Writer) Sym(s string) {
	if s == "" {
		w.Uvarint(0)
		return
	}
	if id, ok := w.syms[s]; ok {
		w.Uvarint(id)
		return
	}
	if w.syms == nil {
		w.syms = make(map[string]uint64)
	}
	id := uint64(len(w.syms)) + 1
	w.syms[s] = id
	w.Uvarint(id)
	w.Str(s)
}

// Begin opens a frame — its byte count is filled in by End — with an empty
// symbol table, and returns the offset End needs. Frames do not nest.
func (w *Writer) Begin() int {
	clear(w.syms)
	w.B = append(w.B, 0, 0, 0, 0)
	return len(w.B)
}

// End closes the frame Begin opened at start.
func (w *Writer) End(start int) {
	binary.LittleEndian.PutUint32(w.B[start-4:], uint32(len(w.B)-start))
}

// Reader consumes a stream produced by Writer. The zero Reader over a byte
// slice is ready to use; construct with NewReader.
type Reader struct {
	b    []byte
	off  int
	err  error
	syms []string // the symbols defined so far
}

// NewReader returns a Reader over b. The Reader does not copy b; strings
// are copied out as they are read, so b may be recycled afterwards.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Errorf returns the stream's error when it has one — everything read since
// is zeros, not content to blame — and the described error otherwise.
func (r *Reader) Errorf(format string, args ...any) error {
	if r.err != nil {
		return r.err
	}
	return fmt.Errorf(format, args...)
}

// Rest returns the number of unconsumed bytes.
func (r *Reader) Rest() int { return len(r.b) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wirebin: offset %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// Int reads an int.
func (r *Reader) Int() int { return int(r.Varint()) }

// I32 reads an int32.
func (r *Reader) I32() int32 {
	v := r.Varint()
	if int64(int32(v)) != v {
		r.fail("varint %d overflows int32", v)
		return 0
	}
	return int32(v)
}

// U8 reads one raw byte.
func (r *Reader) U8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("unexpected end of input")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Len reads a length prefix and validates it against the remaining input:
// each element of the encoded collection occupies at least one byte, so a
// length exceeding Rest can only be corruption, and rejecting it here
// keeps a flipped bit from turning into a multi-gigabyte allocation.
func (r *Reader) Len() int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.b)-r.off) {
		r.fail("length %d exceeds %d remaining bytes", v, len(r.b)-r.off)
		return 0
	}
	return int(v)
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.Len()
	if r.err != nil || n == 0 {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// Raw reads n bytes as they are — a fixed-size field such as a digest, which
// the writer appended to B directly. The slice aliases the input.
func (r *Reader) Raw(n int) []byte {
	if r.err == nil && len(r.b)-r.off < n {
		r.fail("unexpected end of input")
	}
	if r.err != nil {
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

// Sym reads a symbol. An index past the next one to be defined is an error.
func (r *Reader) Sym() string {
	id := r.Uvarint()
	switch {
	case r.err != nil || id == 0:
		return ""
	case id <= uint64(len(r.syms)):
		return r.syms[id-1]
	case id == uint64(len(r.syms))+1:
		s := r.Str()
		r.syms = append(r.syms, s)
		return s
	}
	r.fail("bad symbol index %d of %d", id-1, len(r.syms))
	return ""
}

// Frame reads a frame's byte count and returns a Reader over its content,
// leaving r just past it. Errors inside the frame are the frame Reader's,
// not r's; a count exceeding the input is r's, and the returned Reader is
// then empty.
func (r *Reader) Frame() *Reader {
	if r.err == nil && len(r.b)-r.off < 4 {
		r.fail("unexpected end of input")
	}
	if r.err != nil {
		return &Reader{err: r.err}
	}
	n := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	if uint64(n) > uint64(len(r.b)-r.off) {
		r.fail("frame of %d bytes exceeds %d remaining", n, len(r.b)-r.off)
		return &Reader{err: r.err}
	}
	r.off += int(n)
	return &Reader{b: r.b[r.off-int(n) : r.off]}
}
