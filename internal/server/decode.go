package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/tenant"
)

// requestBody reads one AnalyzeRequest object from a request body in a single
// pass over a pooled buffer. It accepts what a json.Decoder with
// DisallowUnknownFields accepts:
//
//   - an unknown field, of the request or of a unit, is an error;
//   - field names match as encoding/json folds them (strings.EqualFold);
//   - the last of a repeated field counts, and null leaves a string as it was;
//   - strings unescape as encoding/json unescapes them: a surrogate escape
//     without its partner and a byte that is not UTF-8 both become U+FFFD;
//   - bytes after the object's closing brace are not looked at, so a read
//     error counts only when the scanner still needs bytes;
//   - the fields other than units are only delimited here and handed to
//     json.Unmarshal, which keeps their typing rules encoding/json's.
//
// The buffer is filled on demand. The names of the units are unescaped where
// they lie and kept as views into it, valid until release. Their sources are
// only delimited: sources unescapes those the tenant's last request did not
// send alike, and so finds the errors in them.
type requestBody struct {
	r   io.Reader
	err error   // r's error, held back until a byte that was not read is needed
	mem *[]byte // the pooled buffer; nil once released
	buf []byte  // the body as far as it was read
	pos int     // the scanner's place in buf
	// units is the units field: nil when it was absent or null.
	units []unitView
}

// unitView is one element of units.
type unitView struct {
	name view
	src  span
	// raw is a copy of src as sent, made by sources before it unescapes src.
	raw []byte
}

// span is a string of the body as sent, inside its quotes: buf[off:end].
type span struct{ off, end int }

// view is a string of the body unescaped: buf[off:end], or own where the
// string could not be unescaped in place because it grew.
type view struct {
	span
	own []byte
}

func (b *requestBody) bytes(v view) []byte {
	if v.own != nil {
		return v.own
	}
	return b.buf[v.off:v.end]
}

var bodyBufs sync.Pool // of *[]byte

// minBodyBuf is the least a buffer grows to: a body of unknown length
// starts there and doubles.
const minBodyBuf = 64 << 10

// openBody readies a scanner over r. size is the body's length where the
// client announced one the server accepts, else 0; a buffer of that capacity
// is never moved while an honest body is read.
func openBody(r io.Reader, size int64) *requestBody {
	mem, _ := bodyBufs.Get().(*[]byte)
	if mem == nil {
		mem = new([]byte)
	}
	fit(mem, size)
	return &requestBody{r: r, mem: mem, buf: (*mem)[:0]}
}

// fit gives a buffer room for size bytes. One it must replace gets a quarter
// more, so that the next body of a program that grows an edit at a time
// fits too.
func fit(mem *[]byte, size int64) {
	if int64(cap(*mem)) < size {
		*mem = make([]byte, 0, size+size/4)
	}
}

// release returns the buffer to the pool and with it every view. A second
// call does nothing.
func (b *requestBody) release() {
	if b.mem == nil {
		return
	}
	*b.mem = b.buf[:0]
	bodyBufs.Put(b.mem)
	b.mem, b.buf, b.units = nil, nil, nil
}

// sources turns the units into the strings sess.Update takes, and releases
// the buffer. A unit that the tenant's last request sent alike, name and
// bytes, is handed the source recorded for it in sent. Any other is
// unescaped, which is where an error in its source is found, turned into
// strings by sess.Source (the session's own where it holds the same bytes),
// and recorded with a copy of its bytes as sent. sent is changed only when
// every unit decodes. The count returned is of the units unescaped.
func (b *requestBody) sources(sess *core.Session, sent *tenant.Sent) ([]minic.NamedSource, int, error) {
	defer b.release()
	units := make([]minic.NamedSource, len(b.units))
	unescaped := 0
	for i := range b.units {
		u := &b.units[i]
		name, raw := b.bytes(u.name), b.buf[u.src.off:u.src.end]
		if src, ok := sent.Lookup(name, raw); ok {
			units[i] = src
			continue
		}
		u.raw = bytes.Clone(raw) // not nil, raw being a slice of buf
		src, err := b.unescape(u.src)
		if err != nil {
			return nil, 0, err
		}
		units[i] = sess.Source(name, b.bytes(src))
		unescaped++
	}
	for i, u := range b.units {
		sent.Record(units[i], u.raw)
	}
	sent.Done()
	return units, unescaped, nil
}

// fill reads at least one more byte of the body, or returns the reader's
// error. Bytes and an error that arrive together are both kept: the error
// is for the call that finds the bytes used up.
func (b *requestBody) fill() error {
	if b.err != nil {
		return b.err
	}
	if len(b.buf) == cap(b.buf) {
		grown := make([]byte, len(b.buf), max(2*cap(b.buf), minBodyBuf))
		copy(grown, b.buf)
		b.buf = grown
	}
	for {
		n, err := b.r.Read(b.buf[len(b.buf):cap(b.buf)])
		b.buf = b.buf[:len(b.buf)+n]
		b.err = err
		if n > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// requestFieldNames are AnalyzeRequest's JSON names, by field index.
var requestFieldNames = func() [][]byte {
	t := reflect.TypeOf(AnalyzeRequest{})
	names := make([][]byte, t.NumField())
	for i := range names {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		names[i] = []byte(name)
	}
	return names
}()

// decode reads the request object: the units into b.units, every other
// field into req (req.Units is left alone). A body that ends where more is
// needed is io.ErrUnexpectedEOF.
func (b *requestBody) decode(req *AnalyzeRequest) error {
	err := b.request(reflect.ValueOf(req).Elem())
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

func (b *requestBody) request(fields reflect.Value) error {
	switch c, err := b.next(); {
	case err != nil:
		return err
	case c == 'n':
		// null leaves the request as it is. encoding/json takes a literal
		// to end at the byte after it or at the end of the input, and
		// whichever it is must be read.
		if err := b.null(); err != nil {
			return err
		}
		if err := b.more(); err != nil && err != io.EOF {
			return err
		}
		return nil
	case c != '{':
		return fmt.Errorf("json: %q where a request object should start", c)
	}
	return b.object(func(key []byte) error {
		for i, name := range requestFieldNames {
			if !bytes.EqualFold(key, name) {
				continue
			}
			dst := fields.Field(i).Addr().Interface()
			if _, ok := dst.(*[]UnitJSON); ok {
				return b.unitArray()
			}
			raw, err := b.value()
			if err != nil {
				return err
			}
			return json.Unmarshal(raw, dst)
		}
		return fmt.Errorf("json: unknown field %q", key)
	})
}

// unitArray reads the value of the units field: an array of unit objects
// and nulls, or null. The sources of units it replaces are unescaped for
// their errors alone.
func (b *requestBody) unitArray() error {
	for _, u := range b.units {
		if _, err := b.unescape(u.src); err != nil {
			return err
		}
	}
	switch c, err := b.next(); {
	case err != nil:
		return err
	case c == 'n':
		b.units = nil
		return b.null()
	case c != '[':
		return fmt.Errorf("json: units: %q where an array should start", c)
	}
	b.units = make([]unitView, 0, 16)
	c, err := b.next()
	if err != nil || c == ']' {
		return err
	}
	for {
		var u unitView
		switch c {
		case '{':
			err = b.object(func(key []byte) error {
				switch {
				case bytes.EqualFold(key, []byte("name")):
					return b.stringOrNull(func() (err error) {
						u.name, err = b.string()
						return err
					})
				case bytes.EqualFold(key, []byte("src")):
					return b.stringOrNull(func() error {
						// A source that this one replaces is
						// unescaped for its errors alone.
						if _, err := b.unescape(u.src); err != nil {
							return err
						}
						var err error
						u.src, err = b.delimit()
						return err
					})
				}
				return fmt.Errorf("json: unknown field %q", key)
			})
		case 'n':
			err = b.null()
		default:
			err = fmt.Errorf("json: units[%d]: %q where a unit object should start", len(b.units), c)
		}
		if err != nil {
			return err
		}
		b.units = append(b.units, u)
		switch c, err = b.next(); {
		case err != nil || c == ']':
			return err
		case c != ',':
			return fmt.Errorf("json: invalid character %q after array element", c)
		}
		if c, err = b.next(); err != nil {
			return err
		}
	}
}

// object reads the members of an object whose opening brace was consumed,
// through its closing brace. member is called with each unescaped key, the
// scanner before the member's value, and consumes that value.
func (b *requestBody) object(member func(key []byte) error) error {
	c, err := b.next()
	if err != nil || c == '}' {
		return err
	}
	for {
		if c != '"' {
			return fmt.Errorf("json: invalid character %q looking for beginning of object key string", c)
		}
		key, err := b.string()
		if err != nil {
			return err
		}
		switch c, err = b.next(); {
		case err != nil:
			return err
		case c != ':':
			return fmt.Errorf("json: invalid character %q after object key", c)
		}
		if err := member(b.bytes(key)); err != nil {
			return err
		}
		switch c, err = b.next(); {
		case err != nil || c == '}':
			return err
		case c != ',':
			return fmt.Errorf("json: invalid character %q after object key:value pair", c)
		}
		if c, err = b.next(); err != nil {
			return err
		}
	}
}

// next consumes white space and the byte after it, which it returns.
func (b *requestBody) next() (byte, error) {
	for {
		for b.pos < len(b.buf) {
			c := b.buf[b.pos]
			b.pos++
			if c != ' ' && c != '\n' && c != '\t' && c != '\r' {
				return c, nil
			}
		}
		if err := b.fill(); err != nil {
			return 0, err
		}
	}
}

// more makes sure of a byte at b.pos.
func (b *requestBody) more() error {
	if b.pos < len(b.buf) {
		return nil
	}
	return b.fill()
}

// null consumes the rest of a null whose n was consumed.
func (b *requestBody) null() error {
	for _, want := range []byte("ull") {
		if err := b.more(); err != nil {
			return err
		}
		if c := b.buf[b.pos]; c != want {
			return fmt.Errorf("json: invalid character %q in literal null", c)
		}
		b.pos++
	}
	return nil
}

// stringOrNull reads a value into a string field: a string sets it, read
// taking it from after its opening quote; null leaves it; anything else is
// of the wrong type.
func (b *requestBody) stringOrNull(read func() error) error {
	switch c, err := b.next(); {
	case err != nil:
		return err
	case c == '"':
		return read()
	case c == 'n':
		return b.null()
	default:
		return fmt.Errorf("json: %q where a string should start", c)
	}
}

// delimit finds the closing quote of the string that starts at b.pos, the
// first quote after it that an even number of backslashes precedes (an odd
// number escapes it), leaves b.pos after it and returns the string as sent.
func (b *requestBody) delimit() (span, error) {
	start, i := b.pos, b.pos
	for {
		q := bytes.IndexByte(b.buf[i:], '"')
		if q < 0 {
			i = len(b.buf)
			if err := b.fill(); err != nil {
				return span{}, err
			}
			continue
		}
		i += q
		n := 0
		for n < i-start && b.buf[i-1-n] == '\\' {
			n++
		}
		if n%2 == 0 {
			b.pos = i + 1
			return span{start, i}, nil
		}
		i++
	}
}

// string reads the string whose opening quote was consumed and unescapes it.
func (b *requestBody) string() (view, error) {
	s, err := b.delimit()
	if err != nil {
		return view{}, err
	}
	return b.unescape(s)
}

// plain marks the bytes a string holds as they are: ASCII but for the
// quote, the backslash and the control characters.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescape unescapes a delimited string where it lies, which no escape and
// no UTF-8 sequence outgrows; a control character and a malformed escape are
// errors. Only a byte that is not UTF-8 outgrows it, becoming the three of
// U+FFFD: a string with one is left to encoding/json, and the view owns the
// result.
func (b *requestBody) unescape(s span) (view, error) {
	raw := b.buf[s.off:s.end]
	escaped, wide := false, false
	for i := 0; ; {
		for i < len(raw) && plain[raw[i]] {
			i++
		}
		if i >= len(raw) {
			break
		}
		switch c := raw[i]; {
		case c == '\\':
			escaped = true
			i += 2
		case c < ' ':
			return view{}, fmt.Errorf("json: invalid character %q in string literal", c)
		default:
			wide = true
			i++
		}
	}
	if wide && !utf8.Valid(raw) {
		var str string
		if err := json.Unmarshal(b.buf[s.off-1:s.end+1], &str); err != nil {
			return view{}, err
		}
		return view{own: []byte(str)}, nil
	}
	if escaped {
		n, ok := unquote(raw)
		if !ok {
			return view{}, fmt.Errorf("json: invalid escape in string literal")
		}
		s.end = s.off + n
	}
	return view{span: s}, nil
}

// unquote unescapes in place the inside of a JSON string that is valid
// UTF-8 and has a byte after every backslash, and returns its new length;
// false at a malformed escape. A \u escape of a surrogate half takes the
// next escape when that is the other half, and is U+FFFD when it is not,
// as in encoding/json.
func unquote(s []byte) (int, bool) {
	w := bytes.IndexByte(s, '\\')
	if w < 0 {
		return len(s), true
	}
	for r := w; r < len(s); {
		if s[r] != '\\' {
			n := bytes.IndexByte(s[r:], '\\')
			if n < 0 {
				n = len(s) - r
			}
			w += copy(s[w:], s[r:r+n])
			r += n
			continue
		}
		c := s[r+1]
		r += 2
		switch c {
		case '"', '\\', '/':
		case 'b':
			c = '\b'
		case 'f':
			c = '\f'
		case 'n':
			c = '\n'
		case 'r':
			c = '\r'
		case 't':
			c = '\t'
		case 'u':
			rr := hex4(s[r:])
			if rr < 0 {
				return 0, false
			}
			r += 4
			if utf16.IsSurrogate(rr) {
				var lo rune = -1
				if len(s)-r >= 6 && s[r] == '\\' && s[r+1] == 'u' {
					lo = hex4(s[r+2:])
				}
				if rr = utf16.DecodeRune(rr, lo); rr != unicode.ReplacementChar {
					r += 6
				}
			}
			w += utf8.EncodeRune(s[w:], rr)
			continue
		default:
			return 0, false
		}
		s[w] = c
		w++
	}
	return w, true
}

// hex4 is the value of the four hex digits s starts with, or -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// value delimits the next value without judging it — a string by its
// quotes, an array or object by counting brackets outside strings, anything
// else up to white space or punctuation — and returns its bytes, which
// json.Unmarshal then holds to the grammar.
func (b *requestBody) value() ([]byte, error) {
	c, err := b.next()
	if err != nil {
		return nil, err
	}
	start := b.pos - 1
	switch c {
	case '"':
		_, err = b.delimit()
	case '{', '[':
		for depth := 1; depth > 0 && err == nil; {
			if err = b.more(); err != nil {
				break
			}
			c = b.buf[b.pos]
			b.pos++
			switch c {
			case '"':
				_, err = b.delimit()
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
		}
	default:
		for err = b.more(); err == nil && strings.IndexByte(",}] \n\t\r", b.buf[b.pos]) < 0; err = b.more() {
			b.pos++
		}
	}
	if err != nil {
		return nil, err
	}
	return b.buf[start:b.pos], nil
}
