package detect

import (
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends r's encoding — the bytes encoding/json's Marshal writes
// for r, provenance included — to dst. It spends no reflection and, into a
// buffer with room, no allocation, which is what serving a program's reports
// on every request asks of it.
func (r *JSONReport) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"checker":`...)
	dst = appendJSONString(dst, r.Checker)
	if r.Kind != "" {
		dst = appendJSONString(append(dst, `,"kind":`...), r.Kind)
	}
	dst = appendJSONString(append(dst, `,"sourceFile":`...), r.SourceFile)
	dst = strconv.AppendInt(append(dst, `,"sourceLine":`...), int64(r.SourceLine), 10)
	dst = appendJSONString(append(dst, `,"sourceFunc":`...), r.SourceFunc)
	if r.SinkFile != "" {
		dst = appendJSONString(append(dst, `,"sinkFile":`...), r.SinkFile)
	}
	if r.SinkLine != 0 {
		dst = strconv.AppendInt(append(dst, `,"sinkLine":`...), int64(r.SinkLine), 10)
	}
	if r.SinkFunc != "" {
		dst = appendJSONString(append(dst, `,"sinkFunc":`...), r.SinkFunc)
	}
	if r.PathLen != 0 {
		dst = strconv.AppendInt(append(dst, `,"pathLen":`...), int64(r.PathLen), 10)
	}
	if r.Contexts != 0 {
		dst = strconv.AppendInt(append(dst, `,"contexts":`...), int64(r.Contexts), 10)
	}
	if len(r.Witness) > 0 {
		dst = append(dst, `,"witness":[`...)
		for i, w := range r.Witness {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, w)
		}
		dst = append(dst, ']')
	}
	if p := r.Provenance; p != nil {
		dst = append(dst, `,"provenance":{`...)
		if len(p.Hops) > 0 {
			dst = append(dst, `"hops":[`...)
			for i := range p.Hops {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = p.Hops[i].appendJSON(dst)
			}
			dst = append(dst, "],"...)
		}
		dst = strconv.AppendInt(append(dst, `"condTerms":`...), int64(p.CondTerms), 10)
		dst = appendJSONString(append(dst, `,"verdictSource":`...), p.VerdictSource)
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

func (h *JSONHop) appendJSON(dst []byte) []byte {
	dst = strconv.AppendInt(append(dst, `{"ctx":`...), int64(h.Ctx), 10)
	if h.Func != "" {
		dst = appendJSONString(append(dst, `,"func":`...), h.Func)
	}
	dst = appendJSONString(append(dst, `,"node":`...), h.Node)
	if h.File != "" {
		dst = appendJSONString(append(dst, `,"file":`...), h.File)
	}
	if h.Line != 0 {
		dst = strconv.AppendInt(append(dst, `,"line":`...), int64(h.Line), 10)
	}
	return append(dst, '}')
}

// AppendJSONReports appends the JSON array of rs, as encoding/json's Marshal
// writes it: "[]" for none.
func AppendJSONReports(dst []byte, rs []JSONReport) []byte {
	dst = append(dst, '[')
	for i := range rs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = rs[i].AppendJSON(dst)
	}
	return append(dst, ']')
}

// appendJSONString appends s quoted as encoding/json quotes it with HTML
// escaping on (its default): <, > and & as \u escapes, the line and paragraph
// separators U+2028 and U+2029 escaped, control bytes as short escapes where
// JSON has one, and each byte of invalid UTF-8 as U+FFFD.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
