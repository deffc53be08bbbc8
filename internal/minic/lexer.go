package minic

import "fmt"

// Lexer turns MiniC source text into a token stream. It supports // line
// comments and /* block */ comments and tracks 1-based line/column positions.
type Lexer struct {
	file string
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a Lexer over src, reporting positions against file.
func NewLexer(file, src string) *Lexer {
	return &Lexer{file: file, src: src, line: 1, col: 1}
}

// Error is a lexical or syntactic error with a source position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func (l *Lexer) pos() Pos { return Pos{File: l.file, Line: l.line, Col: l.col} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return &Error{Pos: start, Msg: "unterminated block comment"}
			}
		default:
			return nil
		}
	}
	return nil
}

func isLetter(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token, or an error for invalid input. At end of
// input it returns a TokEOF token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	line, col := int32(l.line), int32(l.col)
	tok := func(k TokKind, lit string) (Token, error) { return Token{Kind: k, Lit: lit, Line: line, Col: col}, nil }
	if l.off >= len(l.src) {
		return tok(TokEOF, "")
	}
	c := l.peek()
	switch {
	case isLetter(c):
		start := l.off
		for l.off < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		word := l.src[start:l.off]
		if n, c := len(word), word[0]-'a'; n < len(keywords) && c < 26 && keywords[n][c].Lit == word {
			return tok(keywords[n][c].Kind, word)
		}
		return tok(TokIdent, word)
	case isDigit(c):
		start := l.off
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		return tok(TokInt, l.src[start:l.off])
	}
	p := l.pos()
	l.advance()
	simple := func(k TokKind) (Token, error) { return tok(k, "") }
	two := func(next byte, k2, k1 TokKind) (Token, error) {
		if l.peek() == next {
			l.advance()
			return tok(k2, "")
		}
		return tok(k1, "")
	}
	switch c {
	case '(':
		return simple(TokLParen)
	case ')':
		return simple(TokRParen)
	case '{':
		return simple(TokLBrace)
	case '}':
		return simple(TokRBrace)
	case ';':
		return simple(TokSemi)
	case ',':
		return simple(TokComma)
	case '+':
		return simple(TokPlus)
	case '-':
		return two('>', TokArrow, TokMinus)
	case '*':
		return simple(TokStar)
	case '/':
		return simple(TokSlash)
	case '%':
		return simple(TokPercent)
	case '=':
		return two('=', TokEq, TokAssign)
	case '!':
		return two('=', TokNe, TokBang)
	case '<':
		return two('=', TokLe, TokLt)
	case '>':
		return two('=', TokGe, TokGt)
	case '&':
		return two('&', TokAndAnd, TokAmp)
	case '|':
		if l.peek() == '|' {
			l.advance()
			return tok(TokOrOr, "")
		}
		return Token{}, &Error{Pos: p, Msg: "unexpected character '|'"}
	}
	return Token{}, &Error{Pos: p, Msg: fmt.Sprintf("unexpected character %q", c)}
}
