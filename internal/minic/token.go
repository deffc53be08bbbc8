// Package minic implements the frontend for MiniC, the small C-like language
// this reproduction analyzes. MiniC matches the formal language of Pinpoint
// §3: integer and pointer values, assignments, binary/unary operations,
// k-level loads and stores, branches, calls, and returns. Loops are allowed
// in the surface syntax and are unrolled once during lowering, mirroring the
// paper's soundiness choices (§4.2).
package minic

import "fmt"

// TokKind enumerates lexical token kinds.
type TokKind uint8

const (
	TokEOF TokKind = iota
	TokIdent
	TokInt // integer literal

	// Keywords.
	TokKwInt
	TokKwBool
	TokKwVoid
	TokKwIf
	TokKwElse
	TokKwWhile
	TokKwFor
	TokKwStruct
	TokKwReturn
	TokKwTrue
	TokKwFalse
	TokKwNull

	// Punctuation and operators.
	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokSemi
	TokComma
	TokAssign // =
	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokPercent
	TokAmp    // &
	TokAndAnd // &&
	TokOrOr   // ||
	TokBang   // !
	TokEq     // ==
	TokNe     // !=
	TokLt
	TokLe
	TokGt
	TokGe
	TokArrow // ->
)

var tokNames = map[TokKind]string{
	TokEOF:      "EOF",
	TokIdent:    "identifier",
	TokInt:      "integer",
	TokKwInt:    "'int'",
	TokKwBool:   "'bool'",
	TokKwVoid:   "'void'",
	TokKwIf:     "'if'",
	TokKwElse:   "'else'",
	TokKwWhile:  "'while'",
	TokKwFor:    "'for'",
	TokKwStruct: "'struct'",
	TokKwReturn: "'return'",
	TokKwTrue:   "'true'",
	TokKwFalse:  "'false'",
	TokKwNull:   "'null'",
	TokLParen:   "'('",
	TokRParen:   "')'",
	TokLBrace:   "'{'",
	TokRBrace:   "'}'",
	TokSemi:     "';'",
	TokComma:    "','",
	TokAssign:   "'='",
	TokPlus:     "'+'",
	TokMinus:    "'-'",
	TokStar:     "'*'",
	TokSlash:    "'/'",
	TokPercent:  "'%'",
	TokAmp:      "'&'",
	TokAndAnd:   "'&&'",
	TokOrOr:     "'||'",
	TokBang:     "'!'",
	TokEq:       "'=='",
	TokNe:       "'!='",
	TokLt:       "'<'",
	TokLe:       "'<='",
	TokGt:       "'>'",
	TokGe:       "'>='",
	TokArrow:    "'->'",
}

func (k TokKind) String() string {
	if s, ok := tokNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokKind(%d)", int(k))
}

// keywords holds each keyword, as tokNames spells it, by its length and first
// letter, which tell the keywords apart: the lexer looks a word up without
// hashing it.
var keywords [7][26]Token

func init() {
	for k := TokKwInt; k <= TokKwNull; k++ {
		w := tokNames[k][1 : len(tokNames[k])-1]
		if keywords[len(w)][w[0]-'a'].Kind != 0 {
			panic("minic: two keywords of one length and first letter: " + w)
		}
		keywords[len(w)][w[0]-'a'] = Token{Kind: k, Lit: w}
	}
}

// Pos is a source position (1-based line and column) within a named file.
type Pos struct {
	File string
	Line int
	Col  int
}

func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is one lexical token with its line and column (32 bytes: it is
// copied through the parser's lookahead window once per token).
type Token struct {
	Lit string // identifier text or integer literal text
	// Line and Col are where the token starts (1-based); the file is the
	// lexer's, which the parser attaches where it makes a node's Pos.
	Line, Col int32
	Kind      TokKind
}

func (t Token) String() string {
	switch t.Kind {
	case TokIdent, TokInt:
		return fmt.Sprintf("%s(%s)", t.Kind, t.Lit)
	default:
		return t.Kind.String()
	}
}
