package dsl

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokPunct // single or double rune punctuation
)

// A token is an identifier, a number or punctuation; its text is a slice of
// the source.
type token struct {
	kind tokenKind
	text string
	pos  Pos
}

// lexer walks the source by byte offset, decoding a rune only at a non-ASCII
// byte. line:col is the position of the byte at i; col counts runes.
type lexer struct {
	src       string
	i         int
	line, col int
}

// lex tokenizes a .mac source, stripping // and /* */ comments.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1, col: 1}
	// The bundled specs hold one token per five to eight bytes.
	toks := make([]token, 0, len(src)/4+1)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func (l *lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

// moveTo advances to byte offset j, counting the lines and runes it passes.
func (l *lexer) moveTo(j int) {
	s := l.src[l.i:j]
	if k := strings.LastIndexByte(s, '\n'); k >= 0 {
		l.line += strings.Count(s, "\n")
		l.col = 1
		s = s[k+1:]
	}
	l.col += utf8.RuneCountInString(s)
	l.i = j
}

// runeAt decodes the rune at byte offset i, and its width.
func (l *lexer) runeAt(i int) (rune, int) {
	if c := l.src[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[i:])
}

// span advances past the runes for which in returns true.
func (l *lexer) span(in func(rune) bool) {
	for l.i < len(l.src) {
		r, n := l.runeAt(l.i)
		if !in(r) {
			return
		}
		l.i += n
		l.col++
	}
}

func isIdentRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }

func isNumberRune(r rune) bool {
	return unicode.IsDigit(r) || r == '.' || r == 'x' || r >= 'a' && r <= 'f' || r >= 'A' && r <= 'F'
}

func (l *lexer) next() (token, error) {
	for l.i < len(l.src) {
		switch rest := l.src[l.i:]; {
		case rest[0] == '\n':
			l.i, l.line, l.col = l.i+1, l.line+1, 1
		case rest[0] == ' ' || rest[0] == '\t' || rest[0] == '\r':
			l.i, l.col = l.i+1, l.col+1
		case strings.HasPrefix(rest, "//"):
			end := strings.IndexByte(rest, '\n')
			if end < 0 {
				end = len(rest)
			}
			l.moveTo(l.i + end)
		case strings.HasPrefix(rest, "/*"):
			end := strings.Index(rest[2:], "*/")
			if end < 0 {
				return token{}, &Error{Pos: l.pos(), Msg: "unterminated block comment"}
			}
			l.moveTo(l.i + 2 + end + 2)
		default:
			return l.token()
		}
	}
	return token{kind: tokEOF, pos: l.pos()}, nil
}

// token reads the token that starts at l.i.
func (l *lexer) token() (token, error) {
	p, start := l.pos(), l.i
	r, _ := l.runeAt(l.i)
	switch {
	case unicode.IsLetter(r) || r == '_':
		l.span(isIdentRune)
		return token{kind: tokIdent, text: l.src[start:l.i], pos: p}, nil
	case unicode.IsDigit(r):
		l.span(isNumberRune)
		return token{kind: tokNumber, text: l.src[start:l.i], pos: p}, nil
	}
	// Two-rune operators first.
	if len(l.src)-start >= 2 {
		switch two := l.src[start : start+2]; two {
		case "==", "!=", "<=", ">=", "&&", "||", "->":
			l.i, l.col = start+2, l.col+2
			return token{kind: tokPunct, text: two, pos: p}, nil
		}
	}
	if strings.ContainsRune("{}()[];,=!|<>+-*/%.&", r) {
		l.i, l.col = start+1, l.col+1
		return token{kind: tokPunct, text: l.src[start:l.i], pos: p}, nil
	}
	return token{}, &Error{Pos: p, Msg: fmt.Sprintf("unexpected character %q", r)}
}
