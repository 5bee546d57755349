package lang

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Surface syntax for the agnostic language — the .pol analogue of Reach's
// index.rsh (§2.9.3). The grammar is small and LL(1):
//
//	contract "pol-report" {
//	  global position: Bytes
//	  map easy_map: UInt -> Bytes
//
//	  ctor(position: Bytes, did: UInt, reward: UInt) {
//	    set position = position
//	    easy_map[did] = "init"
//	  }
//
//	  api insert_data(data: Bytes, did: UInt): UInt {
//	    assume(availableSits > 0, "contract is full")
//	    easy_map[did] = data
//	    return availableSits
//	  }
//
//	  api insert_money(money: UInt): UInt pay(money) { ... }
//
//	  view getReward: UInt = reward
//	}
//
// See ParseSource for the entry point.

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // single/multi-char operators and delimiters
)

type token struct {
	kind tokenKind
	text string
	num  uint64
	str  string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("string %q", t.str)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lexer splits source into tokens. `//` starts a line comment.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

var multiCharOps = []string{"->", "==", "!=", "<=", ">=", "&&", "||", "++"}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

// ErrSyntax reports source text ParseSource cannot lex or parse.
var ErrSyntax = errors.New("lang: syntax error")

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("%w: %d:%d: %s", ErrSyntax, l.line, l.col, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.pos++
			l.line++
			l.col = 1
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
			l.col++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto tokenStart
		}
	}
	return token{kind: tokEOF, line: l.line, col: l.col}, nil

tokenStart:
	startLine, startCol := l.line, l.col
	c := l.src[l.pos]

	if unicode.IsLetter(rune(c)) || c == '_' {
		start := l.pos
		for l.pos < len(l.src) {
			r := rune(l.src[l.pos])
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
				break
			}
			l.pos++
			l.col++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], line: startLine, col: startCol}, nil
	}

	if unicode.IsDigit(rune(c)) {
		start := l.pos
		for l.pos < len(l.src) && (unicode.IsDigit(rune(l.src[l.pos])) || l.src[l.pos] == '_') {
			l.pos++
			l.col++
		}
		text := strings.ReplaceAll(l.src[start:l.pos], "_", "")
		n, err := strconv.ParseUint(text, 10, 64)
		if err != nil {
			return token{}, l.errf("bad number %q: %v", text, err)
		}
		return token{kind: tokNumber, text: text, num: n, line: startLine, col: startCol}, nil
	}

	if c == '"' {
		end := l.pos + 1
		for end < len(l.src) {
			if l.src[end] == '\\' {
				end += 2
				continue
			}
			if l.src[end] == '"' {
				break
			}
			if l.src[end] == '\n' {
				return token{}, l.errf("unterminated string")
			}
			end++
		}
		if end >= len(l.src) {
			return token{}, l.errf("unterminated string")
		}
		raw := l.src[l.pos : end+1]
		s, err := strconv.Unquote(raw)
		if err != nil {
			return token{}, l.errf("bad string literal %s: %v", raw, err)
		}
		l.col += end + 1 - l.pos
		l.pos = end + 1
		return token{kind: tokString, text: raw, str: s, line: startLine, col: startCol}, nil
	}

	for _, op := range multiCharOps {
		if strings.HasPrefix(l.src[l.pos:], op) {
			l.pos += len(op)
			l.col += len(op)
			return token{kind: tokPunct, text: op, line: startLine, col: startCol}, nil
		}
	}
	if strings.ContainsRune("(){}[]:,=<>+-*/%!", rune(c)) {
		l.pos++
		l.col++
		return token{kind: tokPunct, text: string(c), line: startLine, col: startCol}, nil
	}
	return token{}, l.errf("unexpected character %q", c)
}

// lexAll tokenizes the whole input.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
