package sqldb

import (
	"strings"
)

// tokKind classifies SQL tokens.
type tokKind int

const (
	tkEOF tokKind = iota
	tkIdent
	tkNumber
	tkString
	tkOp    // operators and punctuation
	tkParam // '?' placeholder
)

type token struct {
	kind tokKind
	text string // identifiers keep original case; matching is case-insensitive
	pos  int
}

// lexSQL tokenizes a statement. Comments (-- to end of line) are
// skipped. Double-quoted identifiers are supported for names that
// would otherwise collide with keywords.
func lexSQL(src string) ([]token, error) {
	// A statement averages about five bytes of text per token: room for
	// one per four saves the appends' copies.
	toks := make([]token, 0, len(src)/4+2)
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c >= '0' && c <= '9' || c == '.' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9':
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			if j < len(src) && (src[j] == 'e' || src[j] == 'E') {
				k := j + 1
				if k < len(src) && (src[k] == '+' || src[k] == '-') {
					k++
				}
				start := k
				for k < len(src) && src[k] >= '0' && src[k] <= '9' {
					k++
				}
				if k > start {
					j = k
				}
			}
			toks = append(toks, token{tkNumber, src[i:j], i})
			i = j
		case c == '\'':
			var sb strings.Builder
			j := i + 1
			closed := false
			for j < len(src) {
				if src[j] == '\'' {
					if j+1 < len(src) && src[j+1] == '\'' {
						sb.WriteByte('\'')
						j += 2
						continue
					}
					closed = true
					j++
					break
				}
				sb.WriteByte(src[j])
				j++
			}
			if !closed {
				return nil, errorf("unterminated string literal at offset %d", i)
			}
			toks = append(toks, token{tkString, sb.String(), i})
			i = j
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				j++
			}
			if j >= len(src) {
				return nil, errorf("unterminated quoted identifier at offset %d", i)
			}
			toks = append(toks, token{tkIdent, src[i+1 : j], i})
			i = j + 1
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			j := i
			for j < len(src) && (src[j] == '_' || src[j] >= 'a' && src[j] <= 'z' ||
				src[j] >= 'A' && src[j] <= 'Z' || src[j] >= '0' && src[j] <= '9') {
				j++
			}
			toks = append(toks, token{tkIdent, src[i:j], i})
			i = j
		case c == '?':
			toks = append(toks, token{tkParam, "?", i})
			i++
		default:
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=", "==", "||":
				toks = append(toks, token{tkOp, two, i})
				i += 2
				continue
			}
			switch c {
			case '+', '-', '*', '/', '%', '(', ')', ',', '=', '<', '>', ';', '.':
				toks = append(toks, token{tkOp, string(c), i})
				i++
			default:
				return nil, errorf("unexpected character %q at offset %d", string(c), i)
			}
		}
	}
	toks = append(toks, token{tkEOF, "", len(src)})
	return toks, nil
}

// keyword reports whether the token is the given keyword
// (case-insensitive identifier match).
func (t token) keyword(kw string) bool {
	return t.kind == tkIdent && strings.EqualFold(t.text, kw)
}
