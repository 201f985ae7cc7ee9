// Package expr is the front end of perfbase's expression language, the
// syntax of derived parameters (paper §3.2) and of the "eval" query
// operator (§3.3.2). Compile parses an expression and renders it as an
// expression of the SQL engine (internal/sqldb), which types and
// evaluates it like any other: sqldb.CompileExpr over one row in
// memory, a statement over the rows of a table. The language has no
// evaluator of its own.
//
// Grammar (precedence climbing, loosest first):
//
//	expr    = or
//	or      = and { ("or"  | "||") and }
//	and     = not { ("and" | "&&") not }
//	not     = [ "not" | "!" ] cmp
//	cmp     = sum [ ("==" | "=" | "!=" | "<>" | "<" | "<=" | ">" | ">=") sum ]
//	sum     = term { ("+" | "-") term }
//	term    = unary { ("*" | "/" | "%") unary }
//	unary   = [ "-" | "+" ] power
//	power   = atom [ "^" unary ]
//	atom    = number | string | "true" | "false" | "null" | ident
//	        | ident "(" [ expr { "," expr } ] ")" | "(" expr ")"
//
// Lowering, with every operator parenthesised so that the engine's
// precedence never applies:
//
//	a ^ b, pow(a, b)     POWER(a, b)
//	and &&, or ||, not !  AND, OR, NOT
//	== =, != <>          =, <>
//	min, max             LEAST, GREATEST
//	int, float           CAST(a AS INTEGER), CAST(a AS FLOAT)
//	log                  LN
//	if(c, a, b)          IF(c, a, b)
//	literal              value.Value.SQL(); null is CAST(NULL AS FLOAT)
//	variable             "name"
package expr

import (
	"fmt"
	"strings"

	"perfbase/internal/value"
)

// Expr is a compiled expression.
type Expr struct {
	sql  string
	vars []string
}

// Compile parses the expression source and renders it for the SQL
// engine. An unknown function or a wrong argument count is an error
// here, as is any syntax error.
func Compile(src string) (*Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	sql, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("expr: trailing input %q in %q", p.toks[p.pos].text, src)
	}
	return &Expr{sql: sql, vars: p.vars}, nil
}

// SQL returns the expression in the SQL engine's expression grammar.
func (e *Expr) SQL() string { return e.sql }

// Variables returns the names of the variables the expression reads, in
// first-use order, each once. Names are case-insensitive, as the
// engine resolves them.
func (e *Expr) Variables() []string { return e.vars }

// function is how one function of the language lowers: the engine's
// function (or the type CAST converts to) and the argument count, -1
// for one or more.
type function struct {
	sql   string
	arity int
	cast  bool
}

var functions = map[string]function{
	"abs": {"ABS", 1, false}, "sqrt": {"SQRT", 1, false}, "exp": {"EXP", 1, false},
	"log": {"LN", 1, false}, "log2": {"LOG2", 1, false}, "log10": {"LOG10", 1, false},
	"floor": {"FLOOR", 1, false}, "ceil": {"CEIL", 1, false}, "round": {"ROUND", 1, false},
	"sin": {"SIN", 1, false}, "cos": {"COS", 1, false}, "tan": {"TAN", 1, false},
	"min": {"LEAST", -1, false}, "max": {"GREATEST", -1, false},
	"pow": {"POWER", 2, false}, "if": {"IF", 3, false},
	"int": {"INTEGER", 1, true}, "float": {"FLOAT", 1, true},
}

// call renders a call of the function name.
func call(name string, args []string) (string, error) {
	f, ok := functions[name]
	switch {
	case !ok:
		return "", fmt.Errorf("expr: unknown function %q", name)
	case f.arity < 0 && len(args) == 0:
		return "", fmt.Errorf("expr: %s needs at least one argument", name)
	case f.arity >= 0 && len(args) != f.arity:
		return "", fmt.Errorf("expr: %s expects %d argument(s), got %d", name, f.arity, len(args))
	case f.cast:
		return "CAST(" + args[0] + " AS " + f.sql + ")", nil
	}
	return f.sql + "(" + strings.Join(args, ", ") + ")", nil
}

// literal renders a literal so that the engine reads back the same
// value of the same type: a float whose text looks like an integer
// gets a fraction, and a NULL its type.
func literal(v value.Value) string {
	if v.IsNull() {
		return "CAST(NULL AS FLOAT)"
	}
	s := v.SQL()
	if v.Type() == value.Float && !strings.ContainsAny(s, ".eE(") {
		s += ".0"
	}
	return s
}

// ---------------------------------------------------------------- lexer

type tokKind int

const (
	tokNum tokKind = iota
	tokStr
	tokIdent
	tokOp
	tokLParen
	tokRParen
	tokComma
)

type token struct {
	kind tokKind
	text string
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
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
			toks = append(toks, token{tokNum, src[i:j]})
			i = j
		case c == '\'' || c == '"':
			j := strings.IndexByte(src[i+1:], c)
			if j < 0 {
				return nil, fmt.Errorf("expr: unterminated string in %q", src)
			}
			toks = append(toks, token{tokStr, src[i+1 : i+1+j]})
			i += j + 2
		case isIdentStart(c):
			j := i
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j]})
			i = j
		case c == '(':
			toks = append(toks, token{tokLParen, "("})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")"})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ","})
			i++
		default:
			// Multi-character operators first.
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "==", "!=", "<>", "<=", ">=", "&&", "||":
				toks = append(toks, token{tokOp, two})
				i += 2
				continue
			}
			switch c {
			case '+', '-', '*', '/', '%', '^', '<', '>', '=', '!':
				toks = append(toks, token{tokOp, string(c)})
				i++
			default:
				return nil, fmt.Errorf("expr: unexpected character %q in %q", string(c), src)
			}
		}
	}
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '.'
}

// --------------------------------------------------------------- parser

// parser renders as it parses: each rule returns its SQL text.
type parser struct {
	toks []token
	pos  int
	src  string
	vars []string
}

// The operators of each level of the grammar, by their spellings (an
// operator or a word), with their renderings.
var (
	orOps    = map[string]string{"||": "OR", "or": "OR"}
	andOps   = map[string]string{"&&": "AND", "and": "AND"}
	notOps   = map[string]string{"!": "NOT ", "not": "NOT "}
	cmpOps   = map[string]string{"==": "=", "=": "=", "!=": "<>", "<>": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
	sumOps   = map[string]string{"+": "+", "-": "-"}
	termOps  = map[string]string{"*": "*", "/": "/", "%": "%"}
	unaryOps = map[string]string{"-": "-", "+": ""}
	powOps   = map[string]string{"^": "POWER"}
)

// is consumes the next token if it is of kind.
func (p *parser) is(kind tokKind) bool {
	if p.pos < len(p.toks) && p.toks[p.pos].kind == kind {
		p.pos++
		return true
	}
	return false
}

// op consumes the next token if it spells one of ops, and returns its
// rendering.
func (p *parser) op(ops map[string]string) (string, bool) {
	if p.pos < len(p.toks) {
		if t := p.toks[p.pos]; t.kind == tokOp || t.kind == tokIdent {
			if sql, ok := ops[strings.ToLower(t.text)]; ok {
				p.pos++
				return sql, true
			}
		}
	}
	return "", false
}

// binary parses a left-associative level: operands of next joined by
// operators of ops.
func (p *parser) binary(next func() (string, error), ops map[string]string) (string, error) {
	l, err := next()
	for err == nil {
		op, ok := p.op(ops)
		if !ok {
			break
		}
		var r string
		if r, err = next(); err == nil {
			l = "(" + l + " " + op + " " + r + ")"
		}
	}
	return l, err
}

func (p *parser) parseExpr() (string, error) { return p.binary(p.parseAnd, orOps) }

func (p *parser) parseAnd() (string, error) { return p.binary(p.parseNot, andOps) }

func (p *parser) parseNot() (string, error) {
	if op, ok := p.op(notOps); ok {
		operand, err := p.parseNot()
		return "(" + op + operand + ")", err
	}
	// A comparison does not chain.
	l, err := p.parseSum()
	if op, ok := p.op(cmpOps); ok && err == nil {
		var r string
		r, err = p.parseSum()
		l = "(" + l + " " + op + " " + r + ")"
	}
	return l, err
}

func (p *parser) parseSum() (string, error) { return p.binary(p.parseTerm, sumOps) }

func (p *parser) parseTerm() (string, error) { return p.binary(p.parseUnary, termOps) }

func (p *parser) parseUnary() (string, error) {
	if op, ok := p.op(unaryOps); ok {
		operand, err := p.parseUnary()
		if op == "" {
			return operand, err
		}
		return "(" + op + operand + ")", err
	}
	base, err := p.parseAtom()
	if _, ok := p.op(powOps); ok && err == nil {
		var exp string
		exp, err = p.parseUnary() // right associative
		base = "POWER(" + base + ", " + exp + ")"
	}
	return base, err
}

func (p *parser) parseAtom() (string, error) {
	if p.pos >= len(p.toks) {
		return "", fmt.Errorf("expr: unexpected end of expression in %q", p.src)
	}
	t := p.toks[p.pos]
	p.pos++
	switch t.kind {
	case tokNum:
		typ := value.Integer
		if strings.ContainsAny(t.text, ".eE") {
			typ = value.Float
		}
		v, err := value.Parse(typ, t.text)
		return literal(v), err
	case tokStr:
		return literal(value.NewString(t.text)), nil
	case tokIdent:
		switch strings.ToLower(t.text) {
		case "true":
			return literal(value.NewBool(true)), nil
		case "false":
			return literal(value.NewBool(false)), nil
		case "null":
			return literal(value.Null(value.Float)), nil
		}
		if !p.is(tokLParen) {
			p.variable(t.text)
			return `"` + t.text + `"`, nil
		}
		var args []string
		for !p.is(tokRParen) {
			if len(args) > 0 && !p.is(tokComma) {
				return "", fmt.Errorf("expr: expected ',' or ')' in call to %s", t.text)
			}
			a, err := p.parseExpr()
			if err != nil {
				return "", err
			}
			args = append(args, a)
		}
		return call(strings.ToLower(t.text), args)
	case tokLParen:
		inner, err := p.parseExpr()
		if err == nil && !p.is(tokRParen) {
			err = fmt.Errorf("expr: missing ')' in %q", p.src)
		}
		return inner, err
	}
	return "", fmt.Errorf("expr: unexpected token %q in %q", t.text, p.src)
}

// variable records a use of the variable name.
func (p *parser) variable(name string) {
	for _, v := range p.vars {
		if strings.EqualFold(v, name) {
			return
		}
	}
	p.vars = append(p.vars, name)
}
