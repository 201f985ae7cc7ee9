package sqldb

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"perfbase/internal/value"
)

// Parse parses a single SQL statement.
func Parse(src string) (Statement, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks, src: src}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptOp(";")
	if !p.atEOF() {
		return nil, errorf("trailing input after statement near %q", p.cur().text)
	}
	return st, nil
}

type sqlParser struct {
	toks []token
	pos  int
	src  string
}

func (p *sqlParser) cur() token { return p.toks[p.pos] }

func (p *sqlParser) atEOF() bool { return p.cur().kind == tkEOF }

func (p *sqlParser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tkEOF {
		p.pos++
	}
	return t
}

// acceptKw consumes the given keyword if present.
func (p *sqlParser) acceptKw(kw string) bool {
	if p.cur().keyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return errorf("expected %s near %q in %q", strings.ToUpper(kw), p.cur().text, p.src)
	}
	return nil
}

func (p *sqlParser) acceptOp(op string) bool {
	if p.cur().kind == tkOp && p.cur().text == op {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return errorf("expected %q near %q in %q", op, p.cur().text, p.src)
	}
	return nil
}

// ident consumes an identifier token.
func (p *sqlParser) ident() (string, error) {
	if p.cur().kind != tkIdent {
		return "", errorf("expected identifier near %q in %q", p.cur().text, p.src)
	}
	return p.advance().text, nil
}

// acceptGid consumes an optional string-literal transaction id after
// PREPARE TRANSACTION / COMMIT PREPARED / ROLLBACK PREPARED. The id is
// advisory — a session holds at most one prepared transaction — so it
// only decorates error messages and the coordinator's decision log.
func (p *sqlParser) acceptGid() string {
	if p.cur().kind == tkString {
		return p.advance().text
	}
	return ""
}

func (p *sqlParser) parseStatement() (Statement, error) {
	switch {
	case p.cur().keyword("select"):
		return p.parseSelect()
	case p.acceptKw("partial"):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if sel.Union != nil {
			return nil, fmt.Errorf("%w: PARTIAL over UNION ALL", ErrCompound)
		}
		sel.Partial = true
		return sel, nil
	case p.acceptKw("explain"):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Query: sel}, nil
	case p.acceptKw("create"):
		return p.parseCreate()
	case p.acceptKw("drop"):
		if err := p.expectKw("table"); err != nil {
			return nil, err
		}
		st := &DropTableStmt{}
		if p.acceptKw("if") {
			if err := p.expectKw("exists"); err != nil {
				return nil, err
			}
			st.IfExists = true
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Name = name
		return st, nil
	case p.acceptKw("alter"):
		return p.parseAlter()
	case p.acceptKw("insert"):
		return p.parseInsert()
	case p.acceptKw("update"):
		return p.parseUpdate()
	case p.acceptKw("delete"):
		return p.parseDelete()
	case p.acceptKw("begin"):
		p.acceptKw("transaction")
		return &BeginStmt{}, nil
	case p.acceptKw("commit"):
		if p.acceptKw("prepared") {
			p.acceptGid()
			return &CommitPreparedStmt{}, nil
		}
		return &CommitStmt{}, nil
	case p.acceptKw("rollback"):
		if p.acceptKw("prepared") {
			p.acceptGid()
			return &RollbackPreparedStmt{}, nil
		}
		return &RollbackStmt{}, nil
	case p.acceptKw("prepare"):
		if err := p.expectKw("transaction"); err != nil {
			return nil, err
		}
		return &PrepareStmt{Gid: p.acceptGid()}, nil
	}
	return nil, errorf("unsupported statement starting with %q in %q", p.cur().text, p.src)
}

// ifNotExists accepts an optional IF NOT EXISTS.
func (p *sqlParser) ifNotExists() (bool, error) {
	if !p.acceptKw("if") {
		return false, nil
	}
	if err := p.expectKw("not"); err != nil {
		return false, err
	}
	return true, p.expectKw("exists")
}

func (p *sqlParser) parseCreate() (Statement, error) {
	temp := p.acceptKw("temp") || p.acceptKw("temporary")
	if !temp && p.acceptKw("index") {
		ifNotExists, err := p.ifNotExists()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("on"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Table: table, Column: col, IfNotExists: ifNotExists}, nil
	}
	if err := p.expectKw("table"); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Temp: temp}
	var err error
	if st.IfNotExists, err = p.ifNotExists(); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if p.acceptKw("as") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.As = sel
		return st, nil
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		cname, err := p.ident()
		if err != nil {
			return nil, err
		}
		tname, err := p.ident()
		if err != nil {
			return nil, err
		}
		typ, err := value.TypeFromString(tname)
		if err != nil {
			return nil, errorf("column %s: %v", cname, err)
		}
		st.Cols = append(st.Cols, Column{Name: cname, Type: typ})
		if p.acceptOp(",") {
			continue
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		break
	}
	return st, nil
}

func (p *sqlParser) parseInsert() (Statement, error) {
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: table}
	if p.acceptOp("(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, c)
			if p.acceptOp(",") {
				continue
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			break
		}
	}
	if p.cur().keyword("select") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.From = sel
		return st, nil
	}
	if err := p.expectKw("values"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []sqlExpr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptOp(",") {
				continue
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			break
		}
		st.Rows = append(st.Rows, row)
		if !p.acceptOp(",") {
			break
		}
	}
	return st, nil
}

func (p *sqlParser) parseUpdate() (Statement, error) {
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("set"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, assign{Col: col, E: e})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *sqlParser) parseDelete() (Statement, error) {
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: table}
	if p.acceptKw("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

// ErrCompound marks every refusal of a compound select: UNION without
// ALL, ORDER BY / LIMIT / OFFSET inside a branch, and branches that
// disagree in arity or column type.
var ErrCompound = errors.New("sqldb: unsupported compound select")

// parseSelect parses a SELECT or a compound SELECT ... UNION ALL
// SELECT ... . Branches are collected in a loop, not by recursion, so
// the statement's depth does not grow with their number.
func (p *sqlParser) parseSelect() (*SelectStmt, error) {
	first, err := p.parseBranch()
	if err != nil || !p.cur().keyword("union") {
		return first, err
	}
	st := &SelectStmt{Limit: -1, Pos: first.Pos, Union: []*SelectStmt{first}}
	for p.acceptKw("union") {
		if !p.acceptKw("all") {
			return nil, fmt.Errorf("%w: UNION without ALL near %q", ErrCompound, p.cur().text)
		}
		b, err := p.parseBranch()
		if err != nil {
			return nil, err
		}
		st.Union = append(st.Union, b)
	}
	for i, b := range st.Union {
		if len(b.OrderBy) > 0 || b.Limit >= 0 || b.Offset > 0 {
			return nil, fmt.Errorf("%w: ORDER BY / LIMIT / OFFSET in branch %d", ErrCompound, i+1)
		}
	}
	return st, nil
}

// parseBranch parses one plain SELECT.
func (p *sqlParser) parseBranch() (*SelectStmt, error) {
	pos := p.cur().pos
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	st := &SelectStmt{Limit: -1, Pos: pos}
	st.Distinct = p.acceptKw("distinct")
	p.acceptKw("all")

	// Projection list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}

	if p.acceptKw("from") {
		fi, err := p.parseFromItem()
		if err != nil {
			return nil, err
		}
		st.From = append(st.From, fi)
		for {
			if p.acceptOp(",") {
				fi, err := p.parseFromItem()
				if err != nil {
					return nil, err
				}
				st.From = append(st.From, fi)
				continue
			}
			left := false
			if p.acceptKw("left") {
				p.acceptKw("outer")
				left = true
				if err := p.expectKw("join"); err != nil {
					return nil, err
				}
			} else if p.acceptKw("inner") {
				if err := p.expectKw("join"); err != nil {
					return nil, err
				}
			} else if !p.acceptKw("join") {
				break
			}
			right, err := p.parseFromItem()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("on"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Joins = append(st.Joins, joinClause{Right: right, On: on, Left: left})
		}
	}

	if p.acceptKw("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	if p.acceptKw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("having") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Having = h
	}
	if p.acceptKw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			oi := orderItem{E: e}
			if p.acceptKw("desc") {
				oi.Desc = true
			} else {
				p.acceptKw("asc")
			}
			st.OrderBy = append(st.OrderBy, oi)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("limit") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		st.Limit = n
	}
	if p.acceptKw("offset") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		st.Offset = n
	}
	return st, nil
}

func (p *sqlParser) parseIntLiteral() (int, error) {
	t := p.cur()
	if t.kind != tkNumber {
		return 0, errorf("expected number near %q", t.text)
	}
	p.advance()
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, errorf("bad integer %q", t.text)
	}
	return n, nil
}

func (p *sqlParser) parseSelectItem() (selectItem, error) {
	// "*" or "t.*"
	if p.acceptOp("*") {
		return selectItem{Star: true}, nil
	}
	if p.cur().kind == tkIdent && p.toks[p.pos+1].kind == tkOp && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tkOp && p.toks[p.pos+2].text == "*" {
		table := p.advance().text
		p.advance() // .
		p.advance() // *
		return selectItem{Star: true, Table: table}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return selectItem{}, err
	}
	item := selectItem{E: e}
	if p.acceptKw("as") {
		alias, err := p.ident()
		if err != nil {
			return selectItem{}, err
		}
		item.Alias = alias
	} else if p.cur().kind == tkIdent && !p.reservedAfterItem() {
		item.Alias = p.advance().text
	}
	return item, nil
}

// reservedAfterItem reports whether the current identifier is a clause
// keyword rather than an implicit alias.
func (p *sqlParser) reservedAfterItem() bool {
	for _, kw := range []string{
		"from", "where", "group", "having", "order", "limit", "offset",
		"join", "inner", "left", "on", "as", "union", "values", "set",
		"and", "or", "not", "between", "in", "like", "is", "asc", "desc",
	} {
		if p.cur().keyword(kw) {
			return true
		}
	}
	return false
}

func (p *sqlParser) parseFromItem() (fromItem, error) {
	name, err := p.ident()
	if err != nil {
		return fromItem{}, err
	}
	fi := fromItem{Table: name}
	if p.acceptKw("as") {
		alias, err := p.ident()
		if err != nil {
			return fromItem{}, err
		}
		fi.Alias = alias
	} else if p.cur().kind == tkIdent && !p.reservedAfterItem() {
		fi.Alias = p.advance().text
	}
	return fi, nil
}

// ------------------------------------------------- expression parsing

func (p *sqlParser) parseExpr() (sqlExpr, error) { return p.parseOr() }

func (p *sqlParser) parseOr() (sqlExpr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &binExpr{"or", l, r}
	}
	return l, nil
}

func (p *sqlParser) parseAnd() (sqlExpr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &binExpr{"and", l, r}
	}
	return l, nil
}

func (p *sqlParser) parseNot() (sqlExpr, error) {
	if p.acceptKw("not") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{"not", e}, nil
	}
	return p.parsePredicate()
}

// parsePredicate parses comparison, IN, BETWEEN, LIKE and IS NULL.
func (p *sqlParser) parsePredicate() (sqlExpr, error) {
	l, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKw("is") {
		neg := p.acceptKw("not")
		if !p.acceptKw("null") {
			return nil, errorf("expected NULL after IS near %q", p.cur().text)
		}
		return &isNullExpr{E: l, Negate: neg}, nil
	}
	neg := false
	if p.cur().keyword("not") &&
		(p.toks[p.pos+1].keyword("in") || p.toks[p.pos+1].keyword("between") || p.toks[p.pos+1].keyword("like")) {
		p.advance()
		neg = true
	}
	switch {
	case p.acceptKw("in"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		ie := &inExpr{E: l, Negate: neg}
		for {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ie.List = append(ie.List, x)
			if p.acceptOp(",") {
				continue
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			break
		}
		return ie, nil
	case p.acceptKw("between"):
		lo, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		return &betweenExpr{E: l, Lo: lo, Hi: hi, Negate: neg}, nil
	case p.acceptKw("like"):
		r, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		like := sqlExpr(&binExpr{"like", l, r})
		if neg {
			like = &unaryExpr{"not", like}
		}
		return like, nil
	}
	if neg {
		return nil, errorf("unexpected NOT near %q", p.cur().text)
	}
	// Plain comparison.
	for _, op := range []string{"<=", ">=", "<>", "!=", "==", "=", "<", ">"} {
		if p.acceptOp(op) {
			r, err := p.parseSum()
			if err != nil {
				return nil, err
			}
			canonical := op
			switch op {
			case "!=":
				canonical = "<>"
			case "==":
				canonical = "="
			}
			return &binExpr{canonical, l, r}, nil
		}
	}
	return l, nil
}

func (p *sqlParser) parseSum() (sqlExpr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = &binExpr{"+", l, r}
		case p.acceptOp("-"):
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = &binExpr{"-", l, r}
		case p.acceptOp("||"):
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = &binExpr{"||", l, r}
		default:
			return l, nil
		}
	}
}

func (p *sqlParser) parseTerm() (sqlExpr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptOp("*"):
			op = "*"
		case p.acceptOp("/"):
			op = "/"
		case p.acceptOp("%"):
			op = "%"
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op, l, r}
	}
}

func (p *sqlParser) parseUnary() (sqlExpr, error) {
	if p.acceptOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{"-", e}, nil
	}
	p.acceptOp("+")
	return p.parseAtom()
}

func (p *sqlParser) parseAtom() (sqlExpr, error) {
	t := p.cur()
	switch t.kind {
	case tkNumber:
		p.advance()
		if strings.ContainsAny(t.text, ".eE") {
			v, err := value.Parse(value.Float, t.text)
			if err != nil {
				return nil, err
			}
			return &litExpr{v}, nil
		}
		v, err := value.Parse(value.Integer, t.text)
		if err != nil {
			return nil, err
		}
		return &litExpr{v}, nil
	case tkString:
		p.advance()
		return &litExpr{value.NewString(t.text)}, nil
	case tkParam:
		return nil, errorf("unbound parameter placeholder: use BindArgs")
	case tkOp:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tkIdent:
		lo := lower(t.text)
		switch lo {
		case "null":
			p.advance()
			return &litExpr{value.Null(value.String)}, nil
		case "true":
			p.advance()
			return &litExpr{value.NewBool(true)}, nil
		case "false":
			p.advance()
			return &litExpr{value.NewBool(false)}, nil
		case "cast":
			p.advance()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("as"); err != nil {
				return nil, err
			}
			tn, err := p.ident()
			if err != nil {
				return nil, err
			}
			typ, err := value.TypeFromString(tn)
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &castExpr{E: e, To: typ}, nil
		}
		// Function call?
		if p.toks[p.pos+1].kind == tkOp && p.toks[p.pos+1].text == "(" {
			p.advance()
			p.advance()
			if _, isAgg := aggOps[lo]; isAgg {
				agg := &aggExpr{Name: lo}
				if p.acceptOp("*") {
					agg.Star = true
					if err := p.expectOp(")"); err != nil {
						return nil, err
					}
					if agg.Name != "count" {
						return nil, errorf("%s(*) is not valid", agg.Name)
					}
					return agg, nil
				}
				agg.Distinct = p.acceptKw("distinct")
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				agg.Arg = arg
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return agg, nil
			}
			fe := &funcExpr{Name: lo}
			if !p.acceptOp(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fe.Args = append(fe.Args, a)
					if p.acceptOp(",") {
						continue
					}
					if err := p.expectOp(")"); err != nil {
						return nil, err
					}
					break
				}
			}
			return fe, nil
		}
		// Column reference, possibly qualified.
		p.advance()
		if p.acceptOp(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &colExpr{Table: t.text, Name: col}, nil
		}
		return &colExpr{Name: t.text}, nil
	}
	return nil, errorf("unexpected token %q in expression (%q)", t.text, p.src)
}
