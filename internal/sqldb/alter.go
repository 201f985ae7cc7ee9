package sqldb

import (
	"perfbase/internal/value"
)

// AlterTableStmt is ALTER TABLE name ADD COLUMN c type |
// DROP COLUMN c | RENAME TO newname. Schema evolution of experiments
// (paper §3.1: "values and parameters can be added, modified or
// removed") maps onto these operations.
type AlterTableStmt struct {
	Table  string
	Add    *Column
	Drop   string
	Rename string
}

func (*AlterTableStmt) stmt() {}

func (p *sqlParser) parseAlter() (Statement, error) {
	if err := p.expectKw("table"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &AlterTableStmt{Table: name}
	switch {
	case p.acceptKw("add"):
		p.acceptKw("column")
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
			return nil, err
		}
		st.Add = &Column{Name: cname, Type: typ}
	case p.acceptKw("drop"):
		p.acceptKw("column")
		cname, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Drop = cname
	case p.acceptKw("rename"):
		if err := p.expectKw("to"); err != nil {
			return nil, err
		}
		nname, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Rename = nname
	default:
		return nil, errorf("expected ADD, DROP or RENAME near %q", p.cur().text)
	}
	return st, nil
}

// Apply returns the schema sch becomes under the statement, or the
// error the statement meets on a table of that schema. RENAME keeps the
// schema. The engine's execAlter and the shard coordinator's partition
// map both derive the new schema here.
func (s *AlterTableStmt) Apply(sch Schema) (Schema, error) {
	switch {
	case s.Add != nil:
		if sch.Index(s.Add.Name) >= 0 {
			return nil, errorf("column %q already exists in %q", s.Add.Name, s.Table)
		}
		return append(sch.clone(), *s.Add), nil
	case s.Drop != "":
		ci := sch.Index(s.Drop)
		if ci < 0 {
			return nil, errorf("no column %q in table %q", s.Drop, s.Table)
		}
		sc := sch.clone()
		return append(sc[:ci:ci], sc[ci+1:]...), nil
	case s.Rename != "":
		return sch, nil
	}
	return nil, errorf("empty ALTER TABLE")
}

// execAlter rewrites the table into a fresh version: published rows
// are immutable, so ADD/DROP COLUMN rebuild every row, chunk by chunk,
// rather than widening shared slices in place.
func (db *DB) execAlter(ws *writeState, s *AlterTableStmt) (*Result, error) {
	key := lower(s.Table)
	t, ok := ws.tab(key)
	if !ok {
		return nil, errorf("no such table %q", s.Table)
	}
	schema, err := s.Apply(t.schema)
	if err != nil {
		return nil, err
	}
	if s.Rename != "" {
		if _, exists := ws.tab(lower(s.Rename)); exists {
			return nil, tableExists(s.Rename)
		}
	}
	nt, err := ws.modify(key)
	if err != nil {
		return nil, err
	}
	if s.Rename != "" {
		ws.drop(key)
		nt.name, nt.key = s.Rename, lower(s.Rename)
		ws.put(nt)
		return &Result{}, nil
	}
	nt.schema = schema
	var reshape func(Row) Row
	if s.Add != nil {
		null := value.Null(s.Add.Type)
		reshape = func(row Row) Row { return append(append(make(Row, 0, len(row)+1), row...), null) }
	} else {
		ci := t.schema.Index(s.Drop)
		nt.dropIndex(lower(s.Drop))
		reshape = func(row Row) Row { return append(append(make(Row, 0, len(row)-1), row[:ci]...), row[ci+1:]...) }
	}
	nt.rewrite(func(row Row) (Row, bool, error) { return reshape(row), true, nil }) //nolint:errcheck // never fails
	ws.schemaChanged(nt)
	return &Result{Affected: nt.nrows}, nil
}
