// Package query implements the perfbase query engine.
//
// A query (paper §3.3, Fig. 2) is a DAG of elements: source elements
// retrieve filtered tuples from the experiment database, operator
// elements apply statistics and arithmetic, combiner elements merge
// two vectors, and output elements format the final vectors. Faithful
// to §4.2, elements communicate through temporary tables: each element
// stores its output vector in its own temp table and passes the
// table's name (wrapped in a Vector) to the elements it feeds. This
// design lets the SQL engine do the heavy lifting and makes element
// placement flexible — a Vector can live on any database server, which
// is what the parallel execution of §4.3 (internal/parquery) exploits.
package query

import (
	"fmt"
	"strings"
	"sync/atomic"

	"perfbase/internal/core"
	"perfbase/internal/sqldb"
	"perfbase/internal/units"
	"perfbase/internal/value"
)

// ColumnMeta describes one column of a vector. Vectors carry the meta
// information of their variables along (paper §3.3.1) so that outputs
// can label axes and legends without consulting the experiment.
type ColumnMeta struct {
	Name     string
	Type     value.Type
	Unit     units.Unit
	Synopsis string
	// IsParam marks input-parameter columns; the others are result
	// values. Operators aggregate values and group by parameters.
	IsParam bool
	// Pinned marks parameters that a source filter fixed to a single
	// value. Pinned parameters are constant within their vector and
	// carry no matching information across vectors: element-wise
	// operators, relations and combiners match tuples on the shared
	// UNpinned parameters only (the sweep dimensions).
	Pinned bool
}

// Vector is the output of one query element: a temp table on some
// database plus column metadata.
type Vector struct {
	// DB is the database holding the vector's temp table.
	DB core.Handle
	// Table is the temp table name.
	Table string
	// Cols describes the columns, parameters first.
	Cols []ColumnMeta
	// FromSource marks vectors produced directly by a source element;
	// the operator mode selection of §3.3.2 depends on it.
	FromSource bool
}

// Params returns the parameter columns.
func (v *Vector) Params() []ColumnMeta {
	var out []ColumnMeta
	for _, c := range v.Cols {
		if c.IsParam {
			out = append(out, c)
		}
	}
	return out
}

// Values returns the result value columns.
func (v *Vector) Values() []ColumnMeta {
	var out []ColumnMeta
	for _, c := range v.Cols {
		if !c.IsParam {
			out = append(out, c)
		}
	}
	return out
}

// Col finds a column by name (case-insensitive).
func (v *Vector) Col(name string) (ColumnMeta, bool) {
	for _, c := range v.Cols {
		if strings.EqualFold(c.Name, name) {
			return c, true
		}
	}
	return ColumnMeta{}, false
}

// Fetch materializes the vector's rows, parameters first, in the
// column order of Cols.
func (v *Vector) Fetch() (*sqldb.Result, error) {
	names := make([]string, len(v.Cols))
	for i, c := range v.Cols {
		names[i] = c.Name
	}
	res, err := v.DB.Exec("SELECT " + strings.Join(names, ", ") + " FROM " + v.Table)
	if err != nil {
		return nil, fmt.Errorf("query: fetch vector %s: %w", v.Table, err)
	}
	return res, nil
}

// tempCounter provides process-unique temp table names so elements can
// execute concurrently.
var tempCounter atomic.Int64

// tempName builds a fresh temp table name for an element's output.
func tempName(elemID string) string {
	n := tempCounter.Add(1)
	clean := make([]byte, 0, len(elemID))
	for i := 0; i < len(elemID); i++ {
		c := elemID[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_':
			clean = append(clean, c)
		default:
			clean = append(clean, '_')
		}
	}
	return fmt.Sprintf("pbq%d_%s", n, clean)
}

// create is the step creating the vector's empty temp table.
func (v *Vector) create() sqldb.PipelineRequest {
	defs := make([]string, len(v.Cols))
	for i, c := range v.Cols {
		defs[i] = c.Name + " " + c.Type.String()
	}
	return sqldb.PipelineRequest{SQL: "CREATE TEMP TABLE " + v.Table + " (" + strings.Join(defs, ", ") + ")"}
}

// build makes the vector's table on its database with one submission.
func (v *Vector) build(steps ...sqldb.PipelineRequest) error {
	return submit(v.DB, steps)
}

// submit sends steps to db as one submission: one statement (a
// CREATE … AS, a DROP) as itself, several steps as one pipeline.
func submit(db core.Handle, steps []sqldb.PipelineRequest) error {
	var err error
	if len(steps) == 1 {
		_, err = db.Exec(steps[0].SQL)
	} else {
		_, err = db.ExecPipeline(steps)
	}
	return err
}

// fill builds the vector as a table holding rows.
func (v *Vector) fill(rows []sqldb.Row) error {
	return v.build(v.create(), sqldb.PipelineRequest{Bulk: true, Table: v.Table, Cols: colNames(v.Cols), Rows: rows})
}

// Materialize copies a vector to another database (the socket transfer
// of paper Fig. 3 when elements are placed on different servers). If
// the vector already lives there it is returned unchanged.
func Materialize(v *Vector, target core.Handle) (*Vector, error) {
	if v.DB == target {
		return v, nil
	}
	res, err := v.Fetch()
	if err != nil {
		return nil, err
	}
	out := &Vector{DB: target, Table: tempName("xfer"), Cols: v.Cols, FromSource: v.FromSource}
	if err := out.fill(res.Rows); err != nil {
		return nil, fmt.Errorf("query: materialize %s: %w", out.Table, err)
	}
	return out, nil
}

func colNames(cols []ColumnMeta) []string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return names
}

// DropVector removes vectors' temp tables with one submission per
// database. Temp tables are catalog entries of their database, so every
// vector a query makes is dropped once no element needs it; a failed
// drop is ignored.
func DropVector(vs ...*Vector) {
	var dbs []core.Handle
	drops := map[core.Handle][]sqldb.PipelineRequest{}
	for _, v := range vs {
		if v == nil || v.Table == "" {
			continue
		}
		if _, ok := drops[v.DB]; !ok {
			dbs = append(dbs, v.DB)
		}
		drops[v.DB] = append(drops[v.DB], sqldb.PipelineRequest{SQL: "DROP TABLE IF EXISTS " + v.Table})
	}
	for _, db := range dbs {
		submit(db, drops[db]) //nolint:errcheck
	}
}
