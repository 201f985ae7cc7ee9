package sqldb

import (
	"fmt"
	"strings"
)

// PipelineRequest is one step of a statement pipeline. A step is a SQL
// statement; or, when Bulk is set, a typed bulk insert (mirroring
// BulkInserter); or, when From is set, a pour (pour.go). Pipelines let
// callers ship dependent statements — e.g. CREATE TEMP TABLE followed
// by the insert that fills it, or a whole BEGIN ... COMMIT transaction
// — in a single round trip over the wire transport.
type PipelineRequest struct {
	SQL string

	Bulk  bool
	Table string
	Cols  []string
	Rows  []Row

	// From, when non-nil, makes the step the statement
	//
	//	INSERT INTO Table (Cols) SELECT Rows[i]..., <items of SQL> FROM From[i] <WHERE of SQL>
	//
	// joined by UNION ALL over every i. SQL is then a SELECT of items with
	// an optional WHERE and no FROM, the same text for every pour of one
	// shape; Rows holds one row of constants per table, or none. A pour
	// over no table inserts nothing. RenderPour prints the statement.
	From []string
}

// Pipeliner executes a batch of requests with one submission, under
// the rule RunPipeline implements. On a failure the results of the
// preceding requests are returned alongside the error.
type Pipeliner interface {
	ExecPipeline(reqs []PipelineRequest) ([]*Result, error)
}

// PipelineSession is what a pipeline runs on: one session's statements
// and typed bulk inserts. *Session is one, and so are a wire server's
// connection session and a shard cluster session.
type PipelineSession interface {
	Querier
	BulkInserter
}

// RunPipeline is the pipeline rule, the one implementation behind every
// Pipeliner. It runs the requests in order on s and stops at the first
// that fails, returning the results of the requests before it (so the
// failed one is reqs[len(results)]) and its error as it is. When the
// pipeline's own BEGIN opened a transaction that is still open at the
// failure, the transaction is rolled back before RunPipeline returns:
// a pipeline that stops half-way leaves none of its writes pending on
// the session. A transaction the session had open before the pipeline
// began belongs to the caller and is left alone.
func RunPipeline(s PipelineSession, reqs []PipelineRequest) ([]*Result, error) {
	out := make([]*Result, 0, len(reqs))
	open := false // the pipeline's own transaction
	for i := range reqs {
		r := &reqs[i]
		var res *Result
		var err error
		switch {
		case r.Bulk:
			var n int
			n, err = s.InsertRows(r.Table, r.Cols, r.Rows)
			res = &Result{Affected: n}
		case r.From != nil:
			res, err = runPour(s, r)
		default:
			res, err = s.Exec(r.SQL)
		}
		if err != nil {
			if open {
				s.Exec("ROLLBACK") //nolint:errcheck // a failed COMMIT has already ended it
			}
			return out, err
		}
		if !r.Bulk {
			switch w := leadingWord(r.SQL); {
			case strings.EqualFold(w, "begin"):
				open = true
			case strings.EqualFold(w, "commit"), strings.EqualFold(w, "rollback"), strings.EqualFold(w, "prepare"):
				// COMMIT PREPARED and ROLLBACK PREPARED fail inside an open
				// transaction, so a success here ends it.
				open = false
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// runPour runs a pour step on s: natively where s is a *Session, else as
// the statement RenderPour prints, which s routes like any other.
func runPour(s PipelineSession, r *PipelineRequest) (*Result, error) {
	if ss, ok := s.(*Session); ok {
		return ss.pour(r)
	}
	insert, _, err := RenderPour(*r)
	if err != nil {
		return nil, err
	}
	if insert == "" {
		return &Result{}, nil // no table to pour from
	}
	return s.Exec(insert)
}

// leadingWord returns the letters sql starts with, past white space:
// enough to recognise transaction control without parsing.
func leadingWord(sql string) string {
	sql = strings.TrimLeft(sql, " \t\r\n")
	n := 0
	for n < len(sql) && (sql[n]|0x20 >= 'a' && sql[n]|0x20 <= 'z') {
		n++
	}
	return sql[:n]
}

// ExecPipeline implements Pipeliner on the session: the requests run
// on it under RunPipeline's rule.
func (s *Session) ExecPipeline(reqs []PipelineRequest) ([]*Result, error) {
	out, err := RunPipeline(s, reqs)
	if err != nil {
		return out, fmt.Errorf("sqldb: pipeline request %d: %w", len(out), err)
	}
	return out, nil
}

// ExecPipeline implements Pipeliner on a private session: the one way
// a BEGIN … COMMIT reaches a DB without a Session of the caller's.
func (db *DB) ExecPipeline(reqs []PipelineRequest) ([]*Result, error) {
	s := db.NewSession()
	defer s.Close()
	return s.ExecPipeline(reqs)
}
