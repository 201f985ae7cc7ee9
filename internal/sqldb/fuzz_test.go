package sqldb

import (
	"testing"
)

// FuzzParse drives the SQL lexer and parser with arbitrary input: they
// must return an error for garbage, never panic. Seeds cover every
// statement kind the dialect knows plus the analysis queries the rest
// of the repo issues (EXPERIMENTS.md benchmarks, plan-cache tests);
// the checked-in corpus under testdata/fuzz/FuzzParse extends them.
func FuzzParse(f *testing.F) {
	seeds := []string{
		// Statement kinds.
		"CREATE TABLE results (run_id integer, fs string, bw float)",
		"CREATE TEMP TABLE x AS SELECT a.b, CAST(c AS float) FROM t a JOIN u ON a.i = u.i",
		"CREATE TABLE IF NOT EXISTS u (a integer)",
		"CREATE INDEX ON runs (fs)",
		"ALTER TABLE t ADD COLUMN z timestamp",
		"ALTER TABLE t RENAME TO s",
		"DROP TABLE IF EXISTS t",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (NULL, TRUE)",
		"UPDATE t SET a = a * 2 + SQRT(b) WHERE a IN (1, 2, 3)",
		"DELETE FROM t WHERE a BETWEEN 1 AND 2",
		"BEGIN", "COMMIT", "ROLLBACK",
		// Analysis-style queries from the experiment suite.
		"SELECT COUNT(*) FROM results WHERE fs = 'ufs'",
		"SELECT fs, technique, AVG(bw) FROM results WHERE op = 'read' GROUP BY fs, technique ORDER BY fs",
		"SELECT a, AVG(b) FROM t WHERE c = 'x' AND d BETWEEN 1 AND 2 GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC LIMIT 10 OFFSET 2",
		"EXPLAIN SELECT DISTINCT a FROM t WHERE b LIKE '%x_'",
		"SELECT COUNT(DISTINCT x) FROM v",
		"SELECT * FROM results WHERE run_id = ?",
		"SELECT l.id, r.y FROM l JOIN r ON l.id = r.id",
		// Lexer edges.
		"SELECT 'unterminated",
		"SELECT 1e309, -0.5, .5, 0x", "SELECT \"quoted col\" FROM t",
		"SELECT /* comment", "-- line comment\nSELECT 1",
		"", "  ;;  ", "SELECT (((((1)))))",
		// A shard's share of a distributed statement (appended: seeds are
		// named by position).
		"PARTIAL SELECT a, AVG(b) FROM t GROUP BY a HAVING COUNT(*) > 1 ORDER BY AVG(b) DESC, a LIMIT 3 OFFSET 1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Parse must be total: any panic is a bug regardless of input.
		_, _ = Parse(src)
	})
}
