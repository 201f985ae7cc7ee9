package shard

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"perfbase/internal/sqldb"
)

// FuzzShardedDifferential drives the same two-session schedule
// through three topologies — a plain single-node database, a 1-shard
// cluster, and a 4-shard cluster — and demands identical transcripts:
// every operation's verdict (ok / typed conflict / error), every read
// result, and the final table contents must match byte for byte.
//
// The op encoding keeps the schedule inside the envelope where the
// equivalence is exact:
//
//   - session 1 writes only ta, session 2 writes only tb (disjoint
//     write sets — table-level write validation is then identical
//     whether the table lives on one node or four);
//   - in-txn reads are either point reads of the session's OWN table
//     (never conflict cross-session) or full-table aggregates of the
//     OTHER table, which take a table-level read on every shard and
//     therefore conflict exactly when the single-node read would;
//   - inserted values come from one monotonic counter, so rows are
//     distinct and ORDER BY v is a total order.
//
// Halfway through the schedule — with whatever transactions the two
// sessions have open still open — a burst of concurrent committers
// runs: two to four goroutines on sessions of their own, each
// committing multi-row transactions into a third table tc whose keys
// (taken from the input) straddle the shards. They only insert, so
// they are blind appends and commute: every one must commit at its
// first attempt on every topology, however the 2PC rounds of the
// 4-shard cluster interleave on _shard_txns and tc, and the sessions'
// own transactions must afterwards commit as if the burst had not
// happened.
//
// Byte layout: bit 7 selects the session, bits 4-6 the key (0-7), and
// the low nibble mod 8 the operation.
func FuzzShardedDifferential(f *testing.F) {
	// Plain interleaving: both sessions insert, read, commit.
	f.Add([]byte("\x00\x23\x80\xa3\x87\x07\x01\x81"))
	// Conflict: s2 scatter-reads ta, s1 commits an insert into ta,
	// s2's commit must fail with the typed conflict everywhere.
	f.Add([]byte("\x80\x87\x00\x33\x01\x81"))
	// Rollback discards writes; later reads see nothing.
	f.Add([]byte("\x00\x43\x53\x02\x80\x07\x81"))
	// Updates and deletes routed by key equality.
	f.Add([]byte("\x13\x23\x14\x25\x16\x07"))
	// Autocommit ops interleaved with an open transaction.
	f.Add([]byte("\x00\x63\x93\x67\x96\x01"))
	// Torn-nibble noise: invalid-looking ops must still agree.
	f.Add([]byte("\x01\x02\x81\x82\xff\x7f"))
	f.Add([]byte(""))
	// Two sessions, disjoint tables, both straddling every shard: s2's
	// shard sessions began before s1's 2PC round wrote _shard_txns.
	f.Add([]byte("\x00\x80\x03\x13\x23\x33\x01\x83\x93\xa3\xb3\x81"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 48 {
			data = data[:48]
		}
		ref := runFuzzSchedule(data, newRefTopo())
		c1 := runFuzzSchedule(data, newClusterTopo(1))
		c4 := runFuzzSchedule(data, newClusterTopo(4))
		if c1 != ref {
			t.Fatalf("1-shard cluster diverges from single-node reference:\n%s\nref:\n%s\ncluster:\n%s",
				firstDiff(ref, c1), ref, c1)
		}
		if c4 != ref {
			t.Fatalf("4-shard cluster diverges from single-node reference:\n%s\nref:\n%s\ncluster:\n%s",
				firstDiff(ref, c4), ref, c4)
		}
	})
}

// fuzzTopo is one system under test: two long-lived sessions over
// some arrangement of the same logical database.
type fuzzTopo interface {
	exec(si int, sql string) (*sqldb.Result, error)
	// session opens one more session, for a concurrent committer.
	session() Session
	close()
}

type refTopo struct {
	db   *sqldb.DB
	sess [2]*sqldb.Session
}

func newRefTopo() *refTopo {
	db := sqldb.NewMemory()
	for _, ddl := range fuzzDDL {
		if _, err := db.Exec(ddl); err != nil {
			panic(err)
		}
	}
	return &refTopo{db: db, sess: [2]*sqldb.Session{db.NewSession(), db.NewSession()}}
}

func (r *refTopo) exec(si int, sql string) (*sqldb.Result, error) { return r.sess[si].Exec(sql) }
func (r *refTopo) session() Session                               { return r.db.NewSession() }
func (r *refTopo) close() {
	r.sess[0].Close()
	r.sess[1].Close()
	r.db.Close()
}

type clusterTopo struct {
	c    *Cluster
	sess [2]*ClusterSession
}

func newClusterTopo(n int) *clusterTopo {
	c := NewLocal(n)
	for _, ddl := range fuzzDDL {
		if _, err := c.Exec(ddl); err != nil {
			panic(err)
		}
	}
	return &clusterTopo{c: c, sess: [2]*ClusterSession{c.NewSession(), c.NewSession()}}
}

func (ct *clusterTopo) exec(si int, sql string) (*sqldb.Result, error) { return ct.sess[si].Exec(sql) }
func (ct *clusterTopo) session() Session                               { return ct.c.NewSession() }
func (ct *clusterTopo) close() {
	ct.sess[0].Close()
	ct.sess[1].Close()
	ct.c.Close()
}

var fuzzDDL = []string{
	"CREATE TABLE ta (k integer, v integer)",
	"CREATE TABLE tb (k integer, v integer)",
	"CREATE TABLE tc (k integer, v integer)",
}

// runFuzzSchedule decodes data into a two-session schedule, executes
// it sequentially, and returns the normalized transcript plus the
// final ORDER BY'd contents of both tables.
func runFuzzSchedule(data []byte, topo fuzzTopo) string {
	defer topo.close()
	var sb strings.Builder
	next := 100 // monotonic value counter, advanced per op regardless of outcome
	for i, b := range data {
		if i == len(data)/2 {
			sb.WriteString(runFuzzBurst(data, topo))
		}
		si := int(b >> 7)
		k := int(b>>4) & 7
		op := int(b&0xF) % 8
		own, other := "ta", "tb"
		if si == 1 {
			own, other = "tb", "ta"
		}
		var sql string
		bare := false // BEGIN/COMMIT/ROLLBACK: don't compare Affected
		switch op {
		case 0:
			sql, bare = "BEGIN", true
		case 1:
			sql, bare = "COMMIT", true
		case 2:
			sql, bare = "ROLLBACK", true
		case 3:
			sql = fmt.Sprintf("INSERT INTO %s VALUES (%d, %d)", own, k, next)
			next++
		case 4:
			sql = fmt.Sprintf("UPDATE %s SET v = %d WHERE k = %d", own, next, k)
			next++
		case 5:
			sql = fmt.Sprintf("DELETE FROM %s WHERE k = %d", own, k)
		case 6:
			sql = fmt.Sprintf("SELECT v FROM %s WHERE k = %d ORDER BY v", own, k)
		case 7:
			sql = fmt.Sprintf("SELECT COUNT(*), SUM(v) FROM %s", other)
		}
		res, err := topo.exec(si, sql)
		fmt.Fprintf(&sb, "%02d s%d %s -> %s\n", i, si+1, sql, fuzzVerdict(res, err, bare))
	}
	// Deterministically close any transaction left open before the
	// final-state reads (ignored if no transaction is open).
	topo.exec(0, "ROLLBACK") //nolint:errcheck
	topo.exec(1, "ROLLBACK") //nolint:errcheck
	for _, q := range []string{
		"SELECT k, v FROM ta ORDER BY k, v",
		"SELECT k, v FROM tb ORDER BY k, v",
		"SELECT k, v FROM tc ORDER BY k, v",
	} {
		res, err := topo.exec(0, q)
		if err != nil {
			fmt.Fprintf(&sb, "final %s -> err\n", q)
			continue
		}
		fmt.Fprintf(&sb, "final %s ->\n%s", q, dumpResult(res))
	}
	return sb.String()
}

// runFuzzBurst runs the concurrent committers and returns their
// verdicts in worker order.
func runFuzzBurst(data []byte, topo fuzzTopo) string {
	workers := 2 + len(data)%3
	verdicts := make([]string, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := topo.session()
			defer s.Close()
			var sb strings.Builder
			for txn := range 3 {
				stmts := []string{"BEGIN"}
				for j := range 3 {
					k := int(data[(w+3*txn+j)%len(data)])
					stmts = append(stmts, fmt.Sprintf("INSERT INTO tc VALUES (%d, %d)", k, w*100+txn*10+j))
				}
				for _, sql := range append(stmts, "COMMIT") {
					_, err := s.Exec(sql)
					fmt.Fprintf(&sb, "burst w%d %s -> %s\n", w, sql, fuzzVerdict(nil, err, true))
				}
			}
			verdicts[w] = sb.String()
		}()
	}
	wg.Wait()
	return strings.Join(verdicts, "")
}

func fuzzVerdict(res *sqldb.Result, err error, bare bool) string {
	switch {
	case err == nil && bare:
		return "ok"
	case err == nil && len(res.Columns) > 0:
		return "ok " + strings.ReplaceAll(dumpResult(res), "\n", ";")
	case err == nil:
		return fmt.Sprintf("ok affected=%d", res.Affected)
	case errors.Is(err, sqldb.ErrTxnConflict):
		return "conflict"
	default:
		return "err"
	}
}
