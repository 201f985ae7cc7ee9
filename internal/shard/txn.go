// Cross-shard transactions: a ClusterSession runs one transaction
// across the shards, opening a per-shard session on every shard at
// BEGIN (so each shard's snapshot point is BEGIN, exactly like a
// single-node session). Single-shard writers commit with the shard's
// ordinary OCC commit; multi-shard writers commit with two-phase
// commit:
//
//  1. a transaction-id marker row is inserted into _shard_txns on
//     every writing participant (inside the transaction),
//  2. PREPARE TRANSACTION on every participant — each shard runs its
//     full OCC validation and freezes the footprint under intents,
//  3. the decision (gid + per-shard redo statements) is appended to
//     the coordinator's decision log and fsynced — this is the commit
//     point,
//  4. COMMIT PREPARED on every participant.
//
// A crash before step 3 aborts everywhere: prepared state is
// in-memory, so a restarted shard has simply lost it. A crash after
// step 3 is repaired by Recover: any participant whose marker row is
// missing gets the redo statements re-applied in a marker-guarded
// transaction, making recovery idempotent.
package shard

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"perfbase/internal/sqldb"
)

// ClusterSession is one client's context on the cluster, and the one
// path every statement takes: outside BEGIN a statement is a
// one-statement cluster transaction (see Exec). It is not safe for
// concurrent use (like *sqldb.Session).
type ClusterSession struct {
	c *Cluster
	// sess holds the open per-shard session of every shard, by shard
	// index, while a transaction is open; nil outside one.
	sess []Session
	log  [][]string // statements sent to each shard (redo on recovery)
	// ddl holds the schema changes of the transaction's statements (see
	// Cluster.adopt), by lower-cased name; the partition map adopts them
	// when the transaction commits.
	ddl    map[string]sqldb.Schema
	closed bool
}

// NewSession opens a cluster session.
func (c *Cluster) NewSession() *ClusterSession {
	return &ClusterSession{c: c}
}

// Close aborts any open transaction and releases the per-shard
// sessions.
func (s *ClusterSession) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.InTxn() {
		s.abort()
	}
}

// InTxn reports whether a transaction is open.
func (s *ClusterSession) InTxn() bool { return s.sess != nil }

// begin opens the transaction: a session on every shard, BEGUN now and
// not at first touch, so the transaction's snapshot point is BEGIN on
// every shard, exactly as a single-node session snapshots at BEGIN.
// Lazy opening would let a shard's snapshot observe commits that landed
// after this BEGIN, which is serializable but not bit-equivalent to the
// single-node schedule.
func (s *ClusterSession) begin() error {
	if s.InTxn() {
		return fmt.Errorf("shard: transaction already open")
	}
	s.sess = make([]Session, len(s.c.shards))
	s.log = make([][]string, len(s.c.shards))
	for i, b := range s.c.shards {
		sh := b.NewShardSession()
		if _, err := sh.Exec("BEGIN"); err != nil {
			sh.Close()
			s.abort()
			return fmt.Errorf("shard %d: %w", i, err)
		}
		s.sess[i] = sh
	}
	return nil
}

// Exec runs one statement within the session's transaction or, outside
// BEGIN, as a one-statement cluster transaction: a write that routes to
// one statement on one shard runs on that shard's backend, any other
// write runs as an implicit BEGIN … COMMIT on this session, and a read
// runs on the shards' own snapshots.
func (s *ClusterSession) Exec(sql string) (*sqldb.Result, error) {
	if s.closed {
		return nil, fmt.Errorf("shard: session is closed")
	}
	st, err := sqldb.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.exec(st, sql)
}

func (s *ClusterSession) exec(st sqldb.Statement, sql string) (*sqldb.Result, error) {
	switch q := st.(type) {
	case *sqldb.BeginStmt:
		if err := s.begin(); err != nil {
			return nil, err
		}
		return &sqldb.Result{}, nil
	case *sqldb.CommitStmt:
		if !s.InTxn() {
			return nil, fmt.Errorf("shard: no open transaction")
		}
		return s.commit()
	case *sqldb.RollbackStmt:
		if !s.InTxn() {
			return nil, fmt.Errorf("shard: no open transaction")
		}
		s.abort()
		return &sqldb.Result{}, nil
	case *sqldb.PrepareStmt, *sqldb.CommitPreparedStmt, *sqldb.RollbackPreparedStmt:
		return nil, fmt.Errorf("shard: two-phase commit is driven by the coordinator")
	case *sqldb.SelectStmt:
		return s.query(q, sql)
	case *sqldb.ExplainStmt:
		return s.c.shards[0].Exec(sql)
	case *sqldb.AlterTableStmt:
		return s.alter(q, sql)
	}
	if err := fpRoute.Inject(); err != nil {
		return nil, fmt.Errorf("shard: route: %w", err)
	}
	routes, change, err := s.route(st, sql)
	if err != nil {
		return nil, err
	}
	if s.InTxn() {
		return s.write(routes, change)
	}
	if ci, ok := st.(*sqldb.CreateIndexStmt); ok && ci.IfNotExists {
		// It changes no row, and running it again mends a shard it
		// failed on: each shard runs it as a transaction of its own, and
		// one that has the index commits nothing.
		for idx := range s.c.shards {
			if _, err := s.c.shards[idx].Exec(sql); err != nil {
				return nil, fmt.Errorf("shard %d: %w", idx, err)
			}
		}
		return &sqldb.Result{}, nil
	}
	if len(routes) == 0 {
		return &sqldb.Result{}, nil
	}
	for idx, stmts := range routes {
		if len(routes) == 1 && len(stmts) == 1 {
			// One statement on one shard: that shard's own one-statement
			// transaction.
			res, err := s.c.shards[idx].Exec(stmts[0])
			if err != nil {
				return nil, err
			}
			s.c.adopt(change)
			return res, nil
		}
	}
	if err := s.begin(); err != nil {
		return nil, err
	}
	return s.end(s.write(routes, change))
}

// end finishes an implicit transaction with the outcome of its one
// statement: COMMIT after a success, ROLLBACK after a failure.
func (s *ClusterSession) end(res *sqldb.Result, err error) (*sqldb.Result, error) {
	if err != nil {
		s.abort()
		return nil, err
	}
	if _, err := s.commit(); err != nil {
		return nil, err
	}
	return res, nil
}

// write runs a routed statement on the transaction's per-shard
// sessions, in shard order, journals every statement for redo, and
// records its schema change for the commit to adopt.
func (s *ClusterSession) write(routes map[int][]string, change map[string]sqldb.Schema) (*sqldb.Result, error) {
	total := &sqldb.Result{}
	for idx, sh := range s.sess {
		for _, one := range routes[idx] {
			res, err := sh.Exec(one)
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", idx, err)
			}
			s.log[idx] = append(s.log[idx], one)
			total.Affected += res.Affected
		}
	}
	if len(change) > 0 && s.ddl == nil {
		s.ddl = map[string]sqldb.Schema{}
	}
	for name, sch := range change {
		s.ddl[name] = sch
	}
	return total, nil
}

// abort rolls back everything open and resets the session.
func (s *ClusterSession) abort() {
	for _, sh := range s.sess {
		if sh != nil {
			sh.Exec("ROLLBACK") //nolint:errcheck
			sh.Close()
		}
	}
	s.reset()
}

func (s *ClusterSession) reset() {
	s.sess, s.log, s.ddl = nil, nil, nil
}

// commit ends the transaction. Participants that only read commit
// first (they publish nothing, but their reads are validated);
// transactions with at most one writing shard then use the shard's
// ordinary commit, and multi-writer transactions run two-phase
// commit.
func (s *ClusterSession) commit() (*sqldb.Result, error) {
	var writers []int
	for idx, stmts := range s.log {
		if len(stmts) > 0 {
			writers = append(writers, idx)
		}
	}
	if len(writers) > 1 {
		return s.commit2PC(writers)
	}
	// Read-only participants first: a failed read validation must
	// abort the writer too.
	for _, writer := range []bool{false, true} {
		for idx, sh := range s.sess {
			if (len(s.log[idx]) > 0) != writer {
				continue
			}
			if _, err := sh.Exec("COMMIT"); err != nil {
				s.abort()
				return nil, fmt.Errorf("shard %d: %w", idx, err)
			}
		}
	}
	s.c.adopt(s.ddl)
	s.closeAll()
	return &sqldb.Result{}, nil
}

func (s *ClusterSession) closeAll() {
	for _, sh := range s.sess {
		if sh != nil {
			sh.Close()
		}
	}
	s.reset()
}

// commit2PC drives prepare/decide/commit across the participants.
func (s *ClusterSession) commit2PC(writers []int) (*sqldb.Result, error) {
	c := s.c
	gid := fmt.Sprintf("%s-%d", c.gidPrefix, c.gidSeq.Add(1))

	// Phase 0: marker rows ride inside each writer's transaction.
	for _, idx := range writers {
		marker := "INSERT INTO " + markerTable + " (gid) VALUES ('" + gid + "')"
		if _, err := s.sess[idx].Exec(marker); err != nil {
			s.abort()
			return nil, fmt.Errorf("shard %d: marker: %w", idx, err)
		}
	}

	// Phase 1: prepare everywhere. Any failure aborts the whole
	// transaction — prepared participants roll back their parked
	// state, the rest roll back their open transaction.
	prepared := 0
	for idx, sh := range s.sess {
		if err := fp2pcPrepare.Inject(); err != nil {
			s.abortPrepared(prepared)
			return nil, fmt.Errorf("shard %d: prepare: %w", idx, err)
		}
		if _, err := sh.Exec("PREPARE TRANSACTION '" + gid + "'"); err != nil {
			s.abortPrepared(prepared)
			return nil, fmt.Errorf("shard %d: prepare: %w", idx, err)
		}
		prepared++
	}

	// Phase 2: the commit point — fsync the decision with enough
	// information to finish the commit on any shard that loses its
	// prepared state (redo is marker-guarded, see Recover).
	if c.dlog != nil {
		redo := map[string][]string{}
		for _, idx := range writers {
			redo[strconv.Itoa(idx)] = s.log[idx]
		}
		if err := c.dlog.decide(gid, redo); err != nil {
			s.abortPrepared(prepared)
			return nil, fmt.Errorf("shard: decision log: %w", err)
		}
	}

	// Phase 3: commit everywhere. The outcome is decided; a failure
	// here (crashed shard, injected fault) leaves that shard to
	// Recover, and is reported to the caller as ErrTornCommit.
	var torn []string
	for idx, sh := range s.sess {
		if err := fp2pcCommit.Inject(); err != nil {
			torn = append(torn, fmt.Sprintf("shard %d: %v", idx, err))
			sh.Close()
			s.sess[idx] = nil
			continue
		}
		if _, err := sh.Exec("COMMIT PREPARED"); err != nil {
			torn = append(torn, fmt.Sprintf("shard %d: %v", idx, err))
		}
	}
	if len(torn) == 0 && c.dlog != nil {
		c.dlog.done(gid) //nolint:errcheck
	}
	c.adopt(s.ddl) // decided, torn or not
	s.closeAll()
	if len(torn) > 0 {
		return nil, fmt.Errorf("%w (gid %s): %s", ErrTornCommit, gid, strings.Join(torn, "; "))
	}
	return &sqldb.Result{}, nil
}

// abortPrepared rolls back a partially-prepared transaction: parked
// state on the first prepared shards, open transactions on the rest.
func (s *ClusterSession) abortPrepared(prepared int) {
	for idx, sh := range s.sess {
		if idx < prepared {
			sh.Exec("ROLLBACK PREPARED") //nolint:errcheck
		} else {
			sh.Exec("ROLLBACK") //nolint:errcheck
		}
		sh.Close()
	}
	s.reset()
}

// InsertRows bulk-inserts through the session. Outside a transaction
// it is the cluster's shard-parallel fast path; inside one the rows
// become partitioned INSERT statements on the transaction's sessions.
func (s *ClusterSession) InsertRows(table string, cols []string, rows []sqldb.Row) (int, error) {
	if s.closed {
		return 0, fmt.Errorf("shard: session is closed")
	}
	if !s.InTxn() {
		return s.c.InsertRows(table, cols, rows)
	}
	sch, ok := s.c.schema(table, s)
	if !ok {
		return 0, fmt.Errorf("shard: unknown table %q", table)
	}
	routes := map[int][]string{}
	if err := s.c.deal(routes, table, sch, cols, rows); err != nil {
		return 0, err
	}
	res, err := s.write(routes, nil)
	if err != nil {
		return 0, err
	}
	return res.Affected, nil
}

// ErrTornCommit marks a decided cross-shard commit that could not be
// finished on every shard; Recover completes it.
var ErrTornCommit = errors.New("shard: commit decided but torn")

// ---- decision log ----

// decisionRecord is one JSON line in the coordinator's decision log.
type decisionRecord struct {
	Gid   string              `json:"gid"`
	State string              `json:"state"`          // "commit" or "done"
	Redo  map[string][]string `json:"redo,omitempty"` // shard index -> statements
}

type decisionLog struct {
	f *os.File
}

func openDecisionLog(path string) (*decisionLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &decisionLog{f: f}, nil
}

// decide appends and fsyncs a commit decision: after it returns, the
// transaction IS committed, whatever happens to the participants.
func (d *decisionLog) decide(gid string, redo map[string][]string) error {
	if err := d.append(decisionRecord{Gid: gid, State: "commit", Redo: redo}); err != nil {
		return err
	}
	return d.f.Sync()
}

// done appends a completion marker so recovery can skip the gid
// without probing the shards. It is advisory — losing it only costs
// an idempotent re-check.
func (d *decisionLog) done(gid string) error {
	return d.append(decisionRecord{Gid: gid, State: "done"})
}

func (d *decisionLog) append(rec decisionRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = d.f.Write(append(b, '\n'))
	return err
}

// pending returns the decided-but-unfinished transactions in log
// order. A trailing torn line (crash mid-append) is ignored.
func (d *decisionLog) pending() ([]decisionRecord, error) {
	if _, err := d.f.Seek(0, 0); err != nil {
		return nil, err
	}
	var (
		order []string
		recs  = map[string]decisionRecord{}
	)
	sc := bufio.NewScanner(d.f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec decisionRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			break // torn tail
		}
		switch rec.State {
		case "commit":
			if _, ok := recs[rec.Gid]; !ok {
				order = append(order, rec.Gid)
			}
			recs[rec.Gid] = rec
		case "done":
			delete(recs, rec.Gid)
		}
	}
	out := make([]decisionRecord, 0, len(recs))
	for _, gid := range order {
		if rec, ok := recs[gid]; ok {
			out = append(out, rec)
		}
	}
	if _, err := d.f.Seek(0, 2); err != nil {
		return nil, err
	}
	return out, nil
}

func (d *decisionLog) close() error { return d.f.Close() }

// Recover completes every decided cross-shard transaction that did
// not finish on all shards: a participant that has the gid's marker
// row already committed; one without it lost its prepared state in a
// crash and gets the redo statements re-applied together with the
// marker, in one transaction (so recovery itself is idempotent and
// crash-safe). Run before serving traffic.
func (c *Cluster) Recover() error {
	if c.dlog == nil {
		return nil
	}
	pending, err := c.dlog.pending()
	if err != nil {
		return err
	}
	for _, rec := range pending {
		idxs := make([]int, 0, len(rec.Redo))
		for k := range rec.Redo {
			idx, err := strconv.Atoi(k)
			if err != nil || idx < 0 || idx >= len(c.shards) {
				return fmt.Errorf("shard: decision log gid %s: bad shard index %q", rec.Gid, k)
			}
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			applied, err := c.markerPresent(idx, rec.Gid)
			if err != nil {
				return fmt.Errorf("shard %d: gid %s: %w", idx, rec.Gid, err)
			}
			if applied {
				continue
			}
			if err := c.redo(idx, rec.Gid, rec.Redo[strconv.Itoa(idx)]); err != nil {
				return fmt.Errorf("shard %d: gid %s: redo: %w", idx, rec.Gid, err)
			}
		}
		c.dlog.done(rec.Gid) //nolint:errcheck
	}
	return nil
}

func (c *Cluster) markerPresent(idx int, gid string) (bool, error) {
	res, err := c.shards[idx].Exec("SELECT COUNT(*) FROM " + markerTable + " WHERE gid = '" + gid + "'")
	if err != nil {
		return false, err
	}
	return len(res.Rows) == 1 && res.Rows[0][0].Int() > 0, nil
}

// redo re-applies one shard's statements of a committed transaction,
// marker-guarded.
func (c *Cluster) redo(idx int, gid string, stmts []string) error {
	sh := c.shards[idx].NewShardSession()
	defer sh.Close()
	if _, err := sh.Exec("BEGIN"); err != nil {
		return err
	}
	if _, err := sh.Exec("INSERT INTO " + markerTable + " (gid) VALUES ('" + gid + "')"); err != nil {
		sh.Exec("ROLLBACK") //nolint:errcheck
		return err
	}
	for _, one := range stmts {
		if _, err := sh.Exec(one); err != nil {
			sh.Exec("ROLLBACK") //nolint:errcheck
			return err
		}
	}
	_, err := sh.Exec("COMMIT")
	return err
}
