package repl

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
)

// Router is the replica-aware client: it implements sqldb.Querier by
// routing SELECT/EXPLAIN statements round-robin over read replicas and
// everything else to the primary. With read-your-writes enabled
// (default), replica reads carry a wait-for-LSN bound at the position
// of the router's last acknowledged write, so a client observes its
// own writes immediately after the commit ack — at the cost of the
// replica occasionally waiting out its (usually sub-millisecond)
// apply lag. A replica read that fails (connection, stream, wait
// timeout) transparently falls back to the primary, which is always
// exact.
type Router struct {
	primary  *wire.Client
	replicas []*wire.Client
	rr       atomic.Uint64

	mu sync.Mutex
	// lastWrite is the primary position acknowledged for this router's
	// most recent mutation — the read-your-writes watermark.
	lastWrite sqldb.ReplPos

	// ReadYourWrites bounds replica reads at lastWrite; disabled, reads
	// may observe a slightly stale snapshot (bounded by apply lag).
	ReadYourWrites bool
	// WaitTimeout bounds the replica-side wait; an elapsed bound falls
	// back to the primary. Zero means the server default (5s).
	WaitTimeout time.Duration
}

// NewRouter builds a router over a primary connection and any number
// of replica connections. With no replicas every statement goes to the
// primary.
func NewRouter(primary *wire.Client, replicas ...*wire.Client) *Router {
	return &Router{
		primary:        primary,
		replicas:       replicas,
		ReadYourWrites: true,
		WaitTimeout:    2 * time.Second,
	}
}

// Exec implements sqldb.Querier with replica-aware routing.
func (r *Router) Exec(sql string) (*sqldb.Result, error) {
	st, err := sqldb.Parse(sql)
	if err != nil {
		return nil, err
	}
	if isRead(st) && len(r.replicas) > 0 {
		if res, err := r.readFromReplica(sql); err == nil {
			return res, nil
		}
		// Fall back: the primary always serves an exact read. The
		// replica error is not surfaced — routing is best-effort.
	}
	res, err := r.primary.Exec(sql)
	if err != nil {
		return nil, err
	}
	if !isRead(st) {
		r.noteWrite(r.primary.LastPos())
	}
	return res, nil
}

// InsertRows implements sqldb.BulkInserter; bulk loads are mutations
// and always go to the primary.
func (r *Router) InsertRows(table string, cols []string, rows []sqldb.Row) (int, error) {
	n, err := r.primary.InsertRows(table, cols, rows)
	if err == nil {
		r.noteWrite(r.primary.LastPos())
	}
	return n, err
}

// readFromReplica runs one SELECT against the next replica in
// round-robin order, bounded by the read-your-writes watermark when
// enabled.
func (r *Router) readFromReplica(sql string) (*sqldb.Result, error) {
	idx := int(r.rr.Add(1)-1) % len(r.replicas)
	rep := r.replicas[idx]
	if !r.ReadYourWrites {
		return rep.Exec(sql)
	}
	r.mu.Lock()
	watermark := r.lastWrite
	r.mu.Unlock()
	if watermark == (sqldb.ReplPos{}) {
		return rep.Exec(sql)
	}
	return rep.ExecWait(sql, watermark, r.WaitTimeout)
}

func (r *Router) noteWrite(p sqldb.ReplPos) {
	r.mu.Lock()
	if r.lastWrite.Before(p) {
		r.lastWrite = p
	}
	r.mu.Unlock()
}

// Close closes every underlying connection, returning the first error.
func (r *Router) Close() error {
	err := r.primary.Close()
	for _, rep := range r.replicas {
		if cerr := rep.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// isRead reports whether a statement can be served by a read replica.
func isRead(st sqldb.Statement) bool {
	switch st.(type) {
	case *sqldb.SelectStmt, *sqldb.ExplainStmt:
		return true
	}
	return false
}

// DialRouter connects a router from addresses: the primary's plus any
// replicas'. Connections that fail to dial fail the whole call.
func DialRouter(primaryAddr string, replicaAddrs ...string) (*Router, error) {
	primary, err := wire.Dial(primaryAddr)
	if err != nil {
		return nil, fmt.Errorf("repl: dial primary: %w", err)
	}
	var reps []*wire.Client
	for _, a := range replicaAddrs {
		c, err := wire.Dial(a)
		if err != nil {
			primary.Close()
			for _, rc := range reps {
				rc.Close()
			}
			return nil, fmt.Errorf("repl: dial replica %s: %w", a, err)
		}
		reps = append(reps, c)
	}
	return NewRouter(primary, reps...), nil
}

// interface conformance
var (
	_ sqldb.Querier      = (*Router)(nil)
	_ sqldb.BulkInserter = (*Router)(nil)
)
