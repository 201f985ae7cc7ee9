// Package wire exposes a sqldb database over TCP.
//
// The original perfbase stores experiments in a PostgreSQL server that
// may run locally or on any reachable host, and its proposed parallel
// query processing (paper §4.3) places additional database servers on
// cluster nodes, accessed "via sockets, possibly using a high-speed
// interconnection network". This package provides that socket layer: a
// Server wraps a *sqldb.DB and serves SQL statements to any number of
// concurrent clients; a Client implements the same Querier interface
// as a local database, so the layers above never care about placement.
//
// The protocol is a persistent gob stream per connection: the client
// opens with a version handshake ({Hello} → {Hello ack}), then sends
// {SQL}, and the server answers {Columns, Rows, Affected, Err}.
// Protocol v2 adds replication verbs — SUBSCRIBE switches a connection
// to a one-way WAL frame stream, SNAPSHOT transfers a checkpoint image
// of the whole state for a bootstrap, STATUS reports
// role/position/lag — and every response piggybacks the server's
// replication position so clients can do read-your-writes routing (see
// repl.go in this package).
//
// Concurrency inherits the engine's MVCC storage: every SELECT a
// connection serves executes lock-free against an immutable snapshot,
// so one client's bulk import never stalls another client's reads —
// the multi-user behaviour the original system got from PostgreSQL.
package wire

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"perfbase/internal/failpoint"
	"perfbase/internal/sqldb"
)

// Failpoint sites of the wire server's connection loops. Armed with
// error actions they sever connections mid-conversation, which is how
// the torture/fuzz harnesses exercise client-visible disconnects.
var (
	fpServerRead  = failpoint.Site("wire/server/read")
	fpServerWrite = failpoint.Site("wire/server/write")
)

// request is one statement sent from client to server. When Bulk is
// set, the request is a typed bulk insert instead of a SQL statement.
// When Batch is non-empty, the request is a pipeline of statements, bulk
// inserts and pours (their SQL, Bulk, Pour and From fields count,
// nothing else): the server runs them under sqldb.RunPipeline's rule and
// answers with one response whose Batch holds their individual results
// — a single encode/flush on each side instead of one round trip per
// statement.
//
// Protocol v3 adds the pour step (sqldb.PipelineRequest.From): Pour
// marks it, since gob sends an empty From as none, and its tables,
// constants and SELECT travel as they are, never as statement text.
//
// Protocol v2 fields: Hello opens the connection (mandatory first
// message); Verb selects a replication command ("subscribe",
// "snapshot", "status") instead of SQL; From* positions a
// subscription; Wait* ask the server to delay execution until its
// replication position reaches at least the given point (the
// read-your-writes staleness bound).
type request struct {
	SQL string

	Bulk  bool
	Table string
	Cols  []string
	Rows  []sqldb.Row
	Pour  bool
	From  []string

	Batch []request

	Hello     *Hello
	Verb      string
	FromEpoch uint64
	FromLSN   uint64
	Wait      bool
	WaitEpoch uint64
	WaitLSN   uint64
	WaitMS    int

	// Live verbs (see live.go): INGEST payload, WATCH subscription
	// spec, VIEW name.
	Ingest *IngestRequest
	Watch  *WatchSpec
	View   string
}

// response carries the result (or error text) of one statement. Code
// classifies the retryable/typed error classes so the client can
// reconstruct a typed error from the flattened text. Epoch/LSN carry
// the server's replication position after executing the request, so
// clients can track the last write they were acknowledged for.
type response struct {
	Columns  sqldb.Schema
	Rows     []sqldb.Row
	Affected int
	Err      string

	Batch []response

	Code   string
	Hello  *HelloAck
	Status *Status
	Epoch  uint64
	LSN    uint64

	// A SNAPSHOT answer (see repl.go): the checkpoint image of the
	// primary's state and the position it captures, which Epoch/LSN above
	// may already have passed.
	State      []byte
	StateEpoch uint64
	StateLSN   uint64

	// Live answers (see live.go): ingest outcome, view listing, and
	// the position a VIEW result reflects (Epoch/LSN above always hold
	// the server's own position).
	Ingest    *IngestResult
	Views     []string
	ViewEpoch uint64
	ViewLSN   uint64
}

// BackendSession is one connection's transactional execution context
// on a Backend. *sqldb.Session satisfies it natively; a shard
// coordinator's cluster session does too.
type BackendSession interface {
	Exec(sql string) (*sqldb.Result, error)
	InsertRows(table string, cols []string, rows []sqldb.Row) (int, error)
	Close()
}

// Backend is what a wire server serves: a local database or a shard
// coordinator. Replication verbs (SUBSCRIBE/SNAPSHOT) additionally
// need a *sqldb.DB and are refused on other backends.
type Backend interface {
	NewWireSession() BackendSession
	Role() string
	Pos() sqldb.ReplPos
}

// dbBackend adapts *sqldb.DB to Backend (NewSession's concrete return
// type prevents *sqldb.DB satisfying it directly).
type dbBackend struct{ db *sqldb.DB }

func (b dbBackend) NewWireSession() BackendSession { return b.db.NewSession() }
func (b dbBackend) Role() string                   { return b.db.Role() }
func (b dbBackend) Pos() sqldb.ReplPos             { return b.db.Pos() }

// Server serves a database (or any Backend) to remote clients.
type Server struct {
	db      *sqldb.DB // nil when serving a non-database Backend
	backend Backend
	ln      net.Listener

	// Replication configuration (see repl.go): source streams WAL
	// frames on SUBSCRIBE (primaries only); replState answers STATUS
	// and wait-for-LSN bounds on a replica; readOnly rejects mutations
	// with sqldb.ErrReadOnly; advertise is the address reported in
	// STATUS for client-side routing.
	source    ReplSource
	replState ReplState
	live      LiveBackend
	readOnly  bool
	advertise string

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps db in an unstarted server.
func NewServer(db *sqldb.DB) *Server {
	return &Server{db: db, backend: dbBackend{db}, conns: make(map[net.Conn]struct{})}
}

// NewBackendServer wraps an arbitrary Backend — e.g. a shard
// coordinator — in an unstarted server. SQL, bulk inserts, pipelines
// and STATUS work; replication verbs answer with a typed error.
func NewBackendServer(b Backend) *Server {
	return &Server{backend: b, conns: make(map[net.Conn]struct{})}
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0").
// It returns once the listener is ready; serving continues in the
// background until Close.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the listen address, valid after Listen.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)

	// Version handshake: the first message must be a Hello carrying a
	// protocol version we speak. A v1 client's first message has no
	// Hello — it gets a typed "version" error response (which a v1
	// client renders as a plain error) and the connection closes, so
	// neither side hangs or misparses frames.
	var hello request
	if err := dec.Decode(&hello); err != nil {
		return
	}
	if hello.Hello == nil || hello.Hello.Version != ProtocolVersion {
		got := 1 // a request without Hello is the v1 protocol
		if hello.Hello != nil {
			got = hello.Hello.Version
		}
		resp := response{
			Code: codeVersion,
			Err:  fmt.Sprintf("wire: protocol version mismatch: server speaks v%d, client sent v%d", ProtocolVersion, got),
		}
		enc.Encode(&resp) //nolint:errcheck // closing anyway
		return
	}
	ack := response{Hello: &HelloAck{Version: ProtocolVersion, Role: s.backend.Role(), Advertise: s.advertise}}
	s.stampPos(&ack)
	if err := enc.Encode(&ack); err != nil {
		return
	}

	// Each connection is one transactional session: BEGIN scopes to
	// this connection only, and concurrent connections' transactions
	// validate optimistically at COMMIT. Closing the session rolls
	// back whatever a dropped connection left open.
	sess := s.backend.NewWireSession()
	defer sess.Close()

	for {
		if fpServerRead.Inject() != nil {
			return // injected disconnect before the next request
		}
		var req request
		if err := dec.Decode(&req); err != nil {
			return // client gone or protocol error
		}
		if req.Verb == verbSubscribe {
			// The connection becomes a one-way frame stream; serveStream
			// returns when the subscriber or subscription goes away.
			s.serveStream(conn, enc, &req)
			return
		}
		if req.Verb == verbWatch {
			// Likewise one-way: the connection becomes an alert stream.
			s.serveWatch(conn, enc, &req)
			return
		}
		var resp response
		if len(req.Batch) > 0 {
			resp = s.execBatch(sess, req.Batch)
		} else {
			resp = s.execOne(sess, &req)
		}
		if fpServerWrite.Inject() != nil {
			return // injected disconnect with a response in flight
		}
		if err := enc.Encode(&resp); err != nil {
			return
		}
	}
}

// stampPos records the backend's replication position on a response.
func (s *Server) stampPos(resp *response) {
	pos := s.backend.Pos()
	resp.Epoch, resp.LSN = pos.Epoch, pos.LSN
}

// execOne runs a single (non-batch) request against the connection's
// session. The named result matters: the deferred stamp must see the
// post-commit position on the response actually returned.
func (s *Server) execOne(sess BackendSession, req *request) (resp response) {
	defer s.stampPos(&resp)
	switch req.Verb {
	case "":
	case verbStatus:
		st := s.status()
		resp.Status = &st
		return resp
	case verbSnapshot:
		if s.db == nil {
			resp.Code = codeBadVerb
			resp.Err = "wire: backend does not serve snapshots"
			return resp
		}
		if err := fpSnapshotTransfer.Inject(); err != nil {
			fail(&resp, err)
			return resp
		}
		image, pos, err := s.db.ExportState()
		if err != nil {
			fail(&resp, err)
			return resp
		}
		resp.State, resp.StateEpoch, resp.StateLSN = image, pos.Epoch, pos.LSN
		return resp
	case verbIngest, verbView, verbViews:
		return s.execLive(req)
	default:
		resp.Code = codeBadVerb
		resp.Err = fmt.Sprintf("wire: unknown verb %q", req.Verb)
		return resp
	}
	if req.Wait {
		if err := s.waitApplied(sqldb.ReplPos{Epoch: req.WaitEpoch, LSN: req.WaitLSN}, req.WaitMS); err != nil {
			fail(&resp, err)
			return resp
		}
	}
	ss := serverSession{s, sess}
	if req.Bulk {
		n, err := ss.InsertRows(req.Table, req.Cols, req.Rows)
		if err != nil {
			fail(&resp, err)
		} else {
			resp.Affected = n
		}
		return resp
	}
	res, err := ss.Exec(req.SQL)
	if err != nil {
		fail(&resp, err)
	} else {
		resp.Columns = res.Columns
		resp.Rows = res.Rows
		resp.Affected = res.Affected
	}
	return resp
}

// execBatch runs a pipeline on the connection's session under
// sqldb.RunPipeline's rule: in order, stopping at the first failure, and
// a transaction the batch began rolled back if it stops inside it. The
// response holds one sub-response per request that ran, the failed one
// last, with its error code.
func (s *Server) execBatch(sess BackendSession, batch []request) (resp response) {
	defer s.stampPos(&resp)
	reqs := make([]sqldb.PipelineRequest, len(batch))
	for i, r := range batch {
		reqs[i] = sqldb.PipelineRequest{SQL: r.SQL, Bulk: r.Bulk, Table: r.Table, Cols: r.Cols, Rows: r.Rows, From: r.From}
		if r.Pour && r.From == nil {
			reqs[i].From = []string{}
		}
	}
	// The session runs the batch itself, pours natively where it can; a
	// read-only server puts its checks in between, and a pour reaches
	// them as the statement it stands for.
	var ps sqldb.PipelineSession = sess
	if s.readOnly {
		ps = serverSession{s, sess}
	}
	results, err := sqldb.RunPipeline(ps, reqs)
	resp.Batch = make([]response, len(results), len(results)+1)
	for i, res := range results {
		resp.Batch[i] = response{Columns: res.Columns, Rows: res.Rows, Affected: res.Affected}
	}
	if err != nil {
		var sr response
		fail(&sr, err)
		resp.Batch = append(resp.Batch, sr)
	}
	return resp
}

// serverSession is a connection's session as the server runs requests
// on it: a read-only server refuses mutations before they reach it.
type serverSession struct {
	srv *Server
	BackendSession
}

func (ss serverSession) Exec(sql string) (*sqldb.Result, error) {
	if ss.srv.readOnly {
		if err := checkReadOnly(sql); err != nil {
			return nil, err
		}
	}
	return ss.BackendSession.Exec(sql)
}

func (ss serverSession) InsertRows(table string, cols []string, rows []sqldb.Row) (int, error) {
	if ss.srv.readOnly {
		return 0, sqldb.ErrReadOnly
	}
	return ss.BackendSession.InsertRows(table, cols, rows)
}

// checkReadOnly parses sql and rejects anything but SELECT/EXPLAIN.
func checkReadOnly(sql string) error {
	st, err := sqldb.Parse(sql)
	if err != nil {
		return err
	}
	switch st.(type) {
	case *sqldb.SelectStmt, *sqldb.ExplainStmt:
		return nil
	}
	return sqldb.ErrReadOnly
}

// fail records err on resp, mapping the typed error classes to their
// wire codes so the client can reconstruct them.
func fail(resp *response, err error) {
	resp.Err = err.Error()
	switch {
	case errors.Is(err, sqldb.ErrTxnBusy):
		resp.Code = codeBusy
	case errors.Is(err, sqldb.ErrTxnConflict):
		resp.Code = codeConflict
	case errors.Is(err, sqldb.ErrReadOnly):
		resp.Code = codeReadOnly
	case errors.Is(err, ErrSnapshotNeeded):
		resp.Code = codeSnapshotNeeded
	case errors.Is(err, ErrWaitTimeout):
		resp.Code = codeWaitTimeout
	case errors.Is(err, sqldb.ErrTableExists):
		resp.Code = codeTableExists
	case errors.Is(err, sqldb.ErrCorruptCheckpoint):
		resp.Code = codeCorrupt
	}
}

// Close stops the listener and terminates all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

// RetryPolicy configures automatic retry of the two retryable error
// classes, which differ in scope:
//
//   - sqldb.ErrTxnBusy (this session already has an open transaction,
//     like SQLITE_BUSY) is statement-retryable: Client.Exec re-sends
//     the failed statement.
//   - sqldb.ErrTxnConflict (optimistic validation failed at COMMIT;
//     the transaction has been rolled back) is transaction-retryable:
//     only Client.RunTxn can retry it, by re-running the whole
//     transaction from BEGIN. Re-sending the COMMIT alone is
//     meaningless — the transaction no longer exists.
//
// Retry is opt-in via Client.SetRetryPolicy; the zero policy disables
// it. Between attempts the client sleeps an exponentially growing
// delay starting at BaseDelay and capped at MaxDelay.
type RetryPolicy struct {
	// MaxAttempts bounds the total number of tries (the first attempt
	// included). Zero or one disables retry.
	MaxAttempts int
	// BaseDelay is the sleep before the first retry; it doubles per
	// attempt. Defaults to 1ms when zero.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Defaults to 100ms when zero.
	MaxDelay time.Duration
}

// backoff returns the sleep before retry attempt n (0-based).
func (p RetryPolicy) backoff(n int) time.Duration {
	d := p.BaseDelay
	if d <= 0 {
		d = time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 100 * time.Millisecond
	}
	for ; n > 0 && d < max; n-- {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// Client is a connection to a remote database server. It implements
// sqldb.Querier; concurrent Exec calls are serialized on the single
// connection.
type Client struct {
	mu        sync.Mutex
	conn      net.Conn
	enc       *gob.Encoder
	dec       *gob.Decoder
	retry     RetryPolicy
	hello     HelloAck
	streaming bool
	// lastPos is the server replication position piggybacked on the
	// most recent response — the client's read-your-writes watermark.
	lastPos sqldb.ReplPos
}

// handshakeTimeout bounds the version handshake so dialing a
// non-speaking peer fails instead of hanging.
const handshakeTimeout = 5 * time.Second

// ErrDial is the typed, retryable class of connection-establishment
// failures: the peer is unreachable or refused the connection. Callers
// use errors.Is(err, ErrDial) to distinguish "server down — fail over
// to a replica or retry" from a query error, which retrying cannot
// fix. The parquery pool and the shard coordinator both route on it.
var ErrDial = errors.New("wire: dial failed")

// Dial connects to a server and performs the protocol handshake. A
// peer that does not speak this protocol version yields a typed
// ErrVersionMismatch; an unreachable peer yields a typed ErrDial.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrDial, addr, err)
	}
	c := &Client{
		conn: conn,
		enc:  gob.NewEncoder(conn),
		dec:  gob.NewDecoder(conn),
	}
	if err := c.handshake(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// handshake sends the Hello and validates the ack. A v1 server
// ignores the unknown Hello field, sees an empty statement, and
// answers a plain error response with no ack — which is exactly the
// version-mismatch signal.
func (c *Client) handshake() error {
	c.conn.SetDeadline(time.Now().Add(handshakeTimeout)) //nolint:errcheck
	defer c.conn.SetDeadline(time.Time{})                //nolint:errcheck
	if err := c.enc.Encode(&request{Hello: &Hello{Version: ProtocolVersion}}); err != nil {
		return fmt.Errorf("wire: handshake send: %w", err)
	}
	var resp response
	if err := c.dec.Decode(&resp); err != nil {
		return fmt.Errorf("wire: handshake: %w", err)
	}
	if resp.Code == codeVersion {
		return fmt.Errorf("%w: %s", ErrVersionMismatch, resp.Err)
	}
	if resp.Hello == nil {
		return fmt.Errorf("%w: peer answered without a protocol ack (v1 server?): %s",
			ErrVersionMismatch, resp.Err)
	}
	if resp.Hello.Version != ProtocolVersion {
		return fmt.Errorf("%w: server speaks v%d, client v%d",
			ErrVersionMismatch, resp.Hello.Version, ProtocolVersion)
	}
	c.hello = *resp.Hello
	c.lastPos = sqldb.ReplPos{Epoch: resp.Epoch, LSN: resp.LSN}
	return nil
}

// SetRetryPolicy enables (or, with the zero policy, disables)
// automatic retry of busy errors on this client. Safe to call
// concurrently with Exec.
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	c.mu.Lock()
	c.retry = p
	c.mu.Unlock()
}

// Exec sends one statement and waits for its result. With a retry
// policy set, a sqldb.ErrTxnBusy failure is retried with capped
// exponential backoff until it succeeds or attempts run out; other
// errors never retry. The connection lock is released between
// attempts, so a busy loop does not starve other users of the client.
func (c *Client) Exec(sql string) (*sqldb.Result, error) {
	res, err := c.execOnce(sql)
	if err == nil || !errors.Is(err, sqldb.ErrTxnBusy) {
		return res, err
	}
	c.mu.Lock()
	policy := c.retry
	c.mu.Unlock()
	for attempt := 1; attempt < policy.MaxAttempts; attempt++ {
		time.Sleep(policy.backoff(attempt - 1))
		res, err = c.execOnce(sql)
		if err == nil || !errors.Is(err, sqldb.ErrTxnBusy) {
			return res, err
		}
	}
	return res, err
}

// execOnce sends one statement, without retry.
func (c *Client) execOnce(sql string) (*sqldb.Result, error) {
	return result(c.roundTrip(&request{SQL: sql}))
}

// result is a statement's answer as a Result.
func result(resp *response, err error) (*sqldb.Result, error) {
	if err != nil {
		return nil, err
	}
	return &sqldb.Result{Columns: resp.Columns, Rows: resp.Rows, Affected: resp.Affected}, nil
}

// RunTxn runs fn inside a BEGIN/COMMIT pair on this connection. When
// COMMIT fails with sqldb.ErrTxnConflict — another session committed
// a conflicting change first — the whole transaction is re-run from
// BEGIN, with the client's RetryPolicy governing attempts and backoff
// (conflict retry must replay the transaction's reads and writes
// against fresh state; re-sending COMMIT alone is impossible, the
// conflicted transaction is already rolled back). Any error from fn
// aborts the transaction with ROLLBACK and is returned as-is; fn may
// therefore be re-invoked and must be safe to run multiple times.
func (c *Client) RunTxn(fn func(c *Client) error) error {
	c.mu.Lock()
	policy := c.retry
	c.mu.Unlock()
	attempts := policy.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 0; ; attempt++ {
		if _, err := c.Exec("BEGIN"); err != nil {
			return err
		}
		err := fn(c)
		if err == nil {
			if _, err = c.execOnce("COMMIT"); err == nil {
				return nil
			}
		} else {
			// Abort; the server also rolls back on disconnect, so a
			// failed ROLLBACK (e.g. connection loss) is not fatal here.
			c.execOnce("ROLLBACK") //nolint:errcheck
		}
		if !errors.Is(err, sqldb.ErrTxnConflict) || attempt+1 >= attempts {
			return err
		}
		time.Sleep(policy.backoff(attempt))
	}
}

// roundTrip sends one request and decodes its response, the one
// conversation every verb of the client has with its server: under the
// connection lock, on an open client that is not a one-way stream,
// tracking the piggybacked replication position, an error answer
// returned as its typed error. A successful SUBSCRIBE or WATCH turns
// the client into a stream.
func (c *Client) roundTrip(req *request) (*response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, errors.New("wire: client is closed")
	}
	if c.streaming {
		return nil, errors.New("wire: client is a subscription stream")
	}
	if err := c.enc.Encode(req); err != nil {
		return nil, fmt.Errorf("wire: send: %w", err)
	}
	var resp response
	if err := c.dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("wire: receive: %w", err)
	}
	c.noteResp(&resp)
	if resp.Err != "" {
		return nil, respError(&resp)
	}
	c.streaming = req.Verb == verbSubscribe || req.Verb == verbWatch
	return &resp, nil
}

// noteResp updates the read-your-writes watermark; the caller holds
// c.mu.
func (c *Client) noteResp(resp *response) {
	p := sqldb.ReplPos{Epoch: resp.Epoch, LSN: resp.LSN}
	if c.lastPos.Before(p) {
		c.lastPos = p
	}
}

// respError reconstructs a typed error from a response, mapping the
// wire error codes back to their sentinel errors so errors.Is works
// across the wire.
func respError(resp *response) error {
	switch {
	case resp.Code == codeBusy:
		return fmt.Errorf("wire: %w", sqldb.ErrTxnBusy)
	case resp.Code == codeConflict:
		return fmt.Errorf("wire: %w: %s", sqldb.ErrTxnConflict, resp.Err)
	case resp.Code == codeReadOnly:
		return fmt.Errorf("wire: %w", sqldb.ErrReadOnly)
	case resp.Code == codeVersion:
		return fmt.Errorf("%w: %s", ErrVersionMismatch, resp.Err)
	case resp.Code == codeSnapshotNeeded:
		return fmt.Errorf("wire: %w", ErrSnapshotNeeded)
	case resp.Code == codeWaitTimeout:
		return fmt.Errorf("wire: %w: %s", ErrWaitTimeout, resp.Err)
	case resp.Code == codeTableExists:
		return fmt.Errorf("wire: %w: %s", sqldb.ErrTableExists, resp.Err)
	case resp.Code == codeCorrupt:
		return fmt.Errorf("wire: %w: %s", sqldb.ErrCorruptCheckpoint, resp.Err)
	case resp.Code == codeNoLive:
		return fmt.Errorf("%w: %s", ErrNoLive, resp.Err)
	}
	return errors.New(resp.Err)
}

// InsertRows implements sqldb.BulkInserter over the wire: the rows
// travel in their binary encoding instead of as SQL text.
func (c *Client) InsertRows(table string, cols []string, rows []sqldb.Row) (int, error) {
	resp, err := c.roundTrip(&request{Bulk: true, Table: table, Cols: cols, Rows: rows})
	if err != nil {
		return 0, err
	}
	return resp.Affected, nil
}

// ExecPipeline implements sqldb.Pipeliner over the wire: the whole
// batch travels in one gob message and the server answers with one
// message carrying every result, so a dependent statement sequence
// (temp table creation plus the insert filling it, or a whole
// transaction) costs a single round trip instead of one per statement.
// A failed request's error keeps its type (errors.Is works for
// sqldb.ErrTableExists, sqldb.ErrTxnConflict and the rest), as for a
// single statement.
func (c *Client) ExecPipeline(reqs []sqldb.PipelineRequest) ([]*sqldb.Result, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	batch := make([]request, len(reqs))
	for i, r := range reqs {
		batch[i] = request{SQL: r.SQL, Bulk: r.Bulk, Table: r.Table, Cols: r.Cols, Rows: r.Rows, Pour: r.From != nil, From: r.From}
	}
	resp, err := c.roundTrip(&request{Batch: batch})
	if err != nil {
		return nil, err
	}
	out := make([]*sqldb.Result, 0, len(resp.Batch))
	for i := range resp.Batch {
		sr := &resp.Batch[i]
		if sr.Err != "" {
			return out, fmt.Errorf("wire: pipeline request %d: %w", i, respError(sr))
		}
		out = append(out, &sqldb.Result{Columns: sr.Columns, Rows: sr.Rows, Affected: sr.Affected})
	}
	return out, nil
}

// Close terminates the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Interface conformance: both ends satisfy sqldb.Querier and the bulk
// fast path.
var (
	_ sqldb.Querier      = (*Client)(nil)
	_ sqldb.Querier      = (*sqldb.DB)(nil)
	_ sqldb.BulkInserter = (*Client)(nil)
	_ sqldb.BulkInserter = (*sqldb.DB)(nil)
	_ sqldb.Pipeliner    = (*Client)(nil)
	_ sqldb.Pipeliner    = (*sqldb.DB)(nil)
)
