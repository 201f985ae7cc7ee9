package wire

import (
	"errors"
	"fmt"
	"net"
	"time"

	"encoding/gob"

	"perfbase/internal/failpoint"
	"perfbase/internal/sqldb"
)

// Protocol v2: replication verbs. A primary serves SUBSCRIBE (the
// connection becomes a one-way stream of WAL v2 frames), SNAPSHOT
// (full-state bootstrap transfer — since v5 a checkpoint image, the
// bytes of a columns.blk — stamped with the primary's epoch/LSN), and
// STATUS (role, position, lag, recovery info — the observability
// satellite). A replica's server additionally enforces
// read-only execution and honours wait-for-LSN read bounds.
//
// The frame payload on the wire is byte-identical to a WAL v2 record
// payload (sqldb.EncodeFramePayload) and carries the same CRC-32C, so
// a replica verifies exactly the checksum the primary's WAL fsynced.

// ProtocolVersion is the wire protocol generation. v1 had no
// handshake; v2 adds the Hello exchange and the replication verbs; v3
// the pour pipeline step, which a v2 peer would run as its bare SELECT;
// v4 carries a Timestamp as its Unix nanoseconds, in a value and in a
// bootstrap's column blocks, which a v3 peer would not decode; v5 answers
// SNAPSHOT with a checkpoint image in place of v4's per-table blocks.
const ProtocolVersion = 5

// Hello opens every connection.
type Hello struct {
	Version int
}

// HelloAck answers a Hello.
type HelloAck struct {
	Version   int
	Role      string
	Advertise string
}

// Verbs and error codes carried in request.Verb / response.Code.
const (
	verbSubscribe = "subscribe"
	verbSnapshot  = "snapshot"
	verbStatus    = "status"

	codeBusy           = "busy"
	codeConflict       = "conflict"
	codeReadOnly       = "readonly"
	codeVersion        = "version"
	codeSnapshotNeeded = "snapshot-needed"
	codeWaitTimeout    = "wait-timeout"
	codeBadVerb        = "bad-verb"
	codeNotPrimary     = "not-primary"
	codeTableExists    = "table-exists"
	codeCorrupt        = "corrupt-checkpoint"
)

// Typed errors of the replication protocol.
var (
	// ErrVersionMismatch reports a peer speaking a different protocol
	// version; returned by Dial and by requests against such a peer.
	ErrVersionMismatch = errors.New("wire: protocol version mismatch")
	// ErrSnapshotNeeded reports a subscription position that is no
	// longer in the primary's frame history (the WAL rotated past it):
	// the subscriber must bootstrap from a snapshot first.
	ErrSnapshotNeeded = errors.New("wire: position out of frame history, snapshot bootstrap required")
	// ErrWaitTimeout reports a wait-for-LSN read bound that did not
	// become visible within the request's timeout.
	ErrWaitTimeout = errors.New("wire: wait-for-LSN timeout")
	// ErrNotPrimary reports a replication verb sent to a server with no
	// frame source attached.
	ErrNotPrimary = errors.New("wire: server is not a replication primary")
)

// Failpoint sites of the replication protocol paths.
var (
	// fpSenderSend fires before each frame encode on the primary's
	// stream — armed, it severs a subscription mid-stream.
	fpSenderSend = failpoint.Site("repl/sender/send")
	// fpSnapshotTransfer fires at the head of a SNAPSHOT export — the
	// bootstrap-interrupted torture vector.
	fpSnapshotTransfer = failpoint.Site("repl/snapshot/transfer")
)

// Frame is one replication stream message. Regular frames carry a WAL
// v2 payload with its CRC; Rotate announces a checkpoint (the epoch
// advanced and history restarted — positions jump to Epoch/0);
// Heartbeat frames carry only the primary's current position so
// replicas can measure lag while idle. Err reports a terminal stream
// condition (e.g. the subscriber fell out of the history window).
type Frame struct {
	Epoch     uint64
	LSN       uint64
	CRC       uint32
	Payload   []byte
	Rotate    bool
	Heartbeat bool
	Err       string
}

// Stmts decodes and CRC-verifies the frame payload.
func (f *Frame) Stmts() ([]string, error) {
	if sqldb.FrameCRC(f.Payload) != f.CRC {
		return nil, fmt.Errorf("wire: frame %d/%d CRC mismatch", f.Epoch, f.LSN)
	}
	stmts, ok := sqldb.DecodeFramePayload(f.Payload)
	if !ok {
		return nil, fmt.Errorf("wire: frame %d/%d payload corrupt", f.Epoch, f.LSN)
	}
	return stmts, nil
}

// ReplSubscription is a live frame feed handed out by a ReplSource.
type ReplSubscription interface {
	// Frames is the feed; it closes when the subscription dies (slow
	// consumer overrun or source shutdown).
	Frames() <-chan Frame
	// Close releases the subscription.
	Close()
}

// ReplSource is the primary-side frame history the server streams
// from; internal/repl.Hub implements it.
type ReplSource interface {
	// SubscribeFrom opens a feed of every frame after (epoch, lsn).
	// Positions that rotated out of history return ErrSnapshotNeeded
	// (possibly wrapped).
	SubscribeFrom(epoch, lsn uint64) (ReplSubscription, error)
}

// ReplState reports a node's replication status and applied-position
// waits; internal/repl.Replica implements it for replicas. Servers
// without one fall back to the local database's position.
type ReplState interface {
	Status() Status
	// WaitApplied blocks until the node's applied position reaches at
	// least (epoch, lsn) or the timeout elapses (ErrWaitTimeout).
	WaitApplied(epoch, lsn uint64, timeout time.Duration) error
}

// Status is the STATUS verb's answer: the node's role, its replication
// position, and (for replicas) the last known primary position and the
// frame lag between the two.
type Status struct {
	Role      string
	Advertise string
	// Epoch/LSN is this node's replication position (applied position
	// on a replica).
	Epoch uint64
	LSN   uint64
	// PrimaryEpoch/PrimaryLSN is the primary's position as last
	// reported over the stream (replicas only).
	PrimaryEpoch uint64
	PrimaryLSN   uint64
	// LagFrames is PrimaryLSN - LSN when the epochs agree; -1 when the
	// replica is a whole rotation behind (lag unquantifiable in
	// frames).
	LagFrames int64
	// Connected reports whether a replica's tail loop currently holds a
	// live subscription.
	Connected  bool
	SyncPolicy string
	Recovery   sqldb.RecoveryInfo
}

// SetReplSource attaches the frame history the server streams from on
// SUBSCRIBE, making it a replication primary. Set before Listen.
func (s *Server) SetReplSource(src ReplSource) { s.source = src }

// SetReplState attaches the node's status/wait provider (replicas: the
// repl.Replica). Set before Listen.
func (s *Server) SetReplState(rs ReplState) { s.replState = rs }

// SetReadOnly makes the server reject every mutation with
// sqldb.ErrReadOnly; replicas serve with this set. Set before Listen.
func (s *Server) SetReadOnly(ro bool) { s.readOnly = ro }

// SetAdvertise sets the address the server reports in STATUS, for
// clients building routing tables. Set before Listen.
func (s *Server) SetAdvertise(addr string) { s.advertise = addr }

// status builds the STATUS answer, preferring the attached ReplState
// (a replica's live lag tracking) over the local-database default.
func (s *Server) status() Status {
	var st Status
	if s.replState != nil {
		st = s.replState.Status()
	} else {
		pos := s.backend.Pos()
		st = Status{
			Role:  s.backend.Role(),
			Epoch: pos.Epoch,
			LSN:   pos.LSN,
		}
	}
	if st.Advertise == "" {
		st.Advertise = s.advertise
	}
	if s.db != nil {
		st.SyncPolicy = s.db.WALPolicyName()
		st.Recovery = s.db.Recovery()
	}
	return st
}

// waitApplied blocks until the node's position reaches want. With a
// ReplState attached the wait is condition-driven; the fallback polls
// the local database (a primary's position advances with its own
// commits, so the fast path is one atomic load).
func (s *Server) waitApplied(want sqldb.ReplPos, waitMS int) error {
	timeout := time.Duration(waitMS) * time.Millisecond
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	if s.replState != nil {
		return s.replState.WaitApplied(want.Epoch, want.LSN, timeout)
	}
	deadline := time.Now().Add(timeout)
	for {
		cur := s.backend.Pos()
		if !cur.Before(want) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: want %v, at %v", ErrWaitTimeout, want, cur)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// streamHeartbeat is the idle-stream heartbeat cadence; it bounds how
// stale a replica's view of the primary position can get.
const streamHeartbeat = 100 * time.Millisecond

// serveStream handles a SUBSCRIBE request: it answers with the
// subscription outcome and then turns the connection into a one-way
// frame stream until the subscriber disconnects or the subscription
// dies.
func (s *Server) serveStream(conn net.Conn, enc *gob.Encoder, req *request) {
	var resp response
	s.stampPos(&resp)
	if s.source == nil {
		resp.Code = codeNotPrimary
		resp.Err = ErrNotPrimary.Error()
		enc.Encode(&resp) //nolint:errcheck // closing anyway
		return
	}
	sub, err := s.source.SubscribeFrom(req.FromEpoch, req.FromLSN)
	if err != nil {
		fail(&resp, err)
		enc.Encode(&resp) //nolint:errcheck // closing anyway
		return
	}
	defer sub.Close()
	if err := enc.Encode(&resp); err != nil {
		return
	}

	// Reader-side close detection: a subscriber that goes away must
	// release the subscription promptly, or the hub keeps buffering for
	// it. The stream is one-way, so any read completing (EOF included)
	// means the subscriber is done.
	done := make(chan struct{})
	go func() {
		var b [1]byte
		conn.Read(b[:]) //nolint:errcheck // any outcome means: stop
		close(done)
	}()

	hb := time.NewTicker(streamHeartbeat)
	defer hb.Stop()
	for {
		var fr Frame
		select {
		case <-done:
			return
		case f, ok := <-sub.Frames():
			if !ok {
				// Subscription killed (history overrun): tell the replica
				// so it re-bootstraps instead of waiting forever.
				fr = Frame{Err: "wire: subscription lost (history overrun)"}
			} else {
				fr = f
			}
		case <-hb.C:
			pos := s.backend.Pos()
			fr = Frame{Epoch: pos.Epoch, LSN: pos.LSN, Heartbeat: true}
		}
		if fpSenderSend.Inject() != nil {
			return // injected sender failure: sever the stream
		}
		if err := enc.Encode(&fr); err != nil {
			return
		}
		if fr.Err != "" {
			return
		}
	}
}

// ----------------------------------------------------------- client

// Role reports the server's replication role from the handshake ack.
func (c *Client) Role() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hello.Role
}

// LastPos returns the highest server replication position observed on
// this client's responses — after a mutation, the position whose
// visibility a read-your-writes read must wait for.
func (c *Client) LastPos() sqldb.ReplPos {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastPos
}

// Status asks the server for its replication status.
func (c *Client) Status() (*Status, error) {
	resp, err := c.roundTrip(&request{Verb: verbStatus})
	if err != nil {
		return nil, err
	}
	if resp.Status == nil {
		return nil, errors.New("wire: status response without status")
	}
	return resp.Status, nil
}

// FetchState transfers the server's full state for replica bootstrap:
// a checkpoint image (sqldb.DB.ExportState) and the position it
// captures, for sqldb.DB.ImportState.
func (c *Client) FetchState() ([]byte, sqldb.ReplPos, error) {
	resp, err := c.roundTrip(&request{Verb: verbSnapshot})
	if err != nil {
		return nil, sqldb.ReplPos{}, err
	}
	if resp.State == nil {
		return nil, sqldb.ReplPos{}, errors.New("wire: snapshot response without state")
	}
	return resp.State, sqldb.ReplPos{Epoch: resp.StateEpoch, LSN: resp.StateLSN}, nil
}

// Subscribe turns the client into a one-way replication stream of
// every frame after pos. On success the client serves NextFrame only;
// ErrSnapshotNeeded means pos rotated out of the primary's history and
// the caller must bootstrap via FetchState on a fresh client first.
func (c *Client) Subscribe(pos sqldb.ReplPos) error {
	_, err := c.roundTrip(&request{Verb: verbSubscribe, FromEpoch: pos.Epoch, FromLSN: pos.LSN})
	return err
}

// NextFrame blocks for the next stream frame; only valid after a
// successful Subscribe. A frame carrying Err reports a terminal stream
// condition as an error.
func (c *Client) NextFrame() (*Frame, error) {
	c.mu.Lock()
	if !c.streaming || c.conn == nil {
		c.mu.Unlock()
		return nil, errors.New("wire: not subscribed")
	}
	dec := c.dec
	c.mu.Unlock()
	// The stream is single-reader; decoding outside the lock lets Close
	// interrupt a blocked read.
	var fr Frame
	if err := dec.Decode(&fr); err != nil {
		return nil, fmt.Errorf("wire: stream: %w", err)
	}
	if fr.Err != "" {
		return nil, errors.New(fr.Err)
	}
	return &fr, nil
}

// ExecWait executes sql after the server's replication position
// reaches at least pos — the read-your-writes staleness bound for
// replica reads. A zero timeout uses the server default (5s).
func (c *Client) ExecWait(sql string, pos sqldb.ReplPos, timeout time.Duration) (*sqldb.Result, error) {
	return result(c.roundTrip(&request{
		SQL:       sql,
		Wait:      true,
		WaitEpoch: pos.Epoch,
		WaitLSN:   pos.LSN,
		WaitMS:    int(timeout / time.Millisecond),
	}))
}
