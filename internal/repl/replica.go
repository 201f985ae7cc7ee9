package repl

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"perfbase/internal/failpoint"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
)

// Failpoint sites of the receiver side. With the sender-side sites in
// sqldb/wire (repl/sender/send, repl/snapshot/transfer) they cover the
// torture matrix of ISSUE 4: sever or fail replication at every stage
// and assert the replica still converges byte-identically.
var (
	fpReconnect = failpoint.Site("repl/receiver/reconnect")
	fpApply     = failpoint.Site("repl/receiver/apply")
	// fpAdvance fires after a frame applied and before its position is
	// published: Status must read a lag of at least zero in between.
	fpAdvance = failpoint.Site("repl/receiver/advance")
)

// Reconnect backoff bounds. The first retry is fast (tests kill and
// restart endpoints constantly); repeated failures back off to avoid
// spinning against a dead primary.
const (
	reconnectMin = 10 * time.Millisecond
	reconnectMax = 200 * time.Millisecond
)

// Replica tails a primary's replication stream into a local database.
// The local store must be memory-only: a replica's durability is the
// primary's WAL, and a restarted replica re-bootstraps from a snapshot
// transfer. Replica implements wire.ReplState so a wire.Server wrapped
// around the same database can answer STATUS and wait-for-LSN reads.
type Replica struct {
	db   *sqldb.DB
	addr string

	mu   sync.Mutex
	cond *sync.Cond
	// applied is the position of the last frame applied locally; it
	// mirrors db.Pos() but lives under mu so WaitApplied can block on
	// cond instead of polling.
	applied sqldb.ReplPos
	// primary is the primary's position as last seen on the stream
	// (frames and heartbeats).
	primary   sqldb.ReplPos
	connected bool
	lastErr   error
	client    *wire.Client // live stream connection, nil when down
	closed    bool

	done chan struct{}
}

// NewReplica starts replicating from the primary at addr into db
// (which gets its role label set to "replica"). The receiver loop runs
// until Close: it bootstraps via snapshot transfer when its position
// is outside the primary's frame history, then tails the stream,
// reconnecting with backoff on any failure.
func NewReplica(db *sqldb.DB, addr string) *Replica {
	db.SetRole("replica")
	r := &Replica{
		db:      db,
		addr:    addr,
		applied: db.Pos(),
		done:    make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	go r.run()
	return r
}

// run is the receiver loop: connect, subscribe (bootstrapping when
// necessary), drain frames, repeat.
func (r *Replica) run() {
	defer close(r.done)
	backoff := reconnectMin
	for {
		if r.isClosed() {
			return
		}
		err := r.connectAndTail()
		if r.isClosed() {
			return
		}
		r.mu.Lock()
		r.connected = false
		r.lastErr = err
		r.client = nil
		r.cond.Broadcast()
		r.mu.Unlock()
		time.Sleep(backoff)
		backoff *= 2
		if backoff > reconnectMax {
			backoff = reconnectMax
		}
	}
}

// connectAndTail performs one connection lifetime: dial, subscribe
// (with snapshot bootstrap when the stream can't resume our position),
// then apply frames until the stream breaks.
func (r *Replica) connectAndTail() error {
	if err := fpReconnect.Inject(); err != nil {
		return fmt.Errorf("repl: reconnect failpoint: %w", err)
	}
	client, err := wire.Dial(r.addr)
	if err != nil {
		return err
	}
	err = client.Subscribe(r.Applied())
	if errors.Is(err, wire.ErrSnapshotNeeded) {
		// Our position is outside the primary's history: before the
		// window, behind a rotation, or ahead of a primary that crashed
		// and lost its unacked tail. All cases re-bootstrap.
		client.Close()
		if client, err = r.bootstrap(); err != nil {
			return err
		}
	} else if err != nil {
		client.Close()
		return err
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		client.Close()
		return nil
	}
	r.client = client
	r.connected = true
	r.lastErr = nil
	r.mu.Unlock()
	defer client.Close()

	for {
		fr, err := client.NextFrame()
		if err != nil {
			return err
		}
		if err := r.handleFrame(fr); err != nil {
			return err
		}
	}
}

// bootstrap transfers a checkpoint image of the primary's state,
// installs its tables (cold, in the primary's chunks), adopts its
// position, and subscribes from there. The returned client is in
// streaming mode. Subscription can race a checkpoint rotation between
// transfer and subscribe; the caller retries the whole connect path.
func (r *Replica) bootstrap() (*wire.Client, error) {
	client, err := wire.Dial(r.addr)
	if err != nil {
		return nil, err
	}
	image, pos, err := client.FetchState()
	if err != nil {
		client.Close()
		return nil, err
	}
	if err := r.db.ImportState(image, pos); err != nil {
		client.Close()
		return nil, fmt.Errorf("repl: import bootstrap state: %w", err)
	}
	r.advance(pos)
	if err := client.Subscribe(pos); err != nil {
		client.Close()
		return nil, err
	}
	return client, nil
}

// handleFrame applies one stream frame. Heartbeats and rotations only
// move positions; a payload frame must extend the applied sequence
// exactly (LSN = applied+1 in the applied epoch) and is executed
// transactionally, so a multi-statement transaction becomes visible to
// replica readers all at once or not at all.
func (r *Replica) handleFrame(fr *wire.Frame) error {
	pos := sqldb.ReplPos{Epoch: fr.Epoch, LSN: fr.LSN}
	if fr.Heartbeat {
		r.notePrimary(pos)
		return nil
	}
	if fr.Rotate {
		// Checkpoint on the primary: all frames we already applied are
		// folded into its snapshot; our state is unchanged but the
		// position coordinates jump to the fresh epoch.
		if r.Applied().Epoch >= fr.Epoch {
			return fmt.Errorf("repl: rotation to epoch %d at applied %v", fr.Epoch, r.Applied())
		}
		r.db.AdoptPos(pos)
		r.advance(pos)
		return nil
	}

	applied := r.Applied()
	want := sqldb.ReplPos{Epoch: applied.Epoch, LSN: applied.LSN + 1}
	if pos != want {
		return fmt.Errorf("repl: stream gap: got frame %v, want %v", pos, want)
	}
	stmts, err := fr.Stmts() // CRC verify + decode
	if err != nil {
		return err
	}
	if err := fpApply.Inject(); err != nil {
		return fmt.Errorf("repl: apply failpoint: %w", err)
	}
	if err := r.apply(stmts); err != nil {
		return err
	}
	if err := fpAdvance.Inject(); err != nil {
		return fmt.Errorf("repl: advance failpoint: %w", err)
	}
	r.db.AdoptPos(pos)
	r.advance(pos)
	return nil
}

// apply executes a frame's statements — one committed transaction on
// the primary — as one BEGIN … COMMIT pipeline on a private session, so
// replica readers see the whole frame or none of it. The COMMIT fires
// the commit hooks with the frame's statements.
func (r *Replica) apply(stmts []string) error {
	reqs := make([]sqldb.PipelineRequest, 0, len(stmts)+2)
	reqs = append(reqs, sqldb.PipelineRequest{SQL: "BEGIN"})
	for _, s := range stmts {
		reqs = append(reqs, sqldb.PipelineRequest{SQL: s})
	}
	reqs = append(reqs, sqldb.PipelineRequest{SQL: "COMMIT"})
	out, err := r.db.ExecPipeline(reqs)
	if err != nil {
		return wrapApply(err, reqs[len(out)].SQL)
	}
	return nil
}

func wrapApply(err error, stmt string) error {
	if err == nil {
		return nil
	}
	if len(stmt) > 80 {
		stmt = stmt[:77] + "..."
	}
	return fmt.Errorf("repl: apply %q: %w", stmt, err)
}

// Applied returns the position of the last locally applied frame.
func (r *Replica) Applied() sqldb.ReplPos {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// advance publishes p as the applied position. The primary has reached
// whatever the replica applied, so the primary's position moves up to p
// in the same critical section: Status never sees one without the
// other, and the lag within an epoch is never negative.
func (r *Replica) advance(p sqldb.ReplPos) {
	r.mu.Lock()
	r.applied = p
	if r.primary.Before(p) {
		r.primary = p
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// notePrimary records the primary's position from a heartbeat.
func (r *Replica) notePrimary(p sqldb.ReplPos) {
	r.mu.Lock()
	if r.primary.Before(p) {
		r.primary = p
	}
	r.mu.Unlock()
}

func (r *Replica) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// Status implements wire.ReplState.
func (r *Replica) Status() wire.Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := wire.Status{
		Role:         "replica",
		Epoch:        r.applied.Epoch,
		LSN:          r.applied.LSN,
		PrimaryEpoch: r.primary.Epoch,
		PrimaryLSN:   r.primary.LSN,
		Connected:    r.connected,
	}
	if r.primary.Epoch == r.applied.Epoch {
		st.LagFrames = int64(r.primary.LSN) - int64(r.applied.LSN)
	} else if r.applied.Before(r.primary) {
		st.LagFrames = -1 // a rotation behind: lag unquantifiable in frames
	}
	return st
}

// WaitApplied implements wire.ReplState: it blocks until the replica
// has applied at least (epoch, lsn) — the server side of the
// wait-for-LSN read-your-writes bound.
func (r *Replica) WaitApplied(epoch, lsn uint64, timeout time.Duration) error {
	want := sqldb.ReplPos{Epoch: epoch, LSN: lsn}
	deadline := time.Now().Add(timeout)
	// The condition variable has no timed wait; a one-shot timer
	// broadcast bounds the sleep.
	timer := time.AfterFunc(timeout, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer timer.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.applied.Before(want) {
		if r.closed {
			return fmt.Errorf("repl: replica closed")
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("%w: want %v, applied %v", wire.ErrWaitTimeout, want, r.applied)
		}
		r.cond.Wait()
	}
	return nil
}

// LastError reports the most recent stream failure (nil while
// connected), for diagnostics.
func (r *Replica) LastError() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

// Connected reports whether the replica currently holds a live stream.
func (r *Replica) Connected() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.connected
}

// Close stops the receiver loop and releases the connection.
func (r *Replica) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	client := r.client
	r.cond.Broadcast()
	r.mu.Unlock()
	if client != nil {
		client.Close()
	}
	<-r.done
}

// WaitCaughtUp blocks until the replica's applied position reaches the
// given position (typically the primary's current Pos()), a
// convergence helper for tests and scripts.
func (r *Replica) WaitCaughtUp(pos sqldb.ReplPos, timeout time.Duration) error {
	return r.WaitApplied(pos.Epoch, pos.LSN, timeout)
}

// interface conformance
var _ wire.ReplState = (*Replica)(nil)
