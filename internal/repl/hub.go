// Package repl implements WAL streaming replication: a primary
// pbserver streams WAL v2 frames (one committed transaction per
// frame, CRC-32C checksummed, positioned by epoch/LSN) to read-only
// replicas that apply them transactionally into their own MVCC
// snapshot stores.
//
// The paper's perfbase is a shared lab-wide store: many users query
// while runs keep streaming in. One server bounds read throughput;
// replication lifts it horizontally. The design reuses the durability
// machinery wholesale — the replication stream carries exactly the
// frames the primary's WAL fsyncs, with the same payload bytes and
// checksum, so "what a replica applied" and "what recovery would
// replay" are the same by construction.
//
// Three pieces:
//
//   - Hub (this file): the primary-side frame history and broadcast
//     fan-out, fed by the engine's commit hook. wire.Server streams
//     from it on SUBSCRIBE.
//   - Replica (replica.go): the receiver loop — bootstrap via
//     snapshot transfer when behind history, tail the stream, verify
//     CRCs, apply frames transactionally, track lag, reconnect
//     forever.
//   - Router (router.go): the replica-aware client — SELECTs
//     round-robin over replicas (optionally bounded by a wait-for-LSN
//     read-your-writes watermark), mutations go to the primary.
package repl

import (
	"fmt"
	"sync"

	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
)

// defaultHistory is the number of frames the hub retains after their
// broadcast. A subscriber reconnecting within this window resumes in
// place; one further behind (or behind a WAL rotation, which clears
// the window) re-bootstraps from a snapshot.
const defaultHistory = 1024

// subBuffer is each subscriber's channel depth. The commit hook runs
// under the engine's writer lock and must never block: a subscriber
// this far behind its feed is killed (channel closed) and will
// reconnect through the normal catch-up path.
const subBuffer = 256

// Hub is the primary-side replication source: it observes every
// committed frame via the engine's commit hook, keeps a bounded
// in-memory history for resuming subscribers, and fans frames out to
// live subscriptions. It implements wire.ReplSource.
type Hub struct {
	db     *sqldb.DB
	unhook func() // removes the hub's commit hook

	mu      sync.Mutex
	epoch   uint64
	base    uint64 // LSN of the frame before history[0]
	history []wire.Frame
	cap     int
	subs    map[*subscription]struct{}
	closed  bool
}

// subscription is one live subscriber feed.
type subscription struct {
	hub *Hub
	ch  chan wire.Frame
	// dead is set (under hub.mu) when the feed overran its buffer and
	// the channel was closed.
	dead bool
}

func (s *subscription) Frames() <-chan wire.Frame { return s.ch }

func (s *subscription) Close() {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	s.hub.detach(s)
}

// detach removes a subscription and closes its feed; caller holds mu.
func (h *Hub) detach(s *subscription) {
	if _, ok := h.subs[s]; !ok {
		return
	}
	delete(h.subs, s)
	if !s.dead {
		s.dead = true
		close(s.ch)
	}
}

// NewHub attaches a hub to the primary's database. The hub registers
// the engine commit hook; call Close to detach it.
func NewHub(db *sqldb.DB) *Hub {
	h := &Hub{
		db:    db,
		epoch: db.Pos().Epoch,
		base:  db.Pos().LSN,
		cap:   defaultHistory,
		subs:  make(map[*subscription]struct{}),
	}
	h.unhook = db.AddCommitHook(h.onCommit)
	return h
}

// onCommit is the engine commit hook: it runs under the commit latch,
// strictly in commit order. nil stmts is a WAL rotation.
func (h *Hub) onCommit(pos sqldb.ReplPos, stmts []string) {
	var fr wire.Frame
	if stmts == nil {
		fr = wire.Frame{Epoch: pos.Epoch, LSN: pos.LSN, Rotate: true}
	} else {
		payload := sqldb.EncodeFramePayload(stmts)
		fr = wire.Frame{
			Epoch:   pos.Epoch,
			LSN:     pos.LSN,
			CRC:     sqldb.FrameCRC(payload),
			Payload: payload,
		}
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	if fr.Rotate {
		// Checkpoint: every earlier frame is folded into the snapshot,
		// so the pre-rotation history can never be resumed from.
		h.epoch = pos.Epoch
		h.base = pos.LSN
		h.history = h.history[:0]
	} else {
		h.history = append(h.history, fr)
		if len(h.history) > h.cap {
			drop := len(h.history) - h.cap
			h.base += uint64(drop)
			h.history = append(h.history[:0], h.history[drop:]...)
		}
	}
	for s := range h.subs {
		select {
		case s.ch <- fr:
		default:
			// The hook must not block: a subscriber this far behind is
			// cut off and reconnects through catch-up.
			h.detach(s)
		}
	}
}

// SubscribeFrom implements wire.ReplSource: it opens a feed of every
// frame after (epoch, lsn). A position outside the retained history —
// older than the window, behind a rotation, or ahead of the primary
// (the subscriber applied frames a crashed primary lost) — returns
// wire.ErrSnapshotNeeded.
func (h *Hub) SubscribeFrom(epoch, lsn uint64) (wire.ReplSubscription, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, fmt.Errorf("repl: hub closed")
	}
	cur := h.base + uint64(len(h.history))
	if epoch != h.epoch || lsn < h.base || lsn > cur {
		return nil, fmt.Errorf("%w (want %d/%d, history %d/%d..%d)",
			wire.ErrSnapshotNeeded, epoch, lsn, h.epoch, h.base, cur)
	}
	s := &subscription{hub: h, ch: make(chan wire.Frame, subBuffer+int(cur-lsn))}
	// Preload the backlog so the subscriber sees a gapless sequence
	// from lsn+1 onward before any live frame.
	for _, fr := range h.history[lsn-h.base:] {
		s.ch <- fr
	}
	h.subs[s] = struct{}{}
	return s, nil
}

// Close detaches the hub from the database and terminates every
// subscription.
func (h *Hub) Close() {
	h.unhook()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for s := range h.subs {
		h.detach(s)
	}
}
