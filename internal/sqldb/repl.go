package sqldb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"strings"
)

// This file is the engine side of WAL streaming replication (see
// DESIGN.md §7). The WAL v2 frame — one committed transaction, CRC-32C
// framed, inside an epoch — is already the exact unit a replication
// stream wants, so the engine exposes three things on top of the
// existing durability layer:
//
//   - a replication position (ReplPos: the WAL epoch plus the LSN, the
//     count of committed frames within that epoch), maintained for
//     every database (durable or memory) and readable lock-free;
//   - commit hooks that observe every committed frame, in commit
//     order, with its position — internal/repl feeds its stream hub
//     from one;
//   - whole-state export/import stamped with the position, for replica
//     bootstrap at an epoch boundary: the state travels as a checkpoint
//     image, the checkpoint file's own bytes.
//
// A replica applies the streamed statements through the normal write
// path of its own MVCC store, so replica readers stay lock-free, and
// adopts the primary's position frame by frame (AdoptPos).

// ReplPos is a replication position: the WAL epoch (checkpoint
// generation) and the LSN, i.e. the number of committed frames within
// that epoch. Positions are totally ordered: epochs first, then LSNs.
type ReplPos struct {
	Epoch uint64
	LSN   uint64
}

// Before reports whether p is strictly earlier than q.
func (p ReplPos) Before(q ReplPos) bool {
	return p.Epoch < q.Epoch || p.Epoch == q.Epoch && p.LSN < q.LSN
}

func (p ReplPos) String() string {
	return fmt.Sprintf("%d/%d", p.Epoch, p.LSN)
}

// CommitHook observes committed frames. It is called with the
// database's commit latch held, immediately after the frame's snapshot
// is published and its position assigned, so invocations are strictly
// in commit order with strictly increasing positions. stmts holds the
// frame's statements; a nil stmts signals a WAL rotation (checkpoint):
// pos is then the fresh epoch at LSN 0 and all earlier frames are
// folded into the snapshot.
//
// THE HOOK CONTRACT: a hook runs on the committer's goroutine with the
// commit latch (wmu) held. Statements execute outside the latch, but
// every commit in the system — one-statement or BEGIN ... COMMIT —
// publishes under it, so a hook must not block, and it MUST NOT call
// back into the database: a mutation would self-deadlock on the
// (non-reentrant) latch at its own commit, and even a read inside the
// hook would observe a position the rest of the pipeline has not seen
// yet. The engine enforces the no-call-back half of the contract:
// Exec/InsertRows invoked from the hook's goroutine while a hook is
// running fail fast with a typed ErrHookReentrant instead of hanging.
// Consumers that need to query (view recomputation, anomaly analysis)
// must hand the frame to an asynchronous worker — see ViewRegistry
// (matview.go) and internal/live for the canonical shape.
type CommitHook func(pos ReplPos, stmts []string)

// ErrHookReentrant is returned when a commit hook calls back into the
// database. Hooks run under the commit latch in commit order; a
// call-back would deadlock (mutations) or read an inconsistent
// pipeline position (queries), so it is refused fast and typed rather
// than left to hang. Move the work to an async worker fed from the
// hook instead.
var ErrHookReentrant = errors.New("sqldb: commit hook called back into the database (hooks run under the commit latch; queue the work to an async worker instead)")

// hookEntry wraps one AddCommitHook registration; removal filters by
// entry identity, so removing one hook never disturbs the others.
type hookEntry struct{ fn CommitHook }

// AddCommitHook registers a commit hook and returns its removal
// function. Hooks are invoked in registration order under the contract
// above (see CommitHook). The replication hub, the materialized-view
// registry and the live alert pipeline each hold one registration, so
// replication, view maintenance and alerting observe the same commit
// stream independently.
func (db *DB) AddCommitHook(h CommitHook) (remove func()) {
	e := &hookEntry{fn: h}
	db.hooksMu.Lock()
	var list []*hookEntry
	if old := db.hooks.Load(); old != nil {
		list = append(list, *old...)
	}
	list = append(list, e)
	db.hooks.Store(&list)
	db.hooksMu.Unlock()
	return func() {
		db.hooksMu.Lock()
		defer db.hooksMu.Unlock()
		old := db.hooks.Load()
		if old == nil {
			return
		}
		kept := make([]*hookEntry, 0, len(*old))
		for _, oe := range *old {
			if oe != e {
				kept = append(kept, oe)
			}
		}
		db.hooks.Store(&kept)
	}
}

// fireHooks invokes every AddCommitHook registration for one committed
// frame. The caller holds db.wmu. While hooks run, the goroutine is
// marked so any call back into the database fails with
// ErrHookReentrant instead of deadlocking.
func (db *DB) fireHooks(pos ReplPos, stmts []string) {
	hooks := db.hooks.Load()
	if hooks == nil || len(*hooks) == 0 {
		return
	}
	db.hookGoid.Store(goid())
	defer db.hookGoid.Store(0)
	for _, e := range *hooks {
		e.fn(pos, stmts)
	}
}

// hookReentry reports whether the calling goroutine is currently
// executing a commit hook. The armed check is one atomic load; the
// goroutine id is computed only while a hook is actually mid-flight.
func (db *DB) hookReentry() error {
	if g := db.hookGoid.Load(); g != 0 && g == goid() {
		return ErrHookReentrant
	}
	return nil
}

// goid extracts the current goroutine's id from the runtime stack
// header ("goroutine N [..."). Only evaluated while a commit hook is
// executing, so the stack capture is off every normal path.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = "goroutine "
	var id int64
	for _, c := range buf[len(prefix):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// Pos returns the current replication position: the WAL epoch and the
// number of frames committed within it. One atomic load; safe for
// concurrent use.
func (db *DB) Pos() ReplPos {
	if p := db.pos.Load(); p != nil {
		return *p
	}
	return ReplPos{}
}

// AdoptPos overrides the replication position. Replicas call it after
// importing a bootstrap snapshot and after applying each streamed
// frame, so their position mirrors the primary's.
func (db *DB) AdoptPos(p ReplPos) {
	db.wmu.Lock()
	db.setPos(p)
	db.wmu.Unlock()
}

// setPos stores the position; the caller holds db.wmu.
func (db *DB) setPos(p ReplPos) {
	db.pos.Store(&p)
}

// Role returns the database's replication role, "primary" by default.
func (db *DB) Role() string {
	if r := db.role.Load(); r != nil {
		return *r
	}
	return "primary"
}

// SetRole labels the database's replication role ("replica"); the
// label shows up in the EXPLAIN trailer and wire STATUS.
func (db *DB) SetRole(role string) {
	db.role.Store(&role)
}

// WALPolicyName reports the WAL sync policy, or "none" for a memory
// database.
func (db *DB) WALPolicyName() string {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.wal == nil {
		return "none"
	}
	return db.wal.policy.String()
}

// Crash abandons the WAL without checkpointing, simulating a process
// crash for recovery and replication torture tests: buffered frames
// are flushed, the flusher stops, and the in-memory state keeps
// serving undurably. The database directory can then be reopened by a
// fresh Open to exercise recovery.
func (db *DB) Crash() { db.crashWAL() }

// commitBatch assigns the next position to a committed frame, feeds
// the commit hooks, and (for durable databases) enqueues the frame in
// the WAL, returning the WAL sequence number for waitDurable. The
// caller holds db.wmu. Empty batches are not frames.
func (db *DB) commitBatch(stmts []string) uint64 {
	if len(stmts) == 0 {
		return 0
	}
	pos := ReplPos{Epoch: db.walEpoch, LSN: db.Pos().LSN + 1}
	db.setPos(pos)
	db.fireHooks(pos, stmts)
	if db.wal != nil {
		return db.wal.enqueue(stmts...)
	}
	return 0
}

// replicates reports whether committed mutations need frame
// bookkeeping at all: they do when the database is durable or a commit
// hook is attached. Pure worker databases (temp-table scratch space)
// skip the whole path.
func (db *DB) replicates() bool {
	if db.wal != nil {
		return true
	}
	hooks := db.hooks.Load()
	return hooks != nil && len(*hooks) > 0
}

// EncodeFramePayload encodes a statement batch in the WAL v2 frame
// payload format: repeated { uvarint(len stmt) + stmt }. The
// replication stream carries exactly this encoding, checksummed with
// FrameCRC, so a streamed frame is bit-compatible with a WAL record.
func EncodeFramePayload(stmts []string) []byte {
	var payload []byte
	var lenBuf [binary.MaxVarintLen64]byte
	for _, s := range stmts {
		n := binary.PutUvarint(lenBuf[:], uint64(len(s)))
		payload = append(payload, lenBuf[:n]...)
		payload = append(payload, s...)
	}
	return payload
}

// DecodeFramePayload splits a WAL v2 frame payload into statements.
func DecodeFramePayload(payload []byte) ([]string, bool) {
	return decodeBatch(payload)
}

// FrameCRC is the CRC-32C checksum the WAL and the replication stream
// stamp on every frame payload.
func FrameCRC(payload []byte) uint32 {
	return crc32.Checksum(payload, walCRC)
}

// ------------------------------------------------ state export/import

// ExportState captures the committed state and its replication position
// atomically, as a checkpoint image: the bytes a checkpoint of the
// state would put in columns.blk, at the position's epoch — the one
// serialized form of a whole database. The writer lock is held only to
// pair the two; the image is written outside it. A table a checkpoint
// already holds is carried over byte for byte — a replica bootstrapping
// does not make the primary decode anything — and the error is that
// read failing.
func (db *DB) ExportState() ([]byte, ReplPos, error) {
	db.wmu.Lock()
	sn := db.state.Load()
	pos := db.Pos()
	db.wmu.Unlock()

	var image bytes.Buffer
	if _, err := writeCheckpointTo(&image, pos.Epoch, sn.durableTables()); err != nil {
		return nil, ReplPos{}, fmt.Errorf("sqldb: export: %w", err)
	}
	return image.Bytes(), pos, nil
}

// ImportState replaces the database's entire committed state with a
// checkpoint image (ExportState's) and adopts pos — replica bootstrap.
// Every block is checked before anything is installed; then every
// table is installed cold, with the primary's chunk lengths, indexes
// and zone maps, as Open installs a checkpoint's, and hydrates from the
// image when first touched. Each gets a fresh schema version, so no
// cached plan survives the swap. Only sensible on a replica's own
// store; the database must not be durable (the replica's durability is
// the primary's WAL).
func (db *DB) ImportState(image []byte, pos ReplPos) error {
	if db.wal != nil || db.dir != "" {
		return errorf("ImportState: refusing to overwrite a durable database")
	}
	src := bytes.NewReader(image)
	ck, err := readCheckpoint(src, src.Size())
	if err == nil {
		err = ck.scan().damage()
	}
	if err != nil {
		return fmt.Errorf("sqldb: ImportState: %w", err)
	}
	tables := ck.coldTables(db)
	touched := make(map[string]bool, len(tables))
	for _, t := range tables {
		touched[t.key] = true
	}

	db.wmu.Lock()
	old := db.state.Load()
	for t := range old.cat.all() {
		touched[t.key] = true
		db.env.cache.dropSuperseded(t, nil)
	}
	db.state.Store(&snapshot{id: old.id + 1, cat: catalogOf(tables), env: db.env})
	db.setPos(pos)
	db.invalidateSchema(touched)
	db.wmu.Unlock()
	return nil
}

// DumpString renders the complete non-temporary state deterministically
// — tables sorted by name, schema line, then every row in storage
// order. Two databases that applied the same committed frame sequence
// produce byte-identical dumps; the replication torture harness
// compares primary and replica with it.
func (db *DB) DumpString() string {
	var b strings.Builder
	for _, t := range db.state.Load().durableTables() {
		fmt.Fprintf(&b, "== %s (", t.name)
		for i, c := range t.schema {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
		}
		fmt.Fprintf(&b, ") rows=%d\n", t.nrows)
		chunks, err := t.chunks()
		if err != nil {
			// No error to return it in: the dump says so where the rows
			// would be, and so differs from every dump of an intact table.
			fmt.Fprintf(&b, "!! %v\n", err)
		}
		for _, ch := range chunks {
			for _, row := range ch {
				for i, v := range row {
					if i > 0 {
						b.WriteByte('\t')
					}
					if v.IsNull() {
						b.WriteString("NULL")
					} else {
						b.WriteString(v.String())
					}
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// ------------------------------------------------------- WAL scanner

// WALFrame describes one frame found by ScanWALFile.
type WALFrame struct {
	// LSN is the frame's 1-based position within the WAL's epoch.
	LSN uint64
	// Offset is the frame's byte offset in the file; Size its full
	// framed length (length prefix + CRC + payload).
	Offset int64
	Size   int
	// Statements is the number of statements the frame carries.
	Statements int
	// CRCOK is false when the stored checksum does not match the
	// payload; scanning stops after such a frame.
	CRCOK bool
}

// WALInfo is the result of scanning a WAL file without applying it.
type WALInfo struct {
	// Epoch is the checkpoint generation from the WAL header.
	Epoch uint64
	// Frames lists every frame up to and including the first corrupt
	// one (if any).
	Frames []WALFrame
	// Torn is true when trailing bytes after the last intact frame do
	// not form a complete, checksummed frame.
	Torn bool
	// TornOffset is the byte offset where the intact prefix ends.
	TornOffset int64
}

// ScanWALFile reads a WAL v2 file and reports its frames — epoch, LSN,
// CRC status, statement count — without executing anything. It backs
// `pbserver -waldump` and is the read side of the replication stream's
// framing. Unlike recovery it never truncates the file.
func ScanWALFile(path string) (*WALInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	info := &WALInfo{}
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		info.Torn = err != io.EOF
		return info, nil
	}
	if string(hdr[:8]) != string(walMagic[:]) {
		info.Torn = true
		return info, nil
	}
	info.Epoch = binary.LittleEndian.Uint64(hdr[8:])
	info.TornOffset = walHeaderSize

	r := &countingReader{r: bufio.NewReader(f), n: walHeaderSize}
	lsn := uint64(0)
	for {
		start := r.n
		payloadLen, err := binary.ReadUvarint(r)
		if err == io.EOF {
			return info, nil
		}
		if err != nil || payloadLen > 1<<31 {
			info.Torn = true
			return info, nil
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
			info.Torn = true
			return info, nil
		}
		payload := make([]byte, payloadLen)
		if _, err := io.ReadFull(r, payload); err != nil {
			info.Torn = true
			return info, nil
		}
		lsn++
		fr := WALFrame{
			LSN:    lsn,
			Offset: start,
			Size:   int(r.n - start),
			CRCOK:  crc32.Checksum(payload, walCRC) == binary.LittleEndian.Uint32(crcBuf[:]),
		}
		if fr.CRCOK {
			if stmts, ok := decodeBatch(payload); ok {
				fr.Statements = len(stmts)
			} else {
				fr.CRCOK = false
			}
		}
		info.Frames = append(info.Frames, fr)
		if !fr.CRCOK {
			info.Torn = true
			return info, nil
		}
		info.TornOffset = r.n
	}
}

// ErrReadOnly is returned (locally and, typed, across the wire) when a
// mutation is attempted against a read-only replica. Writes belong on
// the primary.
var ErrReadOnly = errors.New("sqldb: server is a read-only replica")
