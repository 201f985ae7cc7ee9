package sqldb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"perfbase/internal/failpoint"
)

// Durability layout: a database directory holds
//
//	columns.blk — the checkpoint: every table as compressed column
//	              blocks plus a directory of them (colblock.go)
//	wal.log     — CRC-framed SQL statement batches executed since
//
// Open reads the checkpoint's directory — not its data: tables are
// created cold and decode their blocks when first touched (schema.go) —
// and replays the WAL. Checkpoint folds the WAL into a fresh checkpoint
// file, carrying over byte for byte every table it has no reason to
// encode again, and Close checkpoints when there is something to fold:
// a session that committed nothing durable leaves the directory exactly
// as it found it. Mutating statements append to the WAL on commit; a
// multi-statement transaction is framed as ONE record, so a crash can
// never surface half of a committed transaction.
//
// The checkpoint is the only copy of what it holds. A write error fails
// the checkpoint — the WAL is not rotated and the previous file stays in
// place — and damage found on the read side is an error
// (ErrCorruptCheckpoint), never an empty table.
//
// WAL file format (v2):
//
//	header:  8-byte magic "PBWAL2\r\n" + uint64 LE epoch
//	frame:   uvarint(len payload) + uint32 LE CRC-32C(payload) + payload
//	payload: repeated { uvarint(len stmt) + stmt }
//
// The epoch ties the WAL to the checkpoint generation it extends: a
// checkpoint renames a file stamped epoch E+1 into place and then resets
// the WAL to epoch E+1. If the process dies between the two steps,
// reopen sees checkpoint epoch E+1 with a WAL still at epoch E and
// discards the stale WAL instead of replaying statements the checkpoint
// already contains (the classic double-apply window). The reverse — a
// WAL ahead of the checkpoint — no crash produces: the checkpoint it
// extended is gone, and Open refuses. Replay stops cleanly at
// the first torn or corrupt frame, reports the recovered position (see
// RecoveryInfo), and truncates the file there so later appends never
// hide behind garbage.
//
// The WAL uses group commit: statements are framed into an in-memory
// buffer under the commit latch and a background flusher writes and
// fsyncs batches, so N concurrent committers pay for one fsync, not N.
// SyncPolicy picks the durability/latency trade-off.

const (
	walFile = "wal.log"
	// oldSnapshotFile is what a directory written before columns.blk
	// became the checkpoint keeps its rows in; Open refuses such a
	// directory (ErrOldFormat) instead of opening it empty.
	oldSnapshotFile = "snapshot.gob"
)

// walMagic identifies a v2 WAL file; the header is the magic plus a
// little-endian uint64 epoch.
var walMagic = [8]byte{'P', 'B', 'W', 'A', 'L', '2', '\r', '\n'}

const walHeaderSize = 16

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// Failpoint sites of the persistence layer. Disabled, each costs one
// atomic load; the torture harness arms them to kill the process (or
// tear a write) at every stage of the commit and checkpoint paths.
var (
	fpWALAppend   = failpoint.Site("sqldb/wal/append")
	fpWALWrite    = failpoint.Site("sqldb/wal/write")
	fpWALSync     = failpoint.Site("sqldb/wal/fsync")
	fpWALRotate   = failpoint.Site("sqldb/wal/rotate")
	fpPersistSave = failpoint.Site("sqldb/persist/save")
	fpPersistRen  = failpoint.Site("sqldb/persist/rename")
	fpPersistLoad = failpoint.Site("sqldb/persist/load")
)

// SyncPolicy controls when the WAL is fsynced.
type SyncPolicy int

const (
	// SyncInterval (the default) fsyncs in the background every
	// syncInterval; commits do not wait. A crash can lose the last
	// interval of commits, like PostgreSQL synchronous_commit=off.
	SyncInterval SyncPolicy = iota
	// SyncAlways makes every commit wait until its record is fsynced.
	// Waiters arriving while a flush is in flight are batched into the
	// next fsync (group commit).
	SyncAlways
	// SyncOff never fsyncs; records still reach the OS page cache via
	// the background flusher.
	SyncOff
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	}
	return "interval"
}

// ParseSyncPolicy is the inverse of SyncPolicy.String; unknown names
// return an error. The torture harness hands policies to its child
// process through the environment as strings.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, errorf("unknown sync policy %q", s)
}

// syncInterval is the background fsync cadence under SyncInterval.
const syncInterval = 50 * time.Millisecond

// groupWAL appends framed statement batches to the log file with
// batched writes and group fsync.
type groupWAL struct {
	policy SyncPolicy

	mu     sync.Mutex
	cond   *sync.Cond
	f      *os.File
	buf    []byte // frames enqueued but not yet written
	seq    uint64 // last enqueued frame
	bufTop uint64 // seq of the last frame in buf
	synced uint64 // last fsynced frame
	err    error  // first write/sync error, surfaced to waiters

	flushReq chan struct{}
	quit     chan struct{}
	done     chan struct{}

	// wrmu orders buffer drains: whoever grabs the buffer next writes
	// next, so frames land in the file in enqueue (= LSN) order even
	// with the flusher and a commit leader active at once.
	wrmu sync.Mutex
	// unsynced reports bytes written to the file since its last fsync;
	// a flush with nothing of the kind has nothing to sync. Guarded by
	// wrmu.
	unsynced bool
	// leader reports that a SyncAlways committer is currently draining
	// the buffer and fsyncing on behalf of everyone parked in
	// waitDurable — the leader/follower group-commit protocol.
	leader bool

	// arrivals, when set, reports how many committers are between
	// entering the commit path and enqueueing their frame (see
	// DB.announceCommit). flush yields while it is non-zero so one
	// fsync covers the whole cohort.
	arrivals func() int32
	// bufFrames counts frames currently in buf; the gather loop in
	// flush watches it to detect when a commit cohort has finished
	// enqueueing. Written under mu, read lock-free.
	bufFrames atomic.Int32
	// syncs counts fsync calls — fsyncs-per-commit is the group-commit
	// efficiency metric (see DB.WALSyncs and the occ benchmarks).
	syncs atomic.Uint64
}

// maxGatherSpins bounds the pre-fsync yield loop: enough for a cohort
// of committers to finish their serial validate/publish work and
// enqueue, but a hard cap so a committer stalled behind a long wmu
// hold (checkpoint) cannot wedge the drain. gatherStableSpins is how
// many consecutive yields with no new frames and no announced
// committers count as "the cohort is complete".
const (
	maxGatherSpins    = 128
	gatherStableSpins = 8
)

// openWAL opens (or creates) the WAL for appending. A fresh or empty
// file gets a header stamped with the given epoch; an existing file
// keeps its header (the caller has already validated the epoch during
// replay). With truncate set, any existing contents are discarded and
// a new header is written — the checkpoint rotation path.
func openWAL(path string, policy SyncPolicy, epoch uint64, truncate bool, arrivals func() int32) (*groupWAL, error) {
	flags := os.O_CREATE | os.O_WRONLY
	if truncate {
		flags |= os.O_TRUNC
	} else {
		flags |= os.O_APPEND
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	fresh := st.Size() == 0
	if fresh {
		var hdr [walHeaderSize]byte
		copy(hdr[:8], walMagic[:])
		binary.LittleEndian.PutUint64(hdr[8:], epoch)
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return nil, err
		}
	}
	w := &groupWAL{
		policy:   policy,
		f:        f,
		unsynced: fresh,
		flushReq: make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		arrivals: arrivals, // before the flusher starts: its tick reads it
	}
	w.cond = sync.NewCond(&w.mu)
	go w.run()
	return w, nil
}

// appendFrame appends one CRC-framed record carrying stmts to dst.
// The payload encoding is shared with the replication stream (see
// EncodeFramePayload in repl.go): a streamed frame is bit-compatible
// with a WAL record.
func appendFrame(dst []byte, stmts []string) []byte {
	payload := EncodeFramePayload(stmts)
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	dst = append(dst, lenBuf[:n]...)
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.Checksum(payload, walCRC))
	dst = append(dst, crcBuf[:]...)
	return append(dst, payload...)
}

// enqueue frames a statement batch (one committed unit — a single
// statement, or every statement of a transaction) into the buffer and
// returns its sequence number for waitDurable. It never touches the
// disk. A batch travels in one frame, so recovery sees it entirely or
// not at all.
func (w *groupWAL) enqueue(stmts ...string) uint64 {
	if len(stmts) == 0 {
		return 0
	}
	w.mu.Lock()
	if err := fpWALAppend.Inject(); err != nil {
		// An append failure poisons the WAL like a write error: SyncAlways
		// committers see it in waitDurable; Checkpoint surfaces it too.
		if w.err == nil {
			w.err = err
		}
		w.mu.Unlock()
		return 0
	}
	w.buf = appendFrame(w.buf, stmts)
	w.seq++
	w.bufTop = w.seq
	w.bufFrames.Add(1)
	s := w.seq
	w.mu.Unlock()
	// Under SyncAlways the committer itself drives the write from
	// waitDurable (leader/follower group commit): waking the flusher
	// here would race it to a 1-frame fsync while the rest of the
	// cohort is still enqueueing. Other policies keep the eager flush
	// so the buffer stays small between interval syncs.
	if w.policy != SyncAlways {
		select {
		case w.flushReq <- struct{}{}:
		default: // a flush is already pending; it will pick this frame up
		}
	}
	return s
}

// waitDurable blocks until the record with the given sequence number
// is fsynced. Under SyncInterval and SyncOff commits do not wait and
// it returns immediately.
//
// Under SyncAlways committers form leader/follower groups: the first
// committer to arrive becomes the leader and drains the whole buffer
// into one write+fsync; committers arriving while that fsync is in
// flight enqueue their frames and park here. When the leader finishes
// it hands off, and the next leader syncs the entire parked cohort in
// a single fsync. N concurrent committers therefore cost ~1 fsync per
// cohort instead of N — the mechanism behind multi-writer commit
// scaling on a single disk.
func (w *groupWAL) waitDurable(seq uint64) error {
	if w.policy != SyncAlways || seq == 0 {
		return nil
	}
	w.mu.Lock()
	for w.synced < seq && w.err == nil {
		if w.leader {
			w.cond.Wait()
			continue
		}
		w.leader = true
		w.mu.Unlock()
		w.flush(true)
		w.mu.Lock()
		w.leader = false
		// flush broadcast the new durable horizon; this broadcast lets
		// a parked committer whose frame arrived mid-fsync take over
		// as the next leader.
		w.cond.Broadcast()
	}
	err := w.err
	w.mu.Unlock()
	return err
}

// run is the background flusher: it writes pending frames whenever
// signalled, and under SyncInterval also on a timer — which, on an idle
// database, finds nothing written since the last fsync and does
// nothing.
func (w *groupWAL) run() {
	defer close(w.done)
	var tickC <-chan time.Time
	if w.policy == SyncInterval {
		tick := time.NewTicker(syncInterval)
		defer tick.Stop()
		tickC = tick.C
	}
	for {
		select {
		case <-w.flushReq:
			w.flush(w.policy == SyncAlways)
		case <-tickC:
			w.flush(true)
		case <-w.quit:
			w.flush(w.policy != SyncOff)
			return
		}
	}
}

// flush writes all buffered frames to the file and optionally fsyncs.
// Called by the flusher goroutine and by SyncAlways commit leaders
// (waitDurable); wrmu keeps their file writes from interleaving.
func (w *groupWAL) flush(sync bool) {
	if sync && w.arrivals != nil && (w.bufFrames.Load() > 0 || w.arrivals() > 0) {
		// Gather the cohort: yield until the buffer stops growing and
		// no committer is announced-but-not-yet-enqueued. On one core
		// this runs the rest of a commit cohort to their enqueue before
		// paying the fsync, turning N near-simultaneous commits into
		// one fsync instead of a 1-frame sync followed by an
		// (N-1)-frame sync — the difference between flat and scaling
		// commit throughput. A lone committer exits after
		// gatherStableSpins cheap yields; an idle tick — nothing
		// buffered, nobody announced — has no cohort to wait for.
		frames, stable := w.bufFrames.Load(), 0
		for spins := 0; spins < maxGatherSpins && stable < gatherStableSpins; spins++ {
			runtime.Gosched()
			if cur := w.bufFrames.Load(); cur != frames || w.arrivals() > 0 {
				frames, stable = cur, 0
				continue
			}
			stable++
		}
	}
	// Drain-to-write ordering: wrmu is taken before the buffer grab and
	// held across the write, so concurrent drains (flusher vs commit
	// leader) write their frames in LSN order.
	w.wrmu.Lock()
	defer w.wrmu.Unlock()
	w.mu.Lock()
	buf := w.buf
	top := w.bufTop
	w.buf = nil
	w.bufFrames.Store(0)
	w.mu.Unlock()

	var err error
	if len(buf) > 0 {
		// The write failpoint can tear the write: under crash(N) it
		// writes buf[:N], fsyncs, and kills the process — the torn-tail
		// recovery path's torture vector.
		if err = fpWALWrite.InjectWrite(w.f, buf); err == nil {
			_, err = w.f.Write(buf)
		}
		w.unsynced = true
	}
	if err == nil && sync && w.unsynced {
		if err = fpWALSync.Inject(); err == nil {
			w.syncs.Add(1)
			if err = w.f.Sync(); err == nil {
				w.unsynced = false
			}
		}
	}

	w.mu.Lock()
	if err != nil && w.err == nil {
		w.err = err
	}
	if err == nil && sync && top > w.synced {
		w.synced = top
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// close stops the flusher (final flush included) and closes the file.
func (w *groupWAL) close() error {
	close(w.quit)
	<-w.done
	w.mu.Lock()
	err := w.err
	w.mu.Unlock()
	cerr := w.f.Close()
	if err != nil {
		return err
	}
	return cerr
}

// walContents is the result of scanning a WAL file during recovery.
type walContents struct {
	epoch    uint64
	batches  [][]string
	validOff int64 // byte offset after the last intact frame
	torn     bool  // trailing torn/corrupt bytes were discarded
}

// readWAL scans the log, verifying each frame's CRC, and stops at the
// first torn or corrupt record: everything after an interrupted write
// is untrusted. A missing file reads as an empty epoch-0 log.
func readWAL(path string) (walContents, error) {
	var wc walContents
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return wc, nil
	}
	if err != nil {
		return wc, err
	}
	defer f.Close()

	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		// Shorter than a header (including empty): nothing recoverable.
		wc.torn = err != io.EOF
		return wc, nil
	}
	if string(hdr[:8]) != string(walMagic[:]) {
		// Unrecognized header: treat the whole file as garbage rather
		// than guessing at frame boundaries.
		wc.torn = true
		return wc, nil
	}
	wc.epoch = binary.LittleEndian.Uint64(hdr[8:])
	wc.validOff = walHeaderSize

	r := &countingReader{r: bufio.NewReader(f), n: walHeaderSize}
	for {
		payloadLen, err := binary.ReadUvarint(r)
		if err == io.EOF {
			return wc, nil
		}
		if err != nil || payloadLen > 1<<31 {
			wc.torn = true
			return wc, nil
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
			wc.torn = true
			return wc, nil
		}
		payload := make([]byte, payloadLen)
		if _, err := io.ReadFull(r, payload); err != nil {
			wc.torn = true
			return wc, nil
		}
		if crc32.Checksum(payload, walCRC) != binary.LittleEndian.Uint32(crcBuf[:]) {
			wc.torn = true
			return wc, nil
		}
		stmts, ok := decodeBatch(payload)
		if !ok {
			wc.torn = true
			return wc, nil
		}
		wc.batches = append(wc.batches, stmts)
		wc.validOff = r.n
	}
}

// decodeBatch splits a frame payload into its statements.
func decodeBatch(payload []byte) ([]string, bool) {
	var stmts []string
	for len(payload) > 0 {
		n, sz := binary.Uvarint(payload)
		if sz <= 0 || n > uint64(len(payload)-sz) {
			return nil, false
		}
		stmts = append(stmts, string(payload[sz:sz+int(n)]))
		payload = payload[sz+int(n):]
	}
	return stmts, len(stmts) > 0
}

// countingReader tracks the byte offset consumed from the underlying
// reader, so recovery knows where the last intact frame ends.
type countingReader struct {
	r *bufio.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// RecoveryInfo reports what Open found in the WAL. The torture harness
// (and operators) read it to confirm recovery stopped cleanly at a
// torn tail instead of erroring out or applying a partial commit.
type RecoveryInfo struct {
	// Frames is the number of intact WAL records replayed — the
	// recovered LSN: every acknowledged-durable commit with a sequence
	// number at or below it survived.
	Frames int
	// Statements counts the individual statements those frames carried.
	Statements int
	// TornTail is true when trailing bytes after the last intact frame
	// were discarded (a crash tore the final write).
	TornTail bool
	// StaleWAL is true when the WAL predated the checkpoint (a crash hit
	// between the checkpoint's rename and the WAL rotation) and was
	// discarded wholesale instead of double-applied.
	StaleWAL bool
}

// Open opens (creating if necessary) a durable database in dir with
// the default SyncInterval policy.
func Open(dir string) (*DB, error) {
	return OpenWithPolicy(dir, SyncInterval)
}

// OpenWithPolicy opens a durable database with an explicit WAL sync
// policy. Its cost follows the number of tables and the length of the
// WAL, not the rows the checkpoint holds: those are read when a
// statement first touches their table.
func OpenWithPolicy(dir string, policy SyncPolicy) (_ *DB, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sqldb: open %s: %w", dir, err)
	}
	db := NewMemory()
	db.dir, db.policy = dir, policy

	var snapEpoch uint64
	ck, f, err := openCheckpoint(filepath.Join(dir, blockFile))
	if err != nil {
		return nil, fmt.Errorf("sqldb: open %w", err)
	}
	if ck != nil {
		defer func() {
			if err != nil {
				f.Close()
			}
		}()
		snapEpoch, db.ckpt = ck.epoch, f
		db.env.ckptRead.Add(ck.read)
		db.state.Store(&snapshot{cat: catalogOf(ck.coldTables(db)), env: db.env})
	} else if _, err := os.Stat(filepath.Join(dir, oldSnapshotFile)); err == nil {
		return nil, fmt.Errorf("sqldb: open %s: %w", filepath.Join(dir, oldSnapshotFile), ErrOldFormat)
	}

	// Replay WAL.
	walPath := filepath.Join(dir, walFile)
	wc, err := readWAL(walPath)
	if err != nil {
		return nil, err
	}
	if wc.epoch > snapEpoch {
		// No crash leaves a WAL ahead of its checkpoint; the checkpoint it
		// extended was lost or replaced by an older one. Replaying onto
		// anything else would answer with wrong rows.
		found := "is missing"
		if ck != nil {
			found = fmt.Sprintf("is at epoch %d", snapEpoch)
		}
		return nil, corruptf("%s extends checkpoint epoch %d, but %s %s", walPath, wc.epoch, filepath.Join(dir, blockFile), found)
	}
	stale := wc.epoch < snapEpoch
	if !stale {
		// A frame is one committed transaction, and replays as one: a
		// BEGIN … COMMIT pipeline on a private session. No WAL is open and
		// no hook is registered yet, so nothing is logged again.
		for _, batch := range wc.batches {
			reqs := make([]PipelineRequest, 0, len(batch)+2)
			reqs = append(reqs, PipelineRequest{SQL: "BEGIN"})
			for _, s := range batch {
				reqs = append(reqs, PipelineRequest{SQL: s})
			}
			reqs = append(reqs, PipelineRequest{SQL: "COMMIT"})
			if out, err := db.ExecPipeline(reqs); err != nil {
				return nil, fmt.Errorf("sqldb: WAL replay of %q: %w", reqs[len(out)].SQL, err)
			}
			db.recovery.Frames++
			db.recovery.Statements += len(batch)
		}
	}
	db.recovery.TornTail = wc.torn
	db.recovery.StaleWAL = stale

	if stale {
		// The WAL belongs to the pre-checkpoint generation; its effects
		// are already inside the checkpoint. Discard it and start a fresh
		// log at the checkpoint's epoch.
		db.walEpoch = snapEpoch
		db.setPos(ReplPos{Epoch: snapEpoch})
		w, err := openWAL(walPath, policy, snapEpoch, true, db.commitArrivals.Load)
		if err != nil {
			return nil, err
		}
		db.wal = w
		return db, nil
	}
	if wc.torn {
		// Cut the garbage tail so future appends are never hidden
		// behind it on the next recovery.
		if err := os.Truncate(walPath, wc.validOff); err != nil {
			return nil, err
		}
	}
	db.walEpoch = snapEpoch // == wc.epoch: neither older nor newer
	// The recovered LSN is the number of intact frames replayed.
	db.setPos(ReplPos{Epoch: snapEpoch, LSN: uint64(db.recovery.Frames)})
	w, err := openWAL(walPath, policy, snapEpoch, false, db.commitArrivals.Load)
	if err != nil {
		return nil, err
	}
	db.wal = w
	return db, nil
}

// Recovery returns what the last Open found in the WAL. Zero value for
// memory-only databases and clean opens.
func (db *DB) Recovery() RecoveryInfo { return db.recovery }

// WALSyncs reports how many fsyncs the current WAL has issued; the
// ratio of commits to fsyncs measures group-commit batching. Zero for
// memory-only databases. The counter resets on checkpoint rotation.
func (db *DB) WALSyncs() uint64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.syncs.Load()
}

// stmtSkipsLog reports whether a statement is invisible to the WAL and
// the replication stream: reads, transaction control, and anything
// touching only temporary tables. isTemp resolves a table's temp-ness
// in the transaction overlay the statement left behind; dropTemp
// carries the verdict for an executed DROP TABLE, whose target is
// already gone.
func stmtSkipsLog(st Statement, isTemp func(string) bool, dropTemp bool) bool {
	switch s := st.(type) {
	case *SelectStmt, *ExplainStmt, *BeginStmt, *CommitStmt, *RollbackStmt,
		*PrepareStmt, *CommitPreparedStmt, *RollbackPreparedStmt:
		return true
	case *CreateTableStmt:
		return s.Temp
	case *InsertStmt:
		return isTemp(s.Table)
	case *UpdateStmt:
		return isTemp(s.Table)
	case *DeleteStmt:
		return isTemp(s.Table)
	case *AlterTableStmt:
		return isTemp(s.Table) || s.Rename != "" && isTemp(s.Rename)
	case *DropTableStmt:
		// The table is already gone, so its temp-ness was recorded by
		// execMutation: a dropped temp table's CREATE was never logged,
		// and replaying (or replicating) the bare DROP would error.
		return dropTemp
	}
	return false
}

// waitDurable blocks until the WAL record with the given sequence
// number is durable per the sync policy. Called without db.wmu so
// concurrent committers batch into one fsync. Under SyncAlways a WAL
// write or fsync failure is returned: the commit must not be
// acknowledged as durable when its record never reached the disk.
func (db *DB) waitDurable(seq uint64) error {
	if seq == 0 {
		return nil
	}
	w := db.wal
	if w == nil {
		return nil
	}
	if err := w.waitDurable(seq); err != nil {
		return fmt.Errorf("sqldb: commit not durable: %w", err)
	}
	return nil
}

// Checkpoint folds the WAL into a fresh checkpoint file and resets the
// WAL. It is a no-op for memory-only databases. On an error nothing is
// folded: the previous checkpoint and the WAL that extends it are what
// the next Open finds.
func (db *DB) Checkpoint() error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.dir == "" {
		return nil
	}
	sn := db.state.Load()
	epoch := db.walEpoch + 1
	tables := sn.durableTables()
	f, written, err := writeCheckpoint(filepath.Join(db.dir, blockFile), epoch, tables)
	if err != nil {
		return err
	}
	adoptCheckpoint(f, tables, written)
	db.ckpt = f // the one before closes when the last reader lets go of it
	// Rotate the WAL: stop the old writer, recreate at the new epoch.
	// A crash anywhere in this window leaves checkpoint epoch E+1 with a
	// WAL at epoch E, which recovery discards as stale — never
	// double-applied.
	if db.wal != nil {
		if err := db.wal.close(); err != nil {
			return err
		}
		db.wal = nil
	}
	if err := fpWALRotate.Inject(); err != nil {
		return err
	}
	db.walEpoch = epoch
	w, err := openWAL(filepath.Join(db.dir, walFile), db.policy, epoch, true, db.commitArrivals.Load)
	if err != nil {
		return err
	}
	db.wal = w
	// Advance the replication position to the fresh epoch and tell the
	// stream hub: subscribers behind the rotation need a snapshot.
	pos := ReplPos{Epoch: epoch}
	db.setPos(pos)
	db.fireHooks(pos, nil)
	return nil
}

// Close releases the database, first folding the WAL into a fresh
// checkpoint if there is anything to fold: frames at the current epoch —
// replayed at Open or committed since — or a directory that has no
// checkpoint yet. Otherwise checkpoint and WAL header already say
// everything, and no file is written.
func (db *DB) Close() error {
	db.wmu.Lock()
	fold := db.dir != "" && (db.Pos().LSN > 0 || db.ckpt == nil)
	db.wmu.Unlock()
	if fold {
		if err := db.Checkpoint(); err != nil {
			return err
		}
	}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.ckpt != nil {
		db.ckpt.Close() //nolint:errcheck // only ever read through this handle
		db.ckpt = nil
	}
	if db.wal != nil {
		err := db.wal.close()
		db.wal = nil
		return err
	}
	return nil
}

// crashWAL abandons the WAL without checkpointing: buffered frames are
// flushed to the file, the flusher stops, and the database keeps
// running undurably — simulating a crash for reopen tests.
func (db *DB) crashWAL() {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.wal != nil {
		db.wal.close() //nolint:errcheck // crash simulation, errors irrelevant
		db.wal = nil
	}
}
