package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perfbase"
	"perfbase/internal/core"
	"perfbase/internal/input"
	"perfbase/internal/output"
	"perfbase/internal/pbxml"
	"perfbase/internal/query"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op's root span
	Op     int    `json:"op"`     // 0 outside measured operations
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"` // statement class of a database call
	Stmt   string `json:"stmt,omitempty"`  // head of its SQL text
	Rows   int    `json:"rows,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects the spans of all clients of one traced run in memory.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
	// profile sums Results.Profile by element kind over all queries.
	profile map[query.ElemKind]time.Duration
	queries int
	// live holds the open embedded databases, each with what watch hung
	// on it; closed sums the counters of those closed since reset.
	live   map[*sqldb.DB]*watched
	closed dbCounters
}

// dbCounters are the storage counters read from outside sqldb: the bytes
// of the WAL frames it committed and the DB's own WALSyncs and BlockStats.
type dbCounters struct {
	walBytes, walSyncs, blocksScanned, blocksSkipped int64
}

func (a dbCounters) plus(b dbCounters) dbCounters {
	return dbCounters{a.walBytes + b.walBytes, a.walSyncs + b.walSyncs,
		a.blocksScanned + b.blocksScanned, a.blocksSkipped + b.blocksSkipped}
}

func (a dbCounters) minus(b dbCounters) dbCounters {
	return dbCounters{a.walBytes - b.walBytes, a.walSyncs - b.walSyncs,
		a.blocksScanned - b.blocksScanned, a.blocksSkipped - b.blocksSkipped}
}

// watched counts the WAL bytes of one open database from its commit
// stream: a frame is a length prefix, a CRC and the payload both the WAL
// and the replication stream carry. (The size of wal.log would lag behind:
// the flusher writes in the background and Close rotates the file.)
type watched struct {
	walBytes atomic.Int64
	remove   func() // takes the commit hook off again
}

// watch starts counting for an open database.
func (t *tracer) watch(db *sqldb.DB) {
	w := &watched{}
	w.remove = db.AddCommitHook(func(_ sqldb.ReplPos, stmts []string) {
		if len(stmts) == 0 {
			return // a checkpoint, not a frame
		}
		n := len(sqldb.EncodeFramePayload(stmts))
		var prefix [binary.MaxVarintLen64]byte
		w.walBytes.Add(int64(binary.PutUvarint(prefix[:], uint64(n)) + 4 + n))
	})
	t.mu.Lock()
	defer t.mu.Unlock()
	t.live[db] = w
}

func readCounters(db *sqldb.DB, w *watched) dbCounters {
	scanned, skipped := db.BlockStats()
	return dbCounters{w.walBytes.Load(), int64(db.WALSyncs()), scanned, skipped}
}

// unwatch folds the counters of a database about to close into closed.
func (t *tracer) unwatch(db *sqldb.DB) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.live[db]
	w.remove()
	t.closed = t.closed.plus(readCounters(db, w))
	delete(t.live, db)
}

// counters is the running total over closed and open databases.
func (t *tracer) counters() dbCounters {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := t.closed
	for db, w := range t.live {
		sum = sum.plus(readCounters(db, w))
	}
	return sum
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), profile: map[query.ElemKind]time.Duration{}, live: map[*sqldb.DB]*watched{}}
}

// reset drops the spans recorded so far (the traced warm-up). Counters
// run on; their readers take differences.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.ops, t.queries = nil, 0, 0
	t.profile = map[query.ElemKind]time.Duration{}
}

// writeJSONL stores the spans, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStack is one client's view of the tracer: a client runs one
// call at a time, so the open span is the parent of the next.
type tracedStack struct {
	t   *tracer
	cur int // open span, 0 if none
	op  int // current op id, 0 outside ops
}

func (c *tracedStack) begin(name, class, stmt string) int {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	id := len(c.t.spans) + 1
	c.t.spans = append(c.t.spans, span{ID: id, Parent: c.cur, Op: c.op, Name: name, Class: class, Stmt: stmt,
		Start: int64(time.Since(c.t.t0))})
	c.cur = id
	return id
}

func (c *tracedStack) end(id, rows, bytes int) {
	now := int64(time.Since(c.t.t0))
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	s := &c.t.spans[id-1]
	s.End, s.Rows, s.Bytes = now, rows, bytes
	c.cur = s.Parent
}

// span opens a span that is not a database call.
func (c *tracedStack) span(name string) int { return c.begin(name, "", "") }

func (c *tracedStack) beginOp() {
	c.t.mu.Lock()
	c.t.ops++
	c.op = c.t.ops
	c.t.mu.Unlock()
	c.begin("op", "", "")
}

func (c *tracedStack) endOp() {
	c.end(c.cur, 0, 0)
	c.op = 0
}

// backend is what both database handles of the stack offer: *sqldb.DB
// and *wire.Client.
type backend interface {
	sqldb.Querier
	sqldb.BulkInserter
	sqldb.Pipeliner
}

// traceQuerier records one span per database call. It forwards the
// optional interfaces of its backend — BulkInserter and Pipeliner, which
// query/vector.go probes for — and, like both backends, has no HasTable,
// so query/source.go takes the same path as without tracing.
type traceQuerier struct {
	c     *tracedStack
	inner backend
	name  string // sqldb.exec or wire.exec
}

func (q *traceQuerier) Exec(sql string) (*sqldb.Result, error) {
	id := q.c.begin(q.name, classify(sql), sql[:min(len(sql), 80)])
	res, err := q.inner.Exec(sql)
	rows := 0
	if res != nil {
		rows = len(res.Rows) + res.Affected
	}
	q.c.end(id, rows, len(sql))
	return res, err
}

func (q *traceQuerier) InsertRows(table string, cols []string, rows []sqldb.Row) (int, error) {
	id := q.c.begin(q.name, "bulk", table)
	n, err := q.inner.InsertRows(table, cols, rows)
	q.c.end(id, n, 0)
	return n, err
}

func (q *traceQuerier) ExecPipeline(reqs []sqldb.PipelineRequest) ([]*sqldb.Result, error) {
	id := q.c.begin(q.name, "pipeline", "")
	res, err := q.inner.ExecPipeline(reqs)
	q.c.end(id, len(reqs), 0)
	return res, err
}

// classify names the statement class from the head of the SQL text.
func classify(sql string) string {
	head := sql
	if len(head) > 512 {
		head = head[:512]
	}
	head = strings.ToUpper(strings.TrimSpace(head))
	switch {
	case strings.HasPrefix(head, "SELECT"):
		return "select"
	case strings.HasPrefix(head, "INSERT"):
		sel, val := strings.Index(head, "SELECT"), strings.Index(head, "VALUES")
		if sel >= 0 && (val < 0 || sel < val) {
			return "insert_select"
		}
		return "insert_values"
	case strings.HasPrefix(head, "CREATE"):
		if strings.Contains(head, " AS SELECT") {
			return "create_as"
		}
		return "create_table"
	case strings.HasPrefix(head, "UPDATE"):
		return "update"
	case strings.HasPrefix(head, "DROP"):
		return "drop"
	case strings.HasPrefix(head, "DELETE"):
		return "delete"
	}
	return "other"
}

// tracedSession is perfbase.Session rebuilt from the same public
// constructors, with a span around each and a tracing Querier below
// core. equiv_test.go holds it to byte-identical output.
type tracedSession struct {
	c      *tracedStack
	store  *core.Store
	db     *sqldb.DB
	client *wire.Client
}

func (c *tracedStack) OpenDir(dir string) (session, error) {
	id := c.span("sqldb.open")
	db, err := sqldb.Open(dir)
	c.end(id, 0, 0)
	if err != nil {
		return nil, err
	}
	c.t.watch(db)
	s := &tracedSession{c: c, db: db, store: core.NewStore(&traceQuerier{c, db, "sqldb.exec"})}
	if err := s.init(); err != nil {
		db.Close()
		return nil, err
	}
	return s, nil
}

func (c *tracedStack) Connect(addr string) (session, error) {
	id := c.span("wire.dial")
	cl, err := wire.Dial(addr)
	c.end(id, 0, 0)
	if err != nil {
		return nil, err
	}
	s := &tracedSession{c: c, client: cl, store: core.NewStore(&traceQuerier{c, cl, "wire.exec"})}
	if err := s.init(); err != nil {
		cl.Close()
		return nil, err
	}
	return s, nil
}

func (s *tracedSession) init() error {
	id := s.c.span("core.init")
	err := s.store.Init()
	s.c.end(id, 0, 0)
	return err
}

func (s *tracedSession) Close() error {
	if s.client != nil {
		return s.client.Close()
	}
	s.c.t.unwatch(s.db)
	id := s.c.span("sqldb.close")
	err := s.db.Close()
	s.c.end(id, 0, 0)
	return err
}

func (s *tracedSession) Setup(defXML string) error {
	def, err := pbxml.ParseExperiment(strings.NewReader(defXML))
	if err != nil {
		return err
	}
	_, err = s.store.CreateExperiment(def)
	return err
}

func (s *tracedSession) openExperiment(name string) (*core.Experiment, error) {
	id := s.c.span("core.open_experiment")
	exp, err := s.store.OpenExperiment(name)
	s.c.end(id, 0, 0)
	return exp, err
}

func (s *tracedSession) Import(expName, descXML, file string) error {
	defer s.c.end(s.c.span("perfbase.import"), 0, 0)
	id := s.c.span("pbxml.parse_input")
	desc, err := pbxml.ParseInput(strings.NewReader(descXML))
	s.c.end(id, 0, len(descXML))
	if err != nil {
		return err
	}
	if desc.Experiment != expName {
		return fmt.Errorf("input description is for %q, not %q", desc.Experiment, expName)
	}
	exp, err := s.openExperiment(expName)
	if err != nil {
		return err
	}
	id = s.c.span("input.new_importer")
	im, err := input.NewImporter(exp, desc, input.Options{})
	s.c.end(id, 0, 0)
	if err != nil {
		return err
	}
	size := 0
	if fi, err := os.Stat(file); err == nil {
		size = int(fi.Size())
	}
	id = s.c.span("input.import")
	ids, err := im.ImportFiles([]string{file})
	s.c.end(id, len(ids), size)
	if err == nil && len(ids) != 1 {
		err = fmt.Errorf("import of %s created %d runs", file, len(ids))
	}
	return err
}

func (s *tracedSession) Query(specXML, outDir string) ([]perfbase.Document, error) {
	defer s.c.end(s.c.span("perfbase.query"), 0, 0)
	id := s.c.span("pbxml.parse_query")
	spec, err := pbxml.ParseQuery(strings.NewReader(specXML))
	s.c.end(id, 0, len(specXML))
	if err != nil {
		return nil, err
	}
	exp, err := s.openExperiment(spec.Experiment)
	if err != nil {
		return nil, err
	}
	// Engine.Run is BuildPlan followed by RunPlan(plan, nil); the plan is
	// kept to attribute Results.Profile to element kinds.
	id = s.c.span("query.build_plan")
	plan, err := query.BuildPlan(spec)
	s.c.end(id, 0, 0)
	if err != nil {
		return nil, err
	}
	id = s.c.span("query.run")
	res, err := query.NewEngine(exp).RunPlan(plan, nil)
	s.c.end(id, 0, 0)
	if err != nil {
		return nil, err
	}
	s.c.t.mu.Lock()
	s.c.t.queries++
	for el, d := range res.Profile {
		s.c.t.profile[plan.Elements[el].Kind] += d
	}
	s.c.t.mu.Unlock()

	id = s.c.span("output.render")
	var docs []perfbase.Document
	for _, out := range res.Outputs {
		var d []output.Document
		if d, err = output.Render(out.Spec, out.Vectors, out.Data); err != nil {
			break
		}
		docs = append(docs, d...)
	}
	n := 0
	for _, d := range docs {
		n += len(d.Content)
	}
	s.c.end(id, len(docs), n)
	if err != nil {
		return nil, err
	}
	id = s.c.span("output.write")
	err = output.WriteDocuments(outDir, docs)
	s.c.end(id, len(docs), n)
	return docs, err
}
