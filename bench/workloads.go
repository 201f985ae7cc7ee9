package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"perfbase"
	"perfbase/internal/beffio"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
)

const (
	beffExp  = "b_eff_io"
	msgExp   = "msgsweep"
	beffRows = 24 // data sets per b_eff_io file: 3 ops × 8 patterns
)

// buildBeffDir imports files into a fresh durable directory and
// checkpoints it.
func buildBeffDir(dir string, files []string) error {
	s, err := plainStack{}.OpenDir(dir)
	if err != nil {
		return err
	}
	if err := s.Setup(beffio.ExperimentXML); err != nil {
		s.Close()
		return err
	}
	for _, f := range files {
		if err := s.Import(beffExp, beffio.InputXML, f); err != nil {
			s.Close()
			return err
		}
	}
	return s.Close()
}

// goldenSet is a family of queries as a workload runs it: the rendered
// query specifications and, per specification, the documents of a run
// that was checked against the oracle.
type goldenSet struct {
	specs  []string
	golden [][]perfbase.Document
}

// verifyFig8 runs every parameterisation once on s, checks its ASCII
// table against the oracle and keeps the documents as golden bytes.
func verifyFig8(s session, c *beffCorpus, params []fig8Param, outDir string) (goldenSet, error) {
	var set goldenSet
	for _, p := range params {
		spec := p.spec()
		docs, err := s.Query(spec, outDir)
		if err != nil {
			return set, err
		}
		if err := checkTables(docs, map[string][]oracleRow{"fig8.txt": p.expected(c)}); err != nil {
			return set, fmt.Errorf("%+v: %w", p, err)
		}
		set.specs = append(set.specs, spec)
		set.golden = append(set.golden, docs)
	}
	return set, nil
}

// verifyDocs returns the per-op output check against golden bytes.
func verifyDocs(docs *[]perfbase.Document, golden []perfbase.Document) func() error {
	return func() error {
		if !sameDocs(*docs, golden) {
			return fmt.Errorf("documents differ from the verified golden")
		}
		return nil
	}
}

// ---------------------------------------------------------- import_grow

// importGrow is the write path: every round imports the same files one
// `perfbase input` at a time into a fresh durable directory and closes
// it. query, output and wire do nothing.
type importGrow struct {
	base
	corpus *beffCorpus
	params []fig8Param
	// checked counts the rounds checked; it picks the file and the query
	// of the next check.
	checked int
}

func newImportGrow(e env) *importGrow {
	// p95, not p99: about one import in a hundred meets a collection, so
	// p99 sits on the knee of the distribution and jumps between rounds.
	w := &importGrow{base: base{env: e, clients: newClients(1), tailPct: 95}}
	w.dbDir = filepath.Join(e.dir, "db")
	return w
}

func (w *importGrow) setup() (err error) {
	if w.corpus, err = genBeffio(filepath.Join(w.dir, "files"), w.seed, w.sc.importReps); err != nil {
		return err
	}
	w.params = fig8Params(w.seed)
	w.userBytes = w.corpus.bytes
	// Warm-up: one whole round, with its checks.
	if _, err := w.round(); err != nil {
		return err
	}
	if err := w.check(); err != nil {
		return err
	}
	c := w.clients[0]
	if c.failed > 0 {
		return fmt.Errorf("warm-up: %w", c.err)
	}
	if w.checksBad > 0 {
		return fmt.Errorf("warm-up left a wrong database")
	}
	c.lat = c.lat[:0]
	return nil
}

func (w *importGrow) attach(st []stack) error {
	w.clients[0].st = st[0]
	return nil
}

func (w *importGrow) round() (time.Duration, error) {
	if err := os.RemoveAll(w.dbDir); err != nil {
		return 0, err
	}
	c := w.clients[0]
	t0 := time.Now()
	s, err := c.st.OpenDir(w.dbDir)
	if err != nil {
		return 0, err
	}
	if err := s.Setup(beffio.ExperimentXML); err != nil {
		s.Close()
		return 0, err
	}
	for _, f := range w.corpus.files {
		c.op(func() error { return s.Import(beffExp, beffio.InputXML, f) }, nil)
	}
	wall := time.Since(t0)
	w.liveHeap = measureHeap() // between the last import and Close, not timed
	t1 := time.Now()
	if err := s.Close(); err != nil {
		return 0, err
	}
	wall += time.Since(t1)
	w.diskBytes, err = dirBytes(w.dbDir)
	return wall, err
}

// check reopens what the round wrote: every file is one run with 24
// data sets, a second import of a file is refused, and a Fig. 8 query
// over the imported data matches the oracle.
func (w *importGrow) check() error {
	s, err := perfbase.OpenDir(w.dbDir)
	if err != nil {
		return err
	}
	defer s.Close()
	exp, err := s.Experiment(beffExp)
	if err != nil {
		return err
	}
	runs, err := exp.Runs()
	if err != nil {
		return err
	}
	sets := 0
	for _, r := range runs {
		sets += r.DataSets
	}
	n := len(w.corpus.files)
	if len(runs) != n || sets != n*beffRows {
		w.bad("import_grow: %d runs with %d data sets, want %d with %d", len(runs), sets, n, n*beffRows)
	}
	ps := plainSession{s}
	if err := ps.Import(beffExp, beffio.InputXML, w.corpus.files[w.checked%n]); err == nil {
		w.bad("import_grow: a duplicate import was accepted")
	}
	p := w.params[w.checked%len(w.params)]
	w.checked++
	docs, err := ps.Query(p.spec(), filepath.Join(w.dir, "out"))
	if err != nil {
		return err
	}
	if err := checkTables(docs, map[string][]oracleRow{"fig8.txt": p.expected(w.corpus)}); err != nil {
		w.bad("import_grow: %+v: %v", p, err)
	}
	return nil
}

func (w *importGrow) finish() error { return nil }

// ------------------------------------------------------------ query_hot

// queryHot is the paper's analysis over many small runs: one session on
// a checkpointed directory, opened once and warm, answering Fig. 8
// queries. input, WAL and wire are idle.
type queryHot struct {
	base
	goldenSet
	corpus *beffCorpus
	sess   session
	outDir string
}

func newQueryHot(e env) *queryHot {
	w := &queryHot{base: base{env: e, clients: newClients(1), tailPct: 90}}
	w.dbDir = filepath.Join(e.dir, "db")
	w.outDir = filepath.Join(e.dir, "out")
	return w
}

func (w *queryHot) setup() (err error) {
	if w.corpus, err = genBeffio(filepath.Join(w.dir, "files"), w.seed, w.sc.queryReps); err != nil {
		return err
	}
	w.userBytes = w.corpus.bytes
	if err := buildBeffDir(w.dbDir, w.corpus.files); err != nil {
		return err
	}
	if err := w.attach(plainStacks(1)); err != nil {
		return err
	}
	// Verifying the 18 parameterisations is also the warm-up.
	w.goldenSet, err = verifyFig8(w.sess, w.corpus, fig8Params(w.seed), w.outDir)
	return err
}

func (w *queryHot) attach(st []stack) (err error) {
	if w.sess != nil {
		if err := w.sess.Close(); err != nil {
			return err
		}
	}
	w.clients[0].st = st[0]
	w.sess, err = st[0].OpenDir(w.dbDir)
	return err
}

func (w *queryHot) round() (time.Duration, error) {
	c := w.clients[0]
	t0 := time.Now()
	for i := 0; i < w.sc.queryOps; i++ {
		p := i % len(w.specs)
		var docs []perfbase.Document
		c.op(func() (err error) {
			docs, err = w.sess.Query(w.specs[p], w.outDir)
			return err
		}, verifyDocs(&docs, w.golden[p]))
	}
	wall := time.Since(t0)
	w.liveHeap = measureHeap()
	return wall, nil
}

func (w *queryHot) check() error { return nil }

func (w *queryHot) finish() (err error) {
	if err := w.sess.Close(); err != nil {
		return err
	}
	w.diskBytes, err = dirBytes(w.dbDir)
	return err
}

// ------------------------------------------------------------- cli_cold

// cliCold is one `perfbase -db DIR query` after another: every op pays
// recovery and the closing checkpoint, the storage layer used the
// opposite way from import_grow.
type cliCold struct {
	base
	goldenSet
	corpus *beffCorpus
	dump   string
	outDir string
}

func newCLICold(e env) *cliCold {
	w := &cliCold{base: base{env: e, clients: newClients(1), tailPct: 90}}
	w.dbDir = filepath.Join(e.dir, "db")
	w.outDir = filepath.Join(e.dir, "out")
	return w
}

func (w *cliCold) setup() (err error) {
	if w.corpus, err = genBeffio(filepath.Join(w.dir, "files"), w.seed, w.sc.cliReps); err != nil {
		return err
	}
	w.userBytes = w.corpus.bytes
	if err := buildBeffDir(w.dbDir, w.corpus.files); err != nil {
		return err
	}
	s, err := plainStack{}.OpenDir(w.dbDir)
	if err != nil {
		return err
	}
	if w.goldenSet, err = verifyFig8(s, w.corpus, fig8Params(w.seed), w.outDir); err != nil {
		s.Close()
		return err
	}
	if err := s.Close(); err != nil {
		return err
	}
	if w.dump, err = dumpDir(w.dbDir); err != nil {
		return err
	}
	// Warm-up: a few cold ops.
	c := w.clients[0]
	for i := 0; i < 3; i++ {
		w.coldOp(c, i)
	}
	if c.failed > 0 {
		return fmt.Errorf("warm-up: %w", c.err)
	}
	c.lat = c.lat[:0]
	return nil
}

// dumpDir renders the whole database in dir.
func dumpDir(dir string) (string, error) {
	db, err := sqldb.Open(dir)
	if err != nil {
		return "", err
	}
	dump := db.DumpString()
	return dump, db.Close()
}

func (w *cliCold) attach(st []stack) error {
	w.clients[0].st = st[0]
	return nil
}

// coldOp is one CLI invocation.
func (w *cliCold) coldOp(c *client, i int) {
	p := i % len(w.specs)
	var docs []perfbase.Document
	c.op(func() error {
		s, err := c.st.OpenDir(w.dbDir)
		if err != nil {
			return err
		}
		if docs, err = s.Query(w.specs[p], w.outDir); err != nil {
			s.Close()
			return err
		}
		return s.Close()
	}, verifyDocs(&docs, w.golden[p]))
}

func (w *cliCold) round() (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < w.sc.cliOps; i++ {
		w.coldOp(w.clients[0], i)
	}
	return time.Since(t0), nil
}

func (w *cliCold) check() error { return nil }

// finish measures the live heap inside one more, untimed invocation and
// checks that a thousand read-only invocations left the data unchanged.
func (w *cliCold) finish() error {
	s, err := perfbase.OpenDir(w.dbDir)
	if err != nil {
		return err
	}
	if _, err := (plainSession{s}).Query(w.specs[0], w.outDir); err != nil {
		s.Close()
		return err
	}
	w.liveHeap = measureHeap()
	if err := s.Close(); err != nil {
		return err
	}
	dump, err := dumpDir(w.dbDir)
	if err != nil {
		return err
	}
	if dump != w.dump {
		w.bad("cli_cold: the database dump changed")
	}
	w.diskBytes, err = dirBytes(w.dbDir)
	return err
}

// --------------------------------------------------------- server_mixed

// serverMixed is the laboratory server of paper §4.2: two clients each
// import a small run and then analyse large ones, over TCP, against one
// database.
type serverMixed struct {
	base
	beff  *beffCorpus
	msg   *msgCorpus
	nBase int // b_eff_io runs on the server between rounds
	db    *sqldb.DB
	srv   *wire.Server
	addr  string // where clients connect; the traced run puts a proxy here
	admin *perfbase.Session
	sess  []session
	goldenSet
	// bigfile is the time the set-up spent importing the msgsweep files.
	bigfile time.Duration
}

func newServerMixed(e env) *serverMixed {
	w := &serverMixed{base: base{env: e, clients: newClients(2), tailPct: 90}}
	w.dbDir = filepath.Join(e.dir, "db")
	w.sess = make([]session, len(w.clients))
	return w
}

// cycleFiles is how many b_eff_io files the clients import per round.
func (w *serverMixed) cycleFiles() int { return len(w.clients) * w.sc.serverCycles }

func (w *serverMixed) setup() (err error) {
	reps := w.sc.serverReps + (w.cycleFiles()+17)/18
	if w.beff, err = genBeffio(filepath.Join(w.dir, "files"), w.seed, reps); err != nil {
		return err
	}
	if w.msg, err = genMsgsweep(filepath.Join(w.dir, "msgfiles"), w.seed, w.sc.msgIters); err != nil {
		return err
	}
	w.nBase = len(w.beff.files) - w.cycleFiles()
	w.userBytes = w.msg.bytes
	for _, f := range w.beff.files[:w.nBase] {
		fi, err := os.Stat(f)
		if err != nil {
			return err
		}
		w.userBytes += fi.Size()
	}

	if w.db, err = sqldb.Open(w.dbDir); err != nil {
		return err
	}
	w.srv = wire.NewServer(w.db)
	if err := w.srv.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	w.addr = w.srv.Addr()
	if w.admin, err = perfbase.Connect(w.addr); err != nil {
		return err
	}
	admin := plainSession{w.admin}
	if err := admin.Setup(beffio.ExperimentXML); err != nil {
		return err
	}
	if err := admin.Setup(msgsweepExperimentXML); err != nil {
		return err
	}
	for _, f := range w.beff.files[:w.nBase] {
		if err := admin.Import(beffExp, beffio.InputXML, f); err != nil {
			return err
		}
	}
	t0 := time.Now()
	for _, f := range w.msg.files {
		if err := admin.Import(msgExp, msgsweepInputXML, f); err != nil {
			return err
		}
	}
	w.bigfile = time.Since(t0)

	outDir := filepath.Join(w.dir, "out-admin")
	for _, v := range msgValues {
		spec := msgSpec(v)
		docs, err := admin.Query(spec, outDir)
		if err != nil {
			return err
		}
		rel, sd := msgExpected(w.msg, v)
		if err := checkTables(docs, map[string][]oracleRow{"msg_rel.txt": rel, "msg_sd.txt": sd}); err != nil {
			return fmt.Errorf("msgsweep %s: %w", v, err)
		}
		w.specs = append(w.specs, spec)
		w.golden = append(w.golden, docs)
	}
	if err := w.attach(plainStacks(len(w.clients))); err != nil {
		return err
	}
	// Warm-up: one whole round, with its check.
	if _, err := w.round(); err != nil {
		return err
	}
	if err := w.check(); err != nil {
		return err
	}
	for _, c := range w.clients {
		if c.failed > 0 {
			return fmt.Errorf("warm-up: %w", c.err)
		}
		c.lat = c.lat[:0]
	}
	if w.checksBad > 0 {
		return fmt.Errorf("warm-up left a wrong database")
	}
	return nil
}

func (w *serverMixed) attach(st []stack) (err error) {
	for i, c := range w.clients {
		if w.sess[i] != nil {
			if err := w.sess[i].Close(); err != nil {
				return err
			}
		}
		c.st = st[i]
		if w.sess[i], err = st[i].Connect(w.addr); err != nil {
			return err
		}
	}
	return nil
}

func (w *serverMixed) round() (time.Duration, error) {
	files := w.beff.files[w.nBase:]
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci, c := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := w.sess[ci]
			outDir := filepath.Join(w.dir, fmt.Sprintf("out-%d", ci))
			for k := 0; k < w.sc.serverCycles; k++ {
				file := files[ci*w.sc.serverCycles+k]
				v := (k + ci) % len(w.specs)
				var docs []perfbase.Document
				c.op(func() (err error) {
					if err := s.Import(beffExp, beffio.InputXML, file); err != nil {
						return err
					}
					docs, err = s.Query(w.specs[v], outDir)
					return err
				}, verifyDocs(&docs, w.golden[v]))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	w.liveHeap = measureHeap()
	return wall, nil
}

// check counts the runs the round added and deletes them again, so that
// every round meets the same database and imports the same files.
func (w *serverMixed) check() error {
	exp, err := w.admin.Experiment(beffExp)
	if err != nil {
		return err
	}
	runs, err := exp.Runs()
	if err != nil {
		return err
	}
	if want := w.nBase + w.cycleFiles(); len(runs) != want {
		w.bad("server_mixed: %d runs after the round, want %d", len(runs), want)
	}
	for _, r := range runs {
		if r.ID > int64(w.nBase) {
			if err := exp.DeleteRun(r.ID); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *serverMixed) finish() (err error) {
	for _, s := range w.sess {
		if err := s.Close(); err != nil {
			return err
		}
	}
	if err := w.admin.Close(); err != nil {
		return err
	}
	if err := w.srv.Close(); err != nil {
		return err
	}
	if err := w.db.Close(); err != nil {
		return err
	}
	w.diskBytes, err = dirBytes(w.dbDir)
	return err
}
