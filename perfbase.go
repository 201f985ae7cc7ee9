// Package perfbase is a system for the management and analysis of
// experiment output, reproducing "Experiment Management and Analysis
// with perfbase" (Worringen, IEEE CLUSTER 2005) as a pure-Go library.
//
// An experiment is a system under evaluation; each execution of it is
// a run whose arbitrary ASCII output files are parsed according to an
// XML input description and stored — as input parameters and result
// values — in an embedded SQL database (or one reached over TCP).
// XML query specifications then wire source, operator, combiner and
// output elements into analyses whose results render as gnuplot
// scripts, ASCII/CSV/LaTeX/XML tables.
//
// The Session type below is the façade over the full stack:
//
//	s := perfbase.OpenMemory()
//	exp, _ := s.Setup(strings.NewReader(experimentXML))
//	s.Import(exp.Name(), strings.NewReader(inputXML), perfbase.ImportOptions{}, "run1.txt")
//	res, _ := s.Query(strings.NewReader(queryXML))
//	docs, _ := perfbase.RenderAll(res)
package perfbase

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"perfbase/internal/anomaly"
	"perfbase/internal/core"
	"perfbase/internal/export"
	"perfbase/internal/input"
	"perfbase/internal/output"
	"perfbase/internal/parquery"
	"perfbase/internal/pbxml"
	"perfbase/internal/query"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
)

// Re-exported core types so that library users interact with a single
// package.
type (
	// Experiment is an open experiment (see internal/core).
	Experiment = core.Experiment
	// DataSet is one tuple of variable content keyed by name.
	DataSet = core.DataSet
	// RunInfo describes one run of an experiment.
	RunInfo = core.RunInfo
	// Results is the outcome of a query run.
	Results = query.Results
	// Document is one rendered output artifact.
	Document = output.Document
	// ImportOptions adjusts the import behaviour.
	ImportOptions = input.Options
	// AnomalyOptions tunes the automatic result analyses.
	AnomalyOptions = anomaly.Options
	// Finding is one suspicious data point found by ScanAnomalies.
	Finding = anomaly.Finding
	// Regression is one deviation of the latest run from history.
	Regression = anomaly.Regression
)

// Missing-content policies for imports (paper §3.2).
const (
	// MissingDefault fills missing variables from declared defaults.
	MissingDefault = input.UseDefault
	// MissingEmpty stores missing variables as NULL.
	MissingEmpty = input.AllowEmpty
	// MissingDiscard skips runs with missing variables.
	MissingDiscard = input.Discard
	// MissingFail aborts the import on missing variables.
	MissingFail = input.Fail
)

// Session is a connection to a perfbase database with all frontend
// operations attached.
type Session struct {
	store  *core.Store
	ownDB  *sqldb.DB
	client *wire.Client

	// The last input description an import parsed, by its bytes: the
	// imports of a campaign share one (paper §3.2), so each but the first
	// finds it here. desc is read-only once kept.
	descMu   sync.Mutex
	descText []byte
	desc     *pbxml.Input
}

// OpenMemory creates a session on a fresh in-memory database.
func OpenMemory() *Session {
	db := sqldb.NewMemory()
	s := &Session{store: core.NewStore(db), ownDB: db}
	// Init on a fresh memory DB cannot fail.
	s.store.Init() //nolint:errcheck
	return s
}

// OpenDir opens (creating if needed) a durable database directory.
func OpenDir(dir string) (*Session, error) {
	db, err := sqldb.Open(dir)
	if err != nil {
		return nil, err
	}
	s := &Session{store: core.NewStore(db), ownDB: db}
	if err := s.store.Init(); err != nil {
		db.Close()
		return nil, err
	}
	return s, nil
}

// Connect attaches to a remote perfbase database server (cmd/pbserver).
func Connect(addr string) (*Session, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	s := &Session{store: core.NewStore(c), client: c}
	if err := s.store.Init(); err != nil {
		c.Close()
		return nil, err
	}
	return s, nil
}

// Close releases the session. A durable database is checkpointed if the
// session (or a crash before it) left anything in the write-ahead log to
// fold into the snapshot; a session that only queried leaves the
// directory untouched.
func (s *Session) Close() error {
	if s.ownDB != nil {
		return s.ownDB.Close()
	}
	if s.client != nil {
		return s.client.Close()
	}
	return nil
}

// Store exposes the underlying experiment store.
func (s *Session) Store() *core.Store { return s.store }

// Setup creates an experiment from an XML definition (the perfbase
// "setup" command).
func (s *Session) Setup(defXML io.Reader) (*Experiment, error) {
	def, err := pbxml.ParseExperiment(defXML)
	if err != nil {
		return nil, err
	}
	return s.store.CreateExperiment(def)
}

// Experiment opens an existing experiment by name.
func (s *Session) Experiment(name string) (*Experiment, error) {
	return s.store.OpenExperiment(name)
}

// Experiments lists all experiment names.
func (s *Session) Experiments() ([]string, error) {
	return s.store.ListExperiments()
}

// Update evolves an experiment to a new XML definition (the perfbase
// "update" command).
func (s *Session) Update(defXML io.Reader) (*Experiment, error) {
	def, err := pbxml.ParseExperiment(defXML)
	if err != nil {
		return nil, err
	}
	exp, err := s.store.OpenExperiment(def.Name)
	if err != nil {
		return nil, err
	}
	if err := exp.Update(def); err != nil {
		return nil, err
	}
	return exp, nil
}

// Destroy removes an experiment with all its runs.
func (s *Session) Destroy(name string) error {
	return s.store.DestroyExperiment(name)
}

// Import parses input files according to an XML input description and
// stores the extracted runs (the perfbase "input" command; paper
// Fig. 1 cases a–c).
func (s *Session) Import(expName string, descXML io.Reader, opts ImportOptions, files ...string) ([]int64, error) {
	desc, err := s.inputDesc(expName, descXML)
	if err != nil {
		return nil, err
	}
	exp, err := s.store.OpenExperiment(expName)
	if err != nil {
		return nil, err
	}
	im, err := input.NewImporter(exp, desc, opts)
	if err != nil {
		return nil, err
	}
	return im.ImportFiles(files)
}

// inputDesc reads an input description for the experiment expName and
// returns it parsed and validated: the one this session kept when the
// bytes are the same, else a new parse, which it keeps instead.
func (s *Session) inputDesc(expName string, descXML io.Reader) (*pbxml.Input, error) {
	text, err := io.ReadAll(descXML)
	if err != nil {
		return nil, err
	}
	s.descMu.Lock()
	defer s.descMu.Unlock()
	if s.desc == nil || !bytes.Equal(text, s.descText) {
		desc, err := pbxml.ParseInput(bytes.NewReader(text))
		if err != nil {
			return nil, err
		}
		s.descText, s.desc = text, desc
	}
	if s.desc.Experiment != expName {
		return nil, fmt.Errorf("perfbase: input description is for %q, not %q", s.desc.Experiment, expName)
	}
	return s.desc, nil
}

// MergedInput pairs one input description with one file for a merged
// import (paper Fig. 1 case d).
type MergedInput struct {
	DescXML io.Reader
	File    string
}

// ImportMerged merges the content of several (description, file) pairs
// into a single run.
func (s *Session) ImportMerged(expName string, pairs []MergedInput, opts ImportOptions) (int64, error) {
	exp, err := s.store.OpenExperiment(expName)
	if err != nil {
		return 0, err
	}
	dfs := make([]input.DescFile, 0, len(pairs))
	for _, p := range pairs {
		desc, err := s.inputDesc(expName, p.DescXML)
		if err != nil {
			return 0, err
		}
		dfs = append(dfs, input.DescFile{Desc: desc, Path: p.File})
	}
	return input.ImportMerged(exp, dfs, opts)
}

// Query executes an XML query specification on the session's database
// (the perfbase "query" command); the elements of a plan level run
// concurrently.
func (s *Session) Query(specXML io.Reader) (*Results, error) {
	spec, err := pbxml.ParseQuery(specXML)
	if err != nil {
		return nil, err
	}
	exp, err := s.store.OpenExperiment(spec.Experiment)
	if err != nil {
		return nil, err
	}
	return query.NewEngine(exp).Run(spec)
}

// QueryParallel executes a query with its elements distributed over
// worker database servers (paper §4.3). With useTCP the workers are
// real socket-connected servers on the loopback interface; otherwise
// they are in-process databases.
func (s *Session) QueryParallel(specXML io.Reader, workers int, useTCP bool) (*Results, error) {
	spec, err := pbxml.ParseQuery(specXML)
	if err != nil {
		return nil, err
	}
	exp, err := s.store.OpenExperiment(spec.Experiment)
	if err != nil {
		return nil, err
	}
	var pool *parquery.Pool
	if workers > 0 {
		if useTCP {
			pool, err = parquery.NewTCPPool(workers)
			if err != nil {
				return nil, err
			}
			defer pool.Close()
		} else {
			pool = parquery.NewLocalPool(workers)
		}
	}
	return parquery.NewExecutor(exp, pool).Run(spec)
}

// Export archives an experiment with all runs as self-contained ASCII
// files under dir (experiment.xml, input.xml, one run_*.txt per run).
// It returns the number of exported runs.
func (s *Session) Export(expName, dir string) (int, error) {
	exp, err := s.store.OpenExperiment(expName)
	if err != nil {
		return 0, err
	}
	return export.WriteArchive(exp, dir)
}

// Restore imports an archive directory produced by Export, creating
// the experiment in this session's database.
func (s *Session) Restore(dir string) (*Experiment, []int64, error) {
	return export.Restore(s.store, dir)
}

// ScanAnomalies flags stored data points of a result value that lie
// far outside their parameter group (automatic result analysis; paper
// §6 future work).
func (s *Session) ScanAnomalies(expName, variable string, opts AnomalyOptions) ([]Finding, error) {
	exp, err := s.store.OpenExperiment(expName)
	if err != nil {
		return nil, err
	}
	return anomaly.Scan(exp, variable, opts)
}

// CompareLatest reports parameter groups whose newest run deviates
// from the history of earlier runs by more than the threshold.
func (s *Session) CompareLatest(expName, variable string, opts AnomalyOptions) ([]Regression, error) {
	exp, err := s.store.OpenExperiment(expName)
	if err != nil {
		return nil, err
	}
	return anomaly.Latest(exp, variable, opts)
}

// RenderAll formats every output element of a query result and returns
// the documents in output order.
func RenderAll(res *Results) ([]Document, error) {
	var docs []Document
	for _, out := range res.Outputs {
		d, err := output.Render(out.Spec, out.Vectors, out.Data)
		if err != nil {
			return nil, err
		}
		docs = append(docs, d...)
	}
	return docs, nil
}

// WriteDocuments stores rendered documents under dir.
func WriteDocuments(dir string, docs []Document) error {
	return output.WriteDocuments(dir, docs)
}

// QueryElapsed is a convenience accessor for profiling experiments:
// it returns the wall time and per-element times of a result.
func QueryElapsed(res *Results) (time.Duration, map[string]time.Duration) {
	return res.Elapsed, res.Profile
}
