// Package live is the continuous-benchmarking service: the always-on
// layer that turns the paper's batch workflow (parse → store → query →
// notice the b_eff_io regression in Fig. 8) into a streaming one.
//
// Three pieces, layered strictly over existing machinery:
//
//   - Streaming ingest. IngestFile accepts one experiment output file,
//     parses it with internal/input against the experiment's input
//     description, and loads it from a pool of parallel workers. Each
//     file is one transaction (core.CreateRuns), so a crashed load never
//     leaves a half-imported run; loads ride the engine's group commit
//     (many workers' commits share one fsync).
//
//   - Materialized views. The service owns a sqldb.ViewRegistry and
//     registers standard per-experiment aggregates on first ingest;
//     dashboards read them lock-free with ViewResult instead of
//     re-running aggregates against the store.
//
//   - Push regression alerts. A commit hook watches for frames that
//     touch the run catalog; an asynchronous worker (hooks must not
//     call back into the database — see sqldb.AddCommitHook) diffs the
//     catalog, runs anomaly.Latest over each newly arrived run, and
//     fans resulting regressions out to WATCH subscribers.
package live

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"perfbase/internal/anomaly"
	"perfbase/internal/core"
	"perfbase/internal/failpoint"
	"perfbase/internal/input"
	"perfbase/internal/pbxml"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
)

// Failpoints of the live pipeline (crash-torture sites; see
// internal/failpoint). live/ingest fires at the start of every ingest
// job, live/notify before every alert delivery; live/view-apply lives
// in sqldb's view registry.
var (
	fpIngest = failpoint.Site("live/ingest")
	fpNotify = failpoint.Site("live/notify")
)

// Config tunes a Service. The zero value is ready to use.
type Config struct {
	// Workers is the ingest worker pool size (default 4). Each worker
	// owns one database session; files submitted concurrently load in
	// parallel and share group-commit fsyncs.
	Workers int
	// Alerts is the server-default anomaly tuning. Zero fields take
	// the anomaly.Default* constants; WATCH subscriptions override
	// per-field on top of this.
	Alerts anomaly.Options
}

// Service implements wire.LiveBackend: streaming ingest, the
// materialized-view registry, and the alert engine.
type Service struct {
	db    *sqldb.DB
	views *sqldb.ViewRegistry
	opts  anomaly.Options // Config.Alerts with defaults filled

	jobs    chan *job
	quit    chan struct{}
	wg      sync.WaitGroup
	workers []*worker

	unhook func()

	// Alert pipeline: the commit hook appends positions here; the
	// alert worker drains and scans the run catalog.
	amu      sync.Mutex
	acond    *sync.Cond
	aqueue   []sqldb.ReplPos
	aclose   bool
	adone    chan struct{}
	lastSeen map[string]catState // experiment → catalog state at last scan

	// alerted remembers the highest run id delivered per
	// (experiment, variable, group, tuning); only the alert worker
	// touches it. Dedup lives here — not in the freshness diff —
	// because a run's data can change after the commit that brought it
	// (rows added by hand), and the run is then evaluated again.
	alerted map[string]int64

	wamu     sync.Mutex
	watchers map[*watcher]struct{}

	viewsDone sync.Map // experiment name → true once standard views exist

	closed atomic.Bool
}

// New starts a live service over db. Close releases it.
func New(db *sqldb.DB, cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	s := &Service{
		db:       db,
		views:    sqldb.NewViewRegistry(db),
		opts:     cfg.Alerts.WithDefaults(),
		jobs:     make(chan *job),
		quit:     make(chan struct{}),
		adone:    make(chan struct{}),
		watchers: map[*watcher]struct{}{},
		alerted:  map[string]int64{},
	}
	s.acond = sync.NewCond(&s.amu)
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{svc: s}
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go w.loop()
	}
	go s.alertLoop()
	// Snapshot the catalog before hooking commits: runs already stored
	// are history, not arrivals, and must not alert. Runs landing in
	// the hairline between snapshot and hook are treated as history too.
	seen := s.catalogState()
	s.amu.Lock()
	s.lastSeen = seen
	s.amu.Unlock()
	s.unhook = db.AddCommitHook(s.onCommit)
	// Warm the standard views of every experiment already stored: a
	// restarted server must serve its dashboards immediately, not after
	// the next run happens to arrive.
	store := core.NewStore(db)
	for name := range seen {
		if exp, err := store.OpenExperiment(name); err == nil {
			s.ensureStandardViews(exp)
		}
	}
	return s
}

// Views exposes the registry for direct registration of custom views.
func (s *Service) Views() *sqldb.ViewRegistry { return s.views }

// RegisterView adds a custom materialized view.
func (s *Service) RegisterView(name, sql string) error {
	return s.views.Register(name, sql)
}

// ViewNames implements wire.LiveBackend.
func (s *Service) ViewNames() []string { return s.views.Names() }

// ViewResult implements wire.LiveBackend.
func (s *Service) ViewResult(name string) (*sqldb.Result, sqldb.ReplPos, error) {
	return s.views.Get(name)
}

// Close stops ingest workers, the alert engine and the view registry.
// Open WATCH subscriptions are terminated.
func (s *Service) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.unhook()
	close(s.quit)
	s.wg.Wait()
	s.amu.Lock()
	s.aclose = true
	s.acond.Broadcast()
	s.amu.Unlock()
	<-s.adone
	s.wamu.Lock()
	ws := make([]*watcher, 0, len(s.watchers))
	for w := range s.watchers {
		ws = append(ws, w)
	}
	s.wamu.Unlock()
	for _, w := range ws {
		w.Close()
	}
	s.views.Close()
}

// --------------------------------------------------------- ingest

type job struct {
	req  wire.IngestRequest
	done chan jobResult
}

type jobResult struct {
	res wire.IngestResult
	err error
}

// IngestFile implements wire.LiveBackend: parse and load one file,
// returning once its data is committed.
func (s *Service) IngestFile(req wire.IngestRequest) (wire.IngestResult, error) {
	if s.closed.Load() {
		return wire.IngestResult{}, errors.New("live: service is closed")
	}
	j := &job{req: req, done: make(chan jobResult, 1)}
	select {
	case s.jobs <- j:
	case <-s.quit:
		return wire.IngestResult{}, errors.New("live: service is closed")
	}
	r := <-j.done
	return r.res, r.err
}

// worker is one ingest worker: a dedicated session plus, per experiment
// it has seen, what it keeps of it.
type worker struct {
	svc   *Service
	sess  *sqldb.Session
	store *core.Store
	exps  map[string]*ingestExp
}

// ingestExp is what a worker keeps of one experiment: the experiment,
// and the importer of the last input description it ingested with, by
// the description's bytes.
type ingestExp struct {
	exp  *core.Experiment
	desc []byte
	im   *input.Importer
}

func (w *worker) loop() {
	defer w.svc.wg.Done()
	w.sess = w.svc.db.NewSession()
	w.store = core.NewStore(w.sess)
	w.exps = map[string]*ingestExp{}
	for {
		select {
		case <-w.svc.quit:
			return
		case j := <-w.svc.jobs:
			j.done <- w.run(j.req)
		}
	}
}

func (w *worker) run(req wire.IngestRequest) jobResult {
	if err := fpIngest.Inject(); err != nil {
		return jobResult{err: fmt.Errorf("live: ingest: %w", err)}
	}
	res, err := w.load(req)
	if err != nil {
		// The failure may be a stale cached experiment (the schema
		// changed under us): drop the caches and run the file once more.
		// A failed import wrote nothing, so the retry cannot duplicate
		// rows.
		w.exps = map[string]*ingestExp{}
		res, err = w.load(req)
	}
	return jobResult{res: res, err: err}
}

// load runs one ingest attempt: one transaction, which the importer
// retries itself when a concurrent import takes its run ids.
func (w *worker) load(req wire.IngestRequest) (wire.IngestResult, error) {
	im, exp, err := w.importer(req)
	if err != nil {
		return wire.IngestResult{}, err
	}
	ids, err := im.ImportBytes(req.Name, req.Data)
	if err != nil {
		return wire.IngestResult{}, err
	}
	w.svc.ensureStandardViews(exp)
	res := wire.IngestResult{}
	pos := w.svc.db.Pos()
	res.Epoch, res.LSN = pos.Epoch, pos.LSN
	for i, id := range ids {
		if i == 0 {
			res.RunID = int(id)
		}
		if info, err := exp.Run(id); err == nil {
			res.Rows += info.DataSets
		}
	}
	return res, nil
}

// importer returns the request's experiment and an Importer of its
// description: the kept one when the description has the bytes of the
// last one ingested into the experiment, else a new one, kept instead.
func (w *worker) importer(req wire.IngestRequest) (*input.Importer, *core.Experiment, error) {
	ie, ok := w.exps[req.Experiment]
	if !ok {
		exp, err := w.store.OpenExperiment(req.Experiment)
		if err != nil {
			return nil, nil, err
		}
		ie = &ingestExp{exp: exp}
		w.exps[req.Experiment] = ie
	}
	if ie.im == nil || !bytes.Equal(req.Desc, ie.desc) {
		desc, err := pbxml.ParseInput(bytes.NewReader(req.Desc))
		if err != nil {
			return nil, nil, err
		}
		im, err := input.NewImporter(ie.exp, desc, input.Options{})
		if err != nil {
			return nil, nil, err
		}
		ie.desc, ie.im = bytes.Clone(req.Desc), im
	}
	return ie.im, ie.exp, nil
}

// ensureStandardViews registers the standard per-experiment aggregates
// (the paper's "mean values of the runs" queries) as materialized
// views, once per experiment: <exp>/runs over the run catalog, and
// <exp>/<var> count/avg/min/max for every numeric scalar result value.
func (s *Service) ensureStandardViews(exp *core.Experiment) {
	if _, done := s.viewsDone.LoadOrStore(exp.Name(), true); done {
		return
	}
	name := strings.ReplaceAll(exp.Name(), "'", "''")
	s.views.Register(exp.Name()+"/runs", //nolint:errcheck // name collision keeps the earlier view
		"SELECT COUNT(*), MAX(run_id) FROM pb_runs WHERE exp = '"+name+"' AND active")
	for _, v := range exp.OnceVars() {
		if !v.Result || !v.Type.Numeric() {
			continue
		}
		s.views.Register(exp.Name()+"/"+v.Name, //nolint:errcheck // ditto
			fmt.Sprintf("SELECT COUNT(%[1]s), AVG(%[1]s), MIN(%[1]s), MAX(%[1]s) FROM %[2]s",
				v.Name, exp.Name()+"_once"))
	}
}

// ---------------------------------------------------------- alerts

// onCommit is the commit hook: runs under the writer latch, so it only
// classifies and enqueues (calling back into the DB here would return
// sqldb.ErrHookReentrant). Frames that cannot have created a run are
// dropped without waking the worker.
func (s *Service) onCommit(pos sqldb.ReplPos, stmts []string) {
	touched := false
	for _, st := range stmts {
		if strings.Contains(strings.ToLower(st), "pb_runs") {
			touched = true
			break
		}
	}
	if !touched {
		return
	}
	s.amu.Lock()
	s.aqueue = append(s.aqueue, pos)
	s.acond.Signal()
	s.amu.Unlock()
}

func (s *Service) alertLoop() {
	defer close(s.adone)
	store := core.NewStore(s.db)
	exps := map[string]*core.Experiment{}
	for {
		s.amu.Lock()
		for len(s.aqueue) == 0 && !s.aclose {
			s.acond.Wait()
		}
		if s.aclose {
			s.amu.Unlock()
			return
		}
		evs := s.aqueue
		s.aqueue = nil
		s.amu.Unlock()
		// Coalesced: one catalog diff covers every queued commit; the
		// newest position stamps the alerts.
		s.scanArrivals(store, exps, evs[len(evs)-1])
	}
}

// catState is one experiment's run-catalog state as seen by the alert
// scanner. An import brings a run in one commit, catalog row and data
// together; freshness still tracks both the highest run id (a new run
// appeared) and the data-set total (a cataloged run's data changed), and
// either change re-evaluates.
type catState struct {
	maxRun int64
	nsets  int64
}

// catalogState reads per-experiment catalog state (empty if the meta
// tables do not exist yet).
func (s *Service) catalogState() map[string]catState {
	seen := map[string]catState{}
	res, err := s.db.Exec("SELECT exp, MAX(run_id), SUM(nsets) FROM pb_runs GROUP BY exp")
	if err != nil {
		return seen
	}
	for _, row := range res.Rows {
		if row[1].IsNull() {
			continue
		}
		st := catState{maxRun: row[1].Int()}
		if !row[2].IsNull() {
			st.nsets = row[2].Int()
		}
		seen[row[0].Str()] = st
	}
	return seen
}

func (s *Service) scanArrivals(store *core.Store, exps map[string]*core.Experiment, pos sqldb.ReplPos) {
	cur := s.catalogState()
	s.amu.Lock()
	prev := s.lastSeen
	if prev == nil {
		prev = map[string]catState{}
	}
	var fresh []string
	for exp, st := range cur {
		if p := prev[exp]; st.maxRun > p.maxRun || st.nsets != p.nsets {
			fresh = append(fresh, exp)
		}
	}
	s.lastSeen = cur
	s.amu.Unlock()
	if len(fresh) == 0 {
		return
	}
	watchers := s.watcherSnapshot()
	for _, expName := range fresh {
		exp, ok := exps[expName]
		if !ok {
			var err error
			exp, err = store.OpenExperiment(expName)
			if err != nil {
				continue
			}
			exps[expName] = exp
		}
		// Register the standard views here too, not only on ingest: a
		// replica sees runs arrive through the replicated commit
		// stream and serves the same warm views as the primary.
		s.ensureStandardViews(exp)
		if len(watchers) > 0 {
			s.alertExperiment(exp, pos, watchers)
		}
	}
}

// alertExperiment runs anomaly.Latest for every (variable, tuning)
// combination the subscribers ask for, computing each combination only
// once, and delivers regressions not yet alerted. Delivered run ids
// are remembered per (experiment, variable, group, tuning) — marked
// after the watcher loop, so every subscriber sharing a tuning gets
// the alert in the scan that finds it, and later scans (an old run
// re-touching the catalog, more data arriving) never repeat it.
func (s *Service) alertExperiment(exp *core.Experiment, pos sqldb.ReplPos, watchers []*watcher) {
	type cacheKey struct {
		variable string
		tuning   string
	}
	cache := map[cacheKey][]anomaly.Regression{}
	mark := map[string]int64{}
	for _, w := range watchers {
		if w.spec.Experiment != "" && w.spec.Experiment != exp.Name() {
			continue
		}
		opts := w.opts
		tuning := fmt.Sprintf("%g|%g|%d|%s", opts.K, opts.ThresholdPct, opts.MinSamples,
			strings.Join(opts.GroupBy, ","))
		for _, variable := range watchVariables(exp, w.spec.Variable) {
			key := cacheKey{variable, tuning}
			regs, ok := cache[key]
			if !ok {
				var err error
				regs, err = anomaly.Latest(exp, variable, opts)
				if err != nil {
					regs = nil // e.g. fewer than two runs yet
				}
				cache[key] = regs
			}
			for _, reg := range regs {
				akey := exp.Name() + "\x00" + variable + "\x00" + reg.Group + "\x00" + tuning
				if reg.RunID <= s.alerted[akey] {
					continue // already delivered in an earlier scan
				}
				if reg.RunID > mark[akey] {
					mark[akey] = reg.RunID
				}
				a := wire.Alert{
					Experiment: exp.Name(), Variable: variable,
					RunID: int(reg.RunID), Group: reg.Group,
					Latest: reg.Latest, History: reg.History,
					ChangePct: reg.ChangePct, HistoryRuns: reg.HistoryRuns,
					Epoch: pos.Epoch, LSN: pos.LSN,
				}
				if err := fpNotify.Inject(); err != nil {
					continue // injected delivery fault: alert dropped
				}
				w.deliver(a)
			}
		}
	}
	for k, v := range mark {
		if v > s.alerted[k] {
			s.alerted[k] = v
		}
	}
}

// watchVariables resolves a WATCH variable filter: the named variable,
// or every numeric result value of the experiment.
func watchVariables(exp *core.Experiment, filter string) []string {
	if filter != "" {
		return []string{filter}
	}
	var names []string
	for _, v := range exp.Vars() {
		if v.Result && v.Type.Numeric() {
			names = append(names, v.Name)
		}
	}
	sort.Strings(names)
	return names
}

// WatchAlerts implements wire.LiveBackend: subscribe to push alerts.
func (s *Service) WatchAlerts(spec wire.WatchSpec) (wire.AlertSubscription, error) {
	if s.closed.Load() {
		return nil, errors.New("live: service is closed")
	}
	// Per-subscription tuning: zero fields fall back to the server
	// default (itself defaulted from the anomaly.Default* constants).
	opts := s.opts
	if spec.K != 0 {
		opts.K = spec.K
	}
	if spec.ThresholdPct != 0 {
		opts.ThresholdPct = spec.ThresholdPct
	}
	if spec.MinSamples != 0 {
		opts.MinSamples = spec.MinSamples
	}
	if len(spec.GroupBy) > 0 {
		opts.GroupBy = spec.GroupBy
	}
	w := &watcher{svc: s, spec: spec, opts: opts, ch: make(chan wire.Alert, watcherBuffer)}
	s.wamu.Lock()
	s.watchers[w] = struct{}{}
	s.wamu.Unlock()
	return w, nil
}

func (s *Service) watcherSnapshot() []*watcher {
	s.wamu.Lock()
	defer s.wamu.Unlock()
	ws := make([]*watcher, 0, len(s.watchers))
	for w := range s.watchers {
		ws = append(ws, w)
	}
	return ws
}

// watcherBuffer is each subscription's alert backlog; a subscriber
// that falls further behind is cut off rather than allowed to stall
// the alert engine (same drop-slow policy as repl's frame hub).
const watcherBuffer = 128

type watcher struct {
	svc  *Service
	spec wire.WatchSpec
	opts anomaly.Options

	mu     sync.Mutex
	closed bool
	ch     chan wire.Alert
}

// Alerts implements wire.AlertSubscription.
func (w *watcher) Alerts() <-chan wire.Alert { return w.ch }

// Close implements wire.AlertSubscription.
func (w *watcher) Close() {
	w.svc.wamu.Lock()
	delete(w.svc.watchers, w)
	w.svc.wamu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.closed {
		w.closed = true
		close(w.ch)
	}
}

// deliver hands one alert to the subscriber, never blocking the alert
// engine: a full buffer kills the subscription (the wire layer then
// reports the overrun to the client).
func (w *watcher) deliver(a wire.Alert) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	select {
	case w.ch <- a:
		w.mu.Unlock()
	default:
		w.closed = true
		close(w.ch)
		w.mu.Unlock()
		w.svc.wamu.Lock()
		delete(w.svc.watchers, w)
		w.svc.wamu.Unlock()
	}
}
