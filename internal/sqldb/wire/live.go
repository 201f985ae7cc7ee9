package wire

// Live verbs: the continuous-benchmarking protocol surface.
//
// INGEST accepts one experiment output file per request; the server's
// live service parses it with the experiment's input description and
// bulk-loads it as one transaction, answering with the run id and the
// commit position. A client streams a benchmark campaign by issuing
// INGESTs back to back (or from many connections — the service's
// worker pool and the engine's group commit overlap them).
//
// WATCH subscribes the connection to push regression alerts: after the
// request the connection becomes a one-way Notice stream (the same
// shape as SUBSCRIBE's frame stream, heartbeats included), delivering
// an Alert every time a freshly ingested run regresses against its
// history per internal/anomaly.
//
// VIEW reads a named materialized view: the server answers from the
// view registry's lock-free published result, never touching the
// database, and stamps the position the view reflects.

import (
	"errors"
	"fmt"
	"net"
	"time"

	"encoding/gob"

	"perfbase/internal/sqldb"
)

// Live verbs and error code.
const (
	verbIngest = "ingest"
	verbWatch  = "watch"
	verbView   = "view"
	verbViews  = "views"

	codeNoLive = "no-live"
)

// ErrNoLive reports a live verb sent to a server without a live
// service attached (pbserver without -live).
var ErrNoLive = errors.New("wire: server has no live service (start pbserver with -live)")

// IngestRequest is one experiment output file to parse and load.
type IngestRequest struct {
	// Experiment names the target experiment (must already exist).
	Experiment string
	// Desc is the perfbase input description XML that maps the output
	// format to experiment variables.
	Desc []byte
	// Name is the file name (available to <filename> input variables
	// and used in errors).
	Name string
	// Data is the raw experiment output.
	Data []byte
}

// IngestResult answers an INGEST.
type IngestResult struct {
	RunID int
	Rows  int // data sets loaded
	// Epoch/LSN is the commit position of the run's transaction.
	Epoch uint64
	LSN   uint64
}

// WatchSpec subscribes to regression alerts. The zero value of each
// tuning field means "server default" (see anomaly.Options.WithDefaults);
// non-zero fields override per subscription, so one dashboard can
// watch with a tight threshold while another stays conservative.
type WatchSpec struct {
	// Experiment filters alerts to one experiment; empty watches all.
	Experiment string
	// Variable filters to one result variable; empty watches every
	// numeric result variable.
	Variable string

	// anomaly.Options tuning (see that package for semantics).
	K            float64
	ThresholdPct float64
	MinSamples   int
	GroupBy      []string
}

// Alert is one pushed regression notification.
type Alert struct {
	Experiment string
	Variable   string
	RunID      int
	Group      string
	// Latest is the regressed run's value; History the robust history
	// center it deviates from; ChangePct the relative change.
	Latest    float64
	History   float64
	ChangePct float64
	// HistoryRuns is the number of runs behind History.
	HistoryRuns int
	// Epoch/LSN is the commit position of the run that triggered the
	// alert.
	Epoch uint64
	LSN   uint64
}

// Notice is one WATCH stream message: an alert, an idle heartbeat
// carrying the server position, or a terminal error.
type Notice struct {
	Alert     *Alert
	Heartbeat bool
	Epoch     uint64
	LSN       uint64
	Err       string
}

// AlertSubscription is a live alert feed handed out by a LiveBackend.
type AlertSubscription interface {
	// Alerts is the feed; it closes when the subscription dies (slow
	// consumer overrun or service shutdown).
	Alerts() <-chan Alert
	// Close releases the subscription.
	Close()
}

// LiveBackend is the continuous-benchmarking service the live verbs
// are served from; internal/live.Service implements it.
type LiveBackend interface {
	IngestFile(req IngestRequest) (IngestResult, error)
	WatchAlerts(spec WatchSpec) (AlertSubscription, error)
	ViewNames() []string
	ViewResult(name string) (*sqldb.Result, sqldb.ReplPos, error)
}

// SetLive attaches a live service; the server then accepts INGEST,
// WATCH and VIEW. Set before Listen.
func (s *Server) SetLive(lb LiveBackend) { s.live = lb }

// execLive serves the request/response live verbs (INGEST, VIEW,
// VIEWS); WATCH is a stream and dispatches in serveConn.
func (s *Server) execLive(req *request) (resp response) {
	defer s.stampPos(&resp)
	if s.live == nil {
		resp.Code = codeNoLive
		resp.Err = ErrNoLive.Error()
		return resp
	}
	switch req.Verb {
	case verbIngest:
		if req.Ingest == nil {
			resp.Err = "wire: INGEST without payload"
			return resp
		}
		if s.readOnly {
			fail(&resp, sqldb.ErrReadOnly)
			return resp
		}
		ir, err := s.live.IngestFile(*req.Ingest)
		if err != nil {
			fail(&resp, err)
			return resp
		}
		resp.Ingest = &ir
		resp.Affected = ir.Rows
	case verbView:
		res, pos, err := s.live.ViewResult(req.View)
		if err != nil {
			fail(&resp, err)
			return resp
		}
		resp.Columns = res.Columns
		resp.Rows = res.Rows
		resp.ViewEpoch, resp.ViewLSN = pos.Epoch, pos.LSN
	case verbViews:
		resp.Views = s.live.ViewNames()
	}
	return resp
}

// serveWatch handles a WATCH request: it answers with the subscription
// outcome and then turns the connection into a one-way Notice stream
// until the watcher disconnects or the subscription dies.
func (s *Server) serveWatch(conn net.Conn, enc *gob.Encoder, req *request) {
	var resp response
	s.stampPos(&resp)
	if s.live == nil {
		resp.Code = codeNoLive
		resp.Err = ErrNoLive.Error()
		enc.Encode(&resp) //nolint:errcheck // closing anyway
		return
	}
	var spec WatchSpec
	if req.Watch != nil {
		spec = *req.Watch
	}
	sub, err := s.live.WatchAlerts(spec)
	if err != nil {
		fail(&resp, err)
		enc.Encode(&resp) //nolint:errcheck // closing anyway
		return
	}
	defer sub.Close()
	if err := enc.Encode(&resp); err != nil {
		return
	}

	// Reader-side close detection, as in serveStream: any read
	// completing means the watcher is gone.
	done := make(chan struct{})
	go func() {
		var b [1]byte
		conn.Read(b[:]) //nolint:errcheck // any outcome means: stop
		close(done)
	}()

	hb := time.NewTicker(streamHeartbeat)
	defer hb.Stop()
	for {
		var n Notice
		select {
		case <-done:
			return
		case a, ok := <-sub.Alerts():
			if !ok {
				n = Notice{Err: "wire: watch subscription lost (overrun or shutdown)"}
			} else {
				n = Notice{Alert: &a, Epoch: a.Epoch, LSN: a.LSN}
			}
		case <-hb.C:
			pos := s.backend.Pos()
			n = Notice{Heartbeat: true, Epoch: pos.Epoch, LSN: pos.LSN}
		}
		if err := enc.Encode(&n); err != nil {
			return
		}
		if n.Err != "" {
			return
		}
	}
}

// ----------------------------------------------------------- client

// Ingest submits one experiment output file for parsing and loading;
// it returns once the run's transaction committed.
func (c *Client) Ingest(req IngestRequest) (*IngestResult, error) {
	resp, err := c.roundTrip(&request{Verb: verbIngest, Ingest: &req})
	if err != nil {
		return nil, err
	}
	if resp.Ingest == nil {
		return nil, errors.New("wire: ingest response without result")
	}
	return resp.Ingest, nil
}

// Watch turns the client into a one-way alert stream for spec. On
// success the client serves NextNotice/NextAlert only.
func (c *Client) Watch(spec WatchSpec) error {
	_, err := c.roundTrip(&request{Verb: verbWatch, Watch: &spec})
	return err
}

// NextNotice blocks for the next WATCH stream message (heartbeats
// included); only valid after a successful Watch.
func (c *Client) NextNotice() (*Notice, error) {
	c.mu.Lock()
	if !c.streaming || c.conn == nil {
		c.mu.Unlock()
		return nil, errors.New("wire: not watching")
	}
	dec := c.dec
	c.mu.Unlock()
	var n Notice
	if err := dec.Decode(&n); err != nil {
		return nil, fmt.Errorf("wire: watch stream: %w", err)
	}
	if n.Err != "" {
		return nil, errors.New(n.Err)
	}
	return &n, nil
}

// NextAlert blocks for the next alert, skipping heartbeats.
func (c *Client) NextAlert() (*Alert, error) {
	for {
		n, err := c.NextNotice()
		if err != nil {
			return nil, err
		}
		if n.Alert != nil {
			return n.Alert, nil
		}
	}
}

// FetchView reads a named materialized view from the server's live
// service: the current result and the position it reflects.
func (c *Client) FetchView(name string) (*sqldb.Result, sqldb.ReplPos, error) {
	resp, err := c.roundTrip(&request{Verb: verbView, View: name})
	if err != nil {
		return nil, sqldb.ReplPos{}, err
	}
	res := &sqldb.Result{Columns: resp.Columns, Rows: resp.Rows}
	return res, sqldb.ReplPos{Epoch: resp.ViewEpoch, LSN: resp.ViewLSN}, nil
}

// ViewNames lists the server's registered materialized views.
func (c *Client) ViewNames() ([]string, error) {
	resp, err := c.roundTrip(&request{Verb: verbViews})
	if err != nil {
		return nil, err
	}
	return resp.Views, nil
}
