package wire

import (
	"encoding/gob"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"perfbase/internal/sqldb"
	"perfbase/internal/value"
)

// startServer launches a server on a random loopback port.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	db := sqldb.NewMemory()
	srv := NewServer(db)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr()
}

func TestClientServerRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec("CREATE TABLE t (a integer, s string)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Errorf("affected = %d", res.Affected)
	}
	res, err = c.Exec("SELECT a, s FROM t ORDER BY a DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 2 || res.Rows[0][1].Str() != "y" {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Columns[0].Name != "a" || res.Columns[1].Type != value.String {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestServerErrorPropagation(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("SELECT * FROM missing")
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("error = %v", err)
	}
	// Connection still usable after an error.
	if _, err := c.Exec("SELECT 1"); err != nil {
		t.Errorf("connection broken after error: %v", err)
	}
}

func TestMultipleClients(t *testing.T) {
	_, addr := startServer(t)
	c0, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	if _, err := c0.Exec("CREATE TABLE counts (i integer)"); err != nil {
		t.Fatal(err)
	}

	const clients = 6
	const perClient = 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < perClient; j++ {
				if _, err := c.Exec(fmt.Sprintf("INSERT INTO counts VALUES (%d)", id*1000+j)); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := c0.Exec("SELECT COUNT(*) FROM counts")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != clients*perClient {
		t.Errorf("total rows = %v", res.Rows[0][0])
	}
}

func TestConcurrentExecOnOneClient(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE t (i integer)"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := c.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d)", id)); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := c.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 160 {
		t.Errorf("rows = %v", res.Rows[0][0])
	}
}

func TestAllValueTypesOverWire(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE v (i integer, f float, s string,
		ts timestamp, b boolean, ver version)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO v VALUES
		(42, 3.25, 'hello', '2004-11-23 18:30:30', TRUE, '2.6.10'),
		(NULL, NULL, NULL, NULL, NULL, NULL)`); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("SELECT * FROM v ORDER BY i DESC")
	if err != nil {
		t.Fatal(err)
	}
	r0 := res.Rows[0]
	if r0[0].Int() != 42 || r0[1].Float() != 3.25 || r0[2].Str() != "hello" {
		t.Errorf("row0 = %v", r0)
	}
	if r0[3].Time().Year() != 2004 || !r0[4].Bool() || r0[5].Str() != "2.6.10" {
		t.Errorf("row0 tail = %v", r0)
	}
	for i, v := range res.Rows[1] {
		if !v.IsNull() {
			t.Errorf("row1[%d] = %v, want NULL", i, v)
		}
	}
}

func TestClientClosed(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("SELECT 1"); err == nil {
		t.Error("Exec on closed client succeeded")
	}
	if err := c.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestStreamClientRefusesRequests: once a client has become a one-way
// subscription stream, no request may be written onto it — the server
// no longer reads them, and the answer the client would wait for never
// comes. The peer acks the handshake and the SUBSCRIBE, then only reads.
func TestStreamClientRefusesRequests(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
		for {
			var req request
			if dec.Decode(&req) != nil {
				return
			}
			switch {
			case req.Hello != nil:
				enc.Encode(&response{Hello: &HelloAck{Version: ProtocolVersion}}) //nolint:errcheck
			case req.Verb == verbSubscribe:
				enc.Encode(&response{}) //nolint:errcheck
			}
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(sqldb.ReplPos{}); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"Exec":       func() error { _, err := c.Exec("SELECT 1"); return err },
		"InsertRows": func() error { _, err := c.InsertRows("t", []string{"a"}, []sqldb.Row{{value.NewInt(1)}}); return err },
		"ExecPipeline": func() error {
			_, err := c.ExecPipeline([]sqldb.PipelineRequest{{SQL: "SELECT 1"}})
			return err
		},
	} {
		done := make(chan error, 1)
		go func() { done <- call() }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "subscription stream") {
				t.Errorf("%s on a stream: %v, want a refusal", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s on a stream wrote its request and waits for an answer", name)
		}
	}
	c.Close()
}

func TestServerClose(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("SELECT 1"); err == nil {
		t.Error("Exec against closed server succeeded")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("double server close: %v", err)
	}
	if _, err := Dial(addr); err == nil {
		t.Error("dial to closed server succeeded")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to dead port succeeded")
	}
}

func TestBulkInsertOverWire(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE t (a integer, s string)"); err != nil {
		t.Fatal(err)
	}
	rows := make([]sqldb.Row, 500)
	for i := range rows {
		rows[i] = sqldb.Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("r%d", i))}
	}
	n, err := c.InsertRows("t", []string{"a", "s"}, rows)
	if err != nil || n != 500 {
		t.Fatalf("InsertRows = %d, %v", n, err)
	}
	res, err := c.Exec("SELECT COUNT(*), MAX(a) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 500 || res.Rows[0][1].Int() != 499 {
		t.Errorf("bulk state = %v", res.Rows[0])
	}
	// Errors propagate and the connection stays usable.
	if _, err := c.InsertRows("nope", []string{"a"}, rows[:1]); err == nil {
		t.Error("bulk insert into missing table accepted")
	}
	if _, err := c.Exec("SELECT 1"); err != nil {
		t.Errorf("connection broken after bulk error: %v", err)
	}
	// Closed client.
	c.Close()
	if _, err := c.InsertRows("t", []string{"a"}, rows[:1]); err == nil {
		t.Error("bulk insert on closed client accepted")
	}
}

// TestConcurrentReadDuringWriteOverWire exercises the MVCC behaviour
// through the socket layer: one client continuously bulk-imports whole
// batches while another reads; every read must see a whole number of
// batches (snapshot reads never expose a partially applied insert).
func TestConcurrentReadDuringWriteOverWire(t *testing.T) {
	_, addr := startServer(t)
	writer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	reader, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	if _, err := writer.Exec("CREATE TABLE t (a integer)"); err != nil {
		t.Fatal(err)
	}
	const batch = 50
	rows := make([]sqldb.Row, batch)
	for i := range rows {
		rows[i] = sqldb.Row{value.NewInt(int64(i))}
	}

	done := make(chan error, 1)
	go func() {
		for k := 0; k < 40; k++ {
			if _, err := writer.InsertRows("t", []string{"a"}, rows); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			res, err := reader.Exec("SELECT COUNT(*) FROM t")
			if err != nil {
				t.Fatal(err)
			}
			if n := res.Rows[0][0].Int(); n != 40*batch {
				t.Fatalf("final count = %d, want %d", n, 40*batch)
			}
			return
		default:
		}
		res, err := reader.Exec("SELECT COUNT(*) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Rows[0][0].Int(); n%batch != 0 {
			t.Fatalf("read a partial batch: count = %d", n)
		}
	}
}
