package wire

import (
	"encoding/gob"
	"errors"
	"net"
	"testing"
	"time"

	"perfbase/internal/sqldb"
)

// v1Request mirrors the protocol-v1 request struct (no Hello field) so
// the tests can speak as a genuine old client/server: gob matches
// fields by name, so these encode exactly what a v1 binary sent.
type v1Request struct {
	SQL   string
	Bulk  bool
	Table string
	Cols  []string
	Rows  []sqldb.Row
	Batch []v1Request
}

// v2Request mirrors the protocol-v2 request struct as far as the
// handshake goes: a Hello, and no pour step.
type v2Request struct {
	SQL   string
	Hello *Hello
}

// v2Response mirrors the protocol-v2 response struct as far as the
// handshake goes.
type v2Response struct {
	Err   string
	Code  string
	Hello *HelloAck
}

// v1Response mirrors the protocol-v1 response struct.
type v1Response struct {
	Columns  sqldb.Schema
	Rows     []sqldb.Row
	Affected int
	Err      string
	Busy     bool
	Batch    []v1Response
}

// TestOldClientAgainstNewServer verifies the downgrade path: a v1
// client's first message has no Hello, and a v2 client's Hello names a
// version without the pour step, so the server must answer either with
// one typed version-error response and close the connection — no hang,
// no garbage frame the old client would misparse.
func TestOldClientAgainstNewServer(t *testing.T) {
	db := sqldb.NewMemory()
	srv := NewServer(db)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()

	for name, first := range map[string]any{
		"v1": &v1Request{SQL: "SELECT 1"},           // a v1 client opens with a plain statement
		"v2": &v2Request{Hello: &Hello{Version: 2}}, // a v2 client with its handshake
	} {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second)) // fail, don't hang

			if err := gob.NewEncoder(conn).Encode(first); err != nil {
				t.Fatalf("send first request: %v", err)
			}
			dec := gob.NewDecoder(conn)
			var resp v1Response
			if err := dec.Decode(&resp); err != nil {
				t.Fatalf("decode response: %v", err)
			}
			if resp.Err == "" {
				t.Fatalf("%s request accepted by v%d server: %+v", name, ProtocolVersion, resp)
			}
			if want := "protocol version mismatch"; !contains(resp.Err, want) {
				t.Fatalf("error %q does not mention %q", resp.Err, want)
			}
			// The server must close the connection after the refusal.
			if err := dec.Decode(&resp); err == nil {
				t.Fatal("connection still open after version refusal")
			}
		})
	}
}

// TestNewClientAgainstOldServer verifies the upgrade path: Dial against
// a v1 server (which answers the handshake's empty statement with a
// plain error and no ack) or a v2 server (which acks with its own
// version) must fail with the typed ErrVersionMismatch instead of
// hanging, returning a confusing SQL error, or sending pour steps the
// server would run as bare SELECTs.
func TestNewClientAgainstOldServer(t *testing.T) {
	db := sqldb.NewMemory()
	// Faithful old server loops: decode request, execute, answer.
	servers := map[string]func(dec *gob.Decoder, enc *gob.Encoder){
		"v1": func(dec *gob.Decoder, enc *gob.Encoder) {
			for {
				var req v1Request
				if err := dec.Decode(&req); err != nil {
					return
				}
				var resp v1Response
				res, err := db.Exec(req.SQL)
				if err != nil {
					resp.Err = err.Error()
				} else {
					resp.Columns = res.Columns
					resp.Rows = res.Rows
					resp.Affected = res.Affected
				}
				if err := enc.Encode(&resp); err != nil {
					return
				}
			}
		},
		"v2": func(dec *gob.Decoder, enc *gob.Encoder) {
			var hello v2Request
			if err := dec.Decode(&hello); err != nil || hello.Hello == nil {
				return
			}
			if hello.Hello.Version != 2 {
				enc.Encode(&v2Response{Code: codeVersion, Err: "wire: protocol version mismatch"}) //nolint:errcheck
				return
			}
			enc.Encode(&v2Response{Hello: &HelloAck{Version: 2, Role: "primary"}}) //nolint:errcheck
		},
	}
	for name, serve := range servers {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			defer ln.Close()
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					go func(conn net.Conn) {
						defer conn.Close()
						serve(gob.NewDecoder(conn), gob.NewEncoder(conn))
					}(conn)
				}
			}()

			c, err := Dial(ln.Addr().String())
			if err == nil {
				c.Close()
				t.Fatalf("Dial succeeded against a %s server", name)
			}
			if !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("Dial error = %v, want ErrVersionMismatch", err)
			}
		})
	}
}

// TestWrongVersionHello covers a v2 client and a future v4 client
// dialing this server: the Hello is present but the version differs,
// and the refusal must be typed on both sides.
func TestWrongVersionHello(t *testing.T) {
	db := sqldb.NewMemory()
	srv := NewServer(db)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()

	for _, version := range []int{ProtocolVersion - 1, ProtocolVersion + 1} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))

		if err := gob.NewEncoder(conn).Encode(&request{Hello: &Hello{Version: version}}); err != nil {
			t.Fatalf("v%d: send hello: %v", version, err)
		}
		var resp response
		if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
			t.Fatalf("v%d: decode: %v", version, err)
		}
		conn.Close()
		if resp.Code != codeVersion {
			t.Fatalf("v%d: response code = %q, want %q (err %q)", version, resp.Code, codeVersion, resp.Err)
		}
		if err := respError(&resp); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("v%d: respError = %v, want ErrVersionMismatch", version, err)
		}
	}
}

// TestHandshakeCarriesRoleAndPos verifies the ack metadata clients use
// for routing decisions.
func TestHandshakeCarriesRoleAndPos(t *testing.T) {
	db := sqldb.NewMemory()
	db.SetRole("replica")
	srv := NewServer(db)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()
	srv.SetAdvertise("node7:1234")

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if c.Role() != "replica" {
		t.Fatalf("handshake role = %q, want replica", c.Role())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
