package main

import (
	"net"
	"sync"
	"sync/atomic"
)

// proxy is a loopback TCP relay that counts the bytes of each direction.
// The traced server_mixed run puts it between clients and server, so the
// wire volume is read from outside the wire package.
type proxy struct {
	ln     net.Listener
	target string
	up     atomic.Int64 // client → server
	down   atomic.Int64 // server → client

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func startProxy(target string) (*proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{ln: ln, target: target}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *proxy) addr() string { return p.ln.Addr().String() }

func (p *proxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, c, s)
		p.mu.Unlock()
		p.wg.Add(2)
		go p.relay(s, c, &p.up)
		go p.relay(c, s, &p.down)
	}
}

// relay copies src to dst until either side closes, then closes both so
// that the opposite relay ends too.
func (p *proxy) relay(dst, src net.Conn, n *atomic.Int64) {
	defer p.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		k, err := src.Read(buf)
		if k > 0 {
			n.Add(int64(k))
			if _, werr := dst.Write(buf[:k]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	dst.Close()
	src.Close()
}

// close stops the relay and waits for its goroutines.
func (p *proxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
