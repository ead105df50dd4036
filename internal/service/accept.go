package service

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Acceptor is the connection half that the decode server and the fleet
// gateway share: it binds listeners, runs one accept loop per listener,
// serves every accepted connection on its own goroutine, and drains them.
// The session function owns the connection while it runs; the acceptor
// closes it when the function returns.
type Acceptor struct {
	serve   func(net.Conn)
	drained func()
	logf    func(format string, args ...interface{})

	mu        sync.Mutex
	listeners []net.Listener // the first one answers Addr
	conns     map[net.Conn]struct{}
	sessions  sync.WaitGroup // accept loops and live sessions
	draining  atomic.Bool
}

// NewAcceptor builds an acceptor that runs serve on every accepted
// connection, runs drained once after the first Drain has ended every
// session (the owner's own shutdown), and reports drain diagnostics to
// logf.
func NewAcceptor(serve func(net.Conn), drained func(), logf func(format string, args ...interface{})) *Acceptor {
	return &Acceptor{serve: serve, drained: drained, logf: logf, conns: make(map[net.Conn]struct{})}
}

// Listen binds addr ("host:port"; port 0 picks a free port, see Addr) and
// starts accepting sessions in the background. Listen and ListenUnix may
// both be active: the same service then answers TCP and co-located UDS
// clients.
func (a *Acceptor) Listen(addr string) error { return a.listen("tcp", addr) }

// ListenUnix binds a Unix-domain stream socket at path — the co-located
// client transport (bpsf-serve -uds): same wire protocol, no TCP stack
// in the round trip. A stale socket file from a previous run is an
// ordinary bind error; callers remove it first.
func (a *Acceptor) ListenUnix(path string) error { return a.listen("unix", path) }

func (a *Acceptor) listen(network, addr string) error {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.listeners = append(a.listeners, ln)
	a.mu.Unlock()
	a.sessions.Add(1) // the accept loop itself
	go a.acceptLoop(ln)
	return nil
}

// Addr returns the first bound listen address (nil before Listen).
func (a *Acceptor) Addr() net.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.listeners) == 0 {
		return nil
	}
	return a.listeners[0].Addr()
}

func (a *Acceptor) acceptLoop(ln net.Listener) {
	defer a.sessions.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (Drain)
		}
		a.mu.Lock()
		a.conns[conn] = struct{}{}
		a.mu.Unlock()
		a.sessions.Add(1)
		go func() {
			defer a.sessions.Done()
			a.serve(conn)
			conn.Close()
			a.mu.Lock()
			delete(a.conns, conn)
			a.mu.Unlock()
		}()
	}
}

// Drain stops accepting, waits up to grace for live sessions to end,
// force-closes the connections still open, waits for their sessions to
// return, then runs the owner's drained function. Only the first call
// drains; later calls return at once.
func (a *Acceptor) Drain(grace time.Duration) {
	if !a.draining.CompareAndSwap(false, true) {
		return
	}
	a.mu.Lock()
	for _, ln := range a.listeners {
		ln.Close()
	}
	a.mu.Unlock()
	done := make(chan struct{})
	go func() {
		a.sessions.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		a.mu.Lock()
		n := len(a.conns)
		for c := range a.conns {
			c.Close()
		}
		a.mu.Unlock()
		a.logf("drain: grace expired, closed %d live connections", n)
		<-done
	}
	a.drained()
}
