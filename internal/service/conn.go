package service

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"
)

// Conn is one framed connection: the hop that the server's session, the
// client and both hops of the fleet gateway speak through. It owns the
// net.Conn's frame I/O (DESIGN.md §13):
//
//   - Read takes frames through a bufio.Reader into one reusable arena: a
//     payload is valid until the next Read, and a caller that keeps bytes
//     past it must copy them. The idle deadline, when set, is re-armed
//     before every frame. One goroutine reads.
//   - Writes go through a bufio.Writer under one lock, so any goroutine
//     may write. Write and Send flush at once; Buffer leaves the frame in
//     the buffer until an explicit Flush, which is how the server's reply
//     writer coalesces replies into one syscall. The write deadline, when
//     set, is re-armed before every write and flush.
//
// An accepted connection carries its owner's idle and write timeouts
// (NewConn). A dialed one carries none (DialConn): a quiet server is not
// a dead one.
type Conn struct {
	nc           net.Conn
	idleTimeout  time.Duration
	writeTimeout time.Duration

	br   *bufio.Reader
	rbuf []byte // the read arena
	grew bool   // the last Read outgrew the arena

	mu   sync.Mutex // guards bw and wbuf
	bw   *bufio.Writer
	wbuf []byte // Send's frame arena
}

// NewConn wraps an accepted connection. idleTimeout bounds the wait for
// each frame, writeTimeout each write and flush; 0 disables either.
func NewConn(nc net.Conn, idleTimeout, writeTimeout time.Duration) *Conn {
	return &Conn{
		nc:           nc,
		idleTimeout:  idleTimeout,
		writeTimeout: writeTimeout,
		br:           bufio.NewReader(nc),
		bw:           bufio.NewWriter(nc),
	}
}

// dialAddr opens the transport for addr: "unix:<path>", an absolute path,
// or an abstract-socket name (leading '@') selects a Unix-domain stream
// socket (the co-located transport of bpsf-serve -uds); anything else
// dials TCP. timeout bounds the connect (0 = none).
func dialAddr(addr string, timeout time.Duration) (net.Conn, error) {
	d := net.Dialer{Timeout: timeout}
	if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
		return d.Dial("unix", rest)
	}
	if strings.HasPrefix(addr, "/") || strings.HasPrefix(addr, "@") {
		return d.Dial("unix", addr)
	}
	return d.Dial("tcp", addr)
}

// DialConn opens a session on addr: it dials, sends hello (an encoded
// Hello payload) and reads the server's answer, the dial and the
// handshake together bounded by timeout (0 = unbounded). A server builds
// a new session's pool before it answers, so a late answer need not mean
// a dead server: when the bound passes with no answer, alive (if
// non-nil) decides whether to wait another timeout, and is asked again
// after each. It returns the raw answer, valid until the first Read: a
// HelloAck, or the Error frame of a server that refuses the Hello. The
// caller decides which it got.
func DialConn(addr string, hello []byte, timeout time.Duration, alive func() bool) (*Conn, []byte, error) {
	nc, err := dialAddr(addr, timeout)
	if err != nil {
		return nil, nil, err
	}
	if timeout > 0 {
		nc.SetDeadline(time.Now().Add(timeout))
	}
	c := NewConn(nc, 0, 0)
	var ack []byte
	err = c.Write(hello)
	if err == nil {
		if ack, err = c.awaitFrame(timeout, alive); err != nil {
			err = fmt.Errorf("service: reading session acceptance: %w", err)
		}
	}
	if err == nil {
		err = nc.SetDeadline(time.Time{})
	}
	if err != nil {
		nc.Close()
		return nil, nil, err
	}
	return c, ack, nil
}

// awaitFrame reads the next frame under the deadline already set. Until
// the frame's first byte arrives, each timeout that passes asks alive
// whether to wait another timeout. The byte is peeked, not consumed, so
// a wait that times out leaves no partial frame behind.
func (c *Conn) awaitFrame(timeout time.Duration, alive func() bool) ([]byte, error) {
	for {
		_, err := c.br.Peek(1)
		if err == nil {
			return c.Read()
		}
		var ne net.Error
		if alive == nil || !errors.As(err, &ne) || !ne.Timeout() || !alive() {
			return nil, err
		}
		c.nc.SetDeadline(time.Now().Add(timeout))
	}
}

// Read returns the next frame's payload, valid until the next Read.
func (c *Conn) Read() ([]byte, error) {
	if c.idleTimeout > 0 {
		c.nc.SetReadDeadline(time.Now().Add(c.idleTimeout))
	}
	payload, err := readFrameInto(c.br, DefaultMaxFrame, c.rbuf)
	if err != nil {
		return nil, err
	}
	c.grew = cap(payload) > cap(c.rbuf)
	c.rbuf = payload
	return payload, nil
}

// Write sends one frame and flushes it.
func (c *Conn) Write(payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sendLocked(payload)
}

// Send builds one frame in the Conn's write arena and sends it: build
// appends the payload to the empty slice it is given and returns the
// result. It runs under the write lock, so concurrent senders share the
// arena without allocating.
func (c *Conn) Send(build func([]byte) []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wbuf = build(c.wbuf[:0])
	return c.sendLocked(c.wbuf)
}

// Buffer writes one frame into the write buffer; it reaches the peer at
// the next Flush (or once the buffer fills).
func (c *Conn) Buffer(payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armWrite()
	return writeFrame(c.bw, payload)
}

// Flush pushes the buffered frames to the peer.
func (c *Conn) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armWrite()
	return c.bw.Flush()
}

// Close closes the connection; a blocked Read or write returns.
func (c *Conn) Close() error { return c.nc.Close() }

func (c *Conn) sendLocked(payload []byte) error {
	c.armWrite()
	if err := writeFrame(c.bw, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// armWrite re-arms the write deadline. Caller holds c.mu.
func (c *Conn) armWrite() {
	if c.writeTimeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
}

// writeFrame writes payload to bw as one length-prefixed frame; the
// caller flushes. The header goes out byte by byte: a stack header array
// passed to bufio.Writer.Write, whose parameter can flow to the
// underlying writer, is moved to the heap by escape analysis.
func writeFrame(bw *bufio.Writer, payload []byte) error {
	n := uint32(len(payload))
	for shift := 0; shift < 32; shift += 8 {
		if err := bw.WriteByte(byte(n >> shift)); err != nil {
			return err
		}
	}
	_, err := bw.Write(payload)
	return err
}

// readFrameInto reads one frame into buf, growing it only when the frame
// exceeds its capacity, and returns the payload as buf[:n] (the length
// header is stripped; payload[0] is the message type). The header is
// read byte by byte, for the same reason writeFrame writes it so. Errors
// match io.ReadFull: io.EOF only on a clean frame boundary,
// io.ErrUnexpectedEOF inside a frame.
func readFrameInto(br *bufio.Reader, maxFrame int, buf []byte) ([]byte, error) {
	var n uint32
	for shift := 0; shift < 32; shift += 8 {
		c, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && shift > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		n |= uint32(c) << shift
	}
	if n == 0 {
		return nil, fmt.Errorf("service: empty frame")
	}
	if int64(n) > int64(maxFrame) {
		return nil, fmt.Errorf("service: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	if uint64(cap(buf)) < uint64(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
