package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"

	"repro/internal/failure"
)

// TCPNetwork runs the protocols over real TCP sockets on the loopback (or
// any) interface. Each process listens on one address; frames are
// length-prefixed. Unlike MemNetwork it has no fault injection or delay
// shaping — it exists to demonstrate that the protocol stack is not tied to
// the simulator and to provide integration coverage over a real transport.
//
// Transitivity is irrelevant here because all channels are live; SendAll is
// n unicasts.
//
// It implements Corker to coalesce writes. Send appends each frame to a
// per-peer buffer. Between Cork and Flush the buffers are held, and Flush
// writes every non-empty one with one write call; a buffer that reaches
// tcpFlushLen is written at once. An uncorked Send writes its frame at
// once: a send from any goroutine while the node loop is idle goes out
// without waiting for loop activity. Partitioning is decided at Send time:
// a frame sent to a partitioned peer is dropped, and a frame held before
// SetPartitioned is still written at Flush.
type TCPNetwork struct {
	id    failure.Proc
	addrs []string // addrs[p] = host:port of process p

	mu       sync.Mutex
	handler  Handler
	listener net.Listener
	conns    map[failure.Proc]net.Conn
	inbound  map[net.Conn]bool
	blocked  map[failure.Proc]bool
	closed   bool
	wg       sync.WaitGroup

	// sendMu serializes frame writes so concurrent senders cannot interleave
	// partial frames on one connection, and guards the write buffers.
	sendMu  sync.Mutex
	corked  bool
	pending [][]byte // per peer: frames not yet written, reused
}

var (
	_ Network = (*TCPNetwork)(nil)
	_ Corker  = (*TCPNetwork)(nil)
)

// frame layout: 4-byte big-endian length | 4-byte big-endian sender | payload.
const tcpHeaderLen = 8

// maxFrameLen bounds a frame to 16 MiB to reject corrupt length prefixes.
const maxFrameLen = 16 << 20

// tcpReadBuf sizes the read buffer of each inbound connection: room for a
// burst of small protocol frames, small enough that idle connections cost
// little.
const tcpReadBuf = 4 << 10

// tcpFlushLen bounds a peer's held frames: a corked buffer this long is
// written at once, and a longer one is not kept for reuse after its write.
const tcpFlushLen = 64 << 10

// NewTCP creates the network endpoint of process id, listening on
// addrs[id]. All processes must share the same addrs slice. The returned
// network is ready to accept connections; outgoing connections are dialed
// lazily on first send.
func NewTCP(id failure.Proc, addrs []string) (*TCPNetwork, error) {
	if int(id) < 0 || int(id) >= len(addrs) {
		return nil, fmt.Errorf("process id %d out of range for %d addresses", id, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addrs[id], err)
	}
	t := &TCPNetwork{
		id:       id,
		addrs:    append([]string(nil), addrs...),
		listener: ln,
		conns:    make(map[failure.Proc]net.Conn),
		inbound:  make(map[net.Conn]bool),
		blocked:  make(map[failure.Proc]bool),
		pending:  make([][]byte, len(addrs)),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the actual listen address (useful with ":0" ports).
func (t *TCPNetwork) Addr() string { return t.listener.Addr().String() }

// SetPeerAddr updates the address of peer p (needed when peers listen on
// ephemeral ports).
func (t *TCPNetwork) SetPeerAddr(p failure.Proc, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(p) >= 0 && int(p) < len(t.addrs) {
		t.addrs[p] = addr
	}
}

// N implements Network.
func (t *TCPNetwork) N() int { return len(t.addrs) }

// Register implements Network.
func (t *TCPNetwork) Register(p failure.Proc, h Handler) {
	if p != t.id {
		return // each TCPNetwork endpoint hosts exactly one process
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

func (t *TCPNetwork) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCPNetwork) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	// One small buffer per connection: a burst of frames costs one read
	// call, not two per frame (header, then payload). Frames larger than
	// the buffer are read through it unchanged.
	r := bufio.NewReaderSize(conn, tcpReadBuf)
	header := make([]byte, tcpHeaderLen)
	for {
		if _, err := io.ReadFull(r, header); err != nil {
			return
		}
		length := binary.BigEndian.Uint32(header[:4])
		sender := failure.Proc(binary.BigEndian.Uint32(header[4:]))
		if length > maxFrameLen {
			log.Printf("tcpnet %d: oversized frame (%d bytes) from %d; closing connection", t.id, length, sender)
			return
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return
		}
		t.mu.Lock()
		h := t.handler
		closed := t.closed
		dropped := t.blocked[sender]
		t.mu.Unlock()
		if closed {
			return
		}
		if dropped {
			continue // partitioned: incoming message lost
		}
		if h != nil {
			h(sender, payload)
		}
	}
}

// SetPartitioned blocks (or unblocks) all traffic between this endpoint and
// peer p: outgoing frames to p are dropped and incoming frames from p are
// discarded on read. It simulates a network partition over the live TCP
// transport, which has no other fault injection; tests use it to exercise
// partition-heal recovery paths.
func (t *TCPNetwork) SetPartitioned(p failure.Proc, partitioned bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if partitioned {
		t.blocked[p] = true
	} else {
		delete(t.blocked, p)
	}
}

// Send implements Network. Send failures (dial errors, broken pipes) are
// treated as message loss, matching the asynchronous model: the connection
// is discarded and will be re-dialed on the next send.
func (t *TCPNetwork) Send(from, to failure.Proc, payload []byte) {
	if from != t.id {
		return
	}
	t.mu.Lock()
	dropped := t.blocked[to]
	t.mu.Unlock()
	if dropped {
		return // partitioned: outgoing message lost
	}
	if to == t.id {
		t.mu.Lock()
		h := t.handler
		closed := t.closed
		t.mu.Unlock()
		if !closed && h != nil {
			h(from, payload)
		}
		return
	}
	if _, err := t.connTo(to); err != nil {
		return // unreachable peer = lost message
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	t.pending[to] = appendFrame(t.pending[to], from, payload)
	if !t.corked || len(t.pending[to]) >= tcpFlushLen {
		t.flushTo(to)
	}
}

// appendFrame appends one frame, header then payload, to buf.
func appendFrame(buf []byte, from failure.Proc, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(from))
	return append(buf, payload...)
}

// Cork implements Corker: frames sent from now on are held until Flush.
func (t *TCPNetwork) Cork(from failure.Proc) {
	if from != t.id {
		return
	}
	t.sendMu.Lock()
	t.corked = true
	t.sendMu.Unlock()
}

// Flush implements Corker: it writes each peer's held frames with one write
// call and sends at once again until the next Cork.
func (t *TCPNetwork) Flush(from failure.Proc) {
	if from != t.id {
		return
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	t.corked = false
	for p, buf := range t.pending {
		if len(buf) > 0 {
			t.flushTo(failure.Proc(p))
		}
	}
}

// flushTo writes the frames buffered for peer p on its current connection;
// if the connection is gone they are lost, like any frame on a broken
// connection. Called with sendMu held.
func (t *TCPNetwork) flushTo(p failure.Proc) {
	buf := t.pending[p]
	t.mu.Lock()
	conn := t.conns[p]
	t.mu.Unlock()
	if conn != nil {
		if _, err := conn.Write(buf); err != nil {
			t.dropConn(p, conn)
		}
	}
	if cap(buf) > tcpFlushLen {
		buf = nil
	}
	t.pending[p] = buf[:0]
}

// SendAll implements Network.
func (t *TCPNetwork) SendAll(from failure.Proc, payload []byte) {
	for p := 0; p < len(t.addrs); p++ {
		t.Send(from, failure.Proc(p), payload)
	}
}

func (t *TCPNetwork) connTo(p failure.Proc) (net.Conn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errors.New("network closed")
	}
	if c, ok := t.conns[p]; ok {
		t.mu.Unlock()
		return c, nil
	}
	addr := t.addrs[p]
	t.mu.Unlock()

	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		c.Close()
		return nil, errors.New("network closed")
	}
	if existing, ok := t.conns[p]; ok {
		c.Close() // lost the race; reuse the existing connection
		return existing, nil
	}
	t.conns[p] = c
	return c, nil
}

func (t *TCPNetwork) dropConn(p failure.Proc, c net.Conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conns[p] == c {
		delete(t.conns, p)
	}
	c.Close()
}

// Close implements Network.
func (t *TCPNetwork) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	conns := t.conns
	t.conns = map[failure.Proc]net.Conn{}
	inbound := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		inbound = append(inbound, c)
	}
	t.mu.Unlock()
	t.listener.Close()
	for _, c := range conns {
		c.Close()
	}
	for _, c := range inbound {
		c.Close()
	}
	t.wg.Wait()
}
