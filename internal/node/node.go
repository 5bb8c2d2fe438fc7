// Package node provides the actor-style process runtime that hosts every
// protocol in this library. A Node owns a single event loop goroutine;
// incoming messages, periodic ticks and externally submitted closures all
// execute on that loop, so protocol state needs no further synchronization.
package node

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/failure"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrStopped is returned by CallCtx when the node's event loop has exited.
var ErrStopped = errors.New("node stopped")

// Handler processes a protocol message on the node's event loop.
type Handler func(from failure.Proc, m wire.Message)

// The handler registry is a sync.Map: installs are O(1) and dispatch is
// lock-free, since after startup lookups hit its immutable read map — one
// atomic load plus a hash probe.

// Node is a single process: an unbounded mailbox drained by one event-loop
// goroutine, a topic-based handler registry, and tracked periodic tasks.
type Node struct {
	id    failure.Proc
	n     int
	net   transport.Network
	corks transport.Corker // net's write coalescing, or nil

	// mu guards only the mailbox ring; the handler registry is lock-free on
	// the read side.
	mu      sync.Mutex
	ring    []func() // circular mailbox buffer
	head    int      // index of the oldest queued entry
	count   int      // entries currently queued
	cond    *sync.Cond
	stopped bool

	handlers sync.Map // topic string -> Handler

	done    chan struct{}
	tickers sync.WaitGroup
	stopCh  chan struct{}
}

// New creates a node for process id on the given network and starts its
// event loop. Callers must install handlers (Handle) before messages for the
// corresponding topics arrive; unknown topics are dropped with a log line.
func New(id failure.Proc, net transport.Network) *Node {
	n := &Node{
		id:     id,
		n:      net.N(),
		net:    net,
		done:   make(chan struct{}),
		stopCh: make(chan struct{}),
	}
	n.cond = sync.NewCond(&n.mu)
	n.corks, _ = net.(transport.Corker)
	net.Register(id, n.onMessage)
	go n.loop()
	return n
}

// ID returns the node's process identifier.
func (n *Node) ID() failure.Proc { return n.id }

// ClusterSize returns the number of processes in the network.
func (n *Node) ClusterSize() int { return n.n }

// Handle installs the handler for a message topic. It may be called at any
// time, including from the event loop, and costs O(1).
func (n *Node) Handle(topic string, h Handler) {
	n.handlers.Store(topic, h)
}

// Unhandle removes the handler for a topic. Like Handle it may be called at
// any time, including from the event loop, and costs O(1). Messages for the
// topic are dropped from then on.
func (n *Node) Unhandle(topic string) {
	n.handlers.Delete(topic)
}

// lookup resolves the handler for a topic. Lock-free.
func (n *Node) lookup(topic string) Handler {
	if h, ok := n.handlers.Load(topic); ok {
		return h.(Handler)
	}
	return nil
}

// onMessage is the transport callback: enqueue dispatch work, never block.
func (n *Node) onMessage(from failure.Proc, payload []byte) {
	n.enqueue(func() {
		m, err := wire.Unmarshal(payload)
		if err != nil {
			log.Printf("node %d: dropping malformed message from %d: %v", n.id, from, err)
			return
		}
		if h := n.lookup(m.Topic); h != nil {
			h(from, m)
		}
	})
}

// enqueue appends work to the mailbox ring, growing it when full, and
// reports whether it did: after Stop nothing is queued. The ring reuses its
// backing array in steady state; the seed's queue[1:] pop left the backing
// array's head behind, forcing a reallocation per wrap under sustained
// load.
func (n *Node) enqueue(fn func()) bool {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return false
	}
	if n.count == len(n.ring) {
		grown := make([]func(), max(16, 2*len(n.ring)))
		for i := 0; i < n.count; i++ {
			grown[i] = n.ring[(n.head+i)%len(n.ring)]
		}
		n.ring = grown
		n.head = 0
	}
	n.ring[(n.head+n.count)%len(n.ring)] = fn
	n.count++
	n.mu.Unlock()
	n.cond.Signal()
	return true
}

// Do runs fn on the event loop asynchronously. It reports false, and fn
// never runs, once the node has stopped; a queued fn always runs.
func (n *Node) Do(fn func()) bool { return n.enqueue(fn) }

// Call runs fn on the event loop and waits for it to complete. It must not
// be invoked from the event loop itself (it would deadlock); protocol
// handlers already run on the loop and can touch state directly.
func (n *Node) Call(fn func()) {
	doneCh := make(chan struct{})
	n.enqueue(func() {
		fn()
		close(doneCh)
	})
	select { //lint:allow ctxflow Call IS the documented ctx-less variant of CallCtx; node stop releases the wait
	case <-doneCh:
	case <-n.done:
	}
}

// CallCtx runs fn on the event loop and waits for it to complete, the
// context to be canceled, or the node to stop — whichever comes first. Like
// Call it must not be invoked from the loop itself. When it returns a
// non-nil error, fn may still run later (or never, if the node stopped);
// callers must hand results out through buffered channels or other
// rendezvous that tolerate an abandoned completion.
func (n *Node) CallCtx(ctx context.Context, fn func()) error {
	doneCh := make(chan struct{})
	n.enqueue(func() {
		fn()
		close(doneCh)
	})
	completed := func() bool {
		// fn may have completed in the same instant the loop exited or the
		// context fired; a completed call must report success, not a
		// spuriously picked error branch.
		select {
		case <-doneCh:
			return true
		default:
			return false
		}
	}
	select {
	case <-doneCh:
		return nil
	case <-n.done:
		if completed() {
			return nil
		}
		return ErrStopped
	case <-ctx.Done():
		if completed() {
			return nil
		}
		return ctx.Err()
	}
}

// maxCorked bounds the mailbox entries one corked stretch of the loop runs
// before it flushes, so a mailbox that never drains still sends.
const maxCorked = 64

// loop drains the mailbox. On a network that coalesces writes it corks when
// it picks up work after being idle and flushes once the mailbox drains
// (before it waits or exits) or after maxCorked entries: the messages sent
// in one busy period leave in one write per peer.
func (n *Node) loop() {
	defer close(n.done)
	corked := 0 // entries run since the last Cork; 0 while uncorked
	for {
		n.mu.Lock()
		if corked > 0 && (n.count == 0 || corked == maxCorked) {
			n.mu.Unlock()
			n.corks.Flush(n.id)
			corked = 0
			continue
		}
		for n.count == 0 && !n.stopped {
			n.cond.Wait()
		}
		if n.stopped && n.count == 0 {
			n.mu.Unlock()
			return
		}
		fn := n.ring[n.head]
		n.ring[n.head] = nil
		n.head = (n.head + 1) % len(n.ring)
		n.count--
		n.mu.Unlock()
		if n.corks != nil {
			if corked == 0 {
				n.corks.Cork(n.id)
			}
			corked++
		}
		fn()
	}
}

// Send transmits a protocol message to process `to` (possibly self).
func (n *Node) Send(to failure.Proc, topic string, body wire.Encoder) {
	payload, err := wire.Marshal(topic, body)
	if err != nil {
		log.Printf("node %d: %v", n.id, err)
		return
	}
	n.net.Send(n.id, to, payload)
}

// Broadcast transmits a protocol message to every process including self.
// The paper's pseudocode "send ... to all" has this semantics: a process is
// always a potential member of its own quorums.
func (n *Node) Broadcast(topic string, body wire.Encoder) {
	payload, err := wire.Marshal(topic, body)
	if err != nil {
		log.Printf("node %d: %v", n.id, err)
		return
	}
	n.net.SendAll(n.id, payload)
}

// Multicast transmits one protocol message to each listed process, encoding
// the body once: every recipient is handed the same payload.
func (n *Node) Multicast(to []failure.Proc, topic string, body wire.Encoder) {
	if len(to) == 0 {
		return
	}
	payload, err := wire.Marshal(topic, body)
	if err != nil {
		log.Printf("node %d: %v", n.id, err)
		return
	}
	for _, q := range to {
		n.net.Send(n.id, q, payload)
	}
}

// Every schedules fn to run on the event loop every interval until the node
// stops or the returned cancel function is called.
func (n *Node) Every(interval time.Duration, fn func()) (cancel func()) {
	stop := make(chan struct{})
	var once sync.Once
	n.tickers.Add(1)
	go func() {
		defer n.tickers.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				n.enqueue(fn)
			case <-stop:
				return
			case <-n.stopCh:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(stop) }) }
}

// After schedules fn to run on the event loop once after d, unless cancelled
// or the node stops first.
func (n *Node) After(d time.Duration, fn func()) (cancel func()) {
	stop := make(chan struct{})
	var once sync.Once
	n.tickers.Add(1)
	go func() {
		defer n.tickers.Done()
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			n.enqueue(fn)
		case <-stop:
		case <-n.stopCh:
		}
	}()
	return func() { once.Do(func() { close(stop) }) }
}

// Stop shuts the node down: periodic tasks are cancelled, queued work is
// drained, and the event loop exits. Stop is idempotent and safe to call
// from any goroutine except the node's own event loop.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		<-n.done
		return
	}
	n.stopped = true
	close(n.stopCh)
	n.mu.Unlock()
	n.cond.Signal()
	n.tickers.Wait()
	<-n.done
}

// String identifies the node in logs.
func (n *Node) String() string { return fmt.Sprintf("node-%d", n.id) }
