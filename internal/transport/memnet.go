package transport

import (
	"container/heap"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failure"
	"repro/internal/graph"
)

// Mode selects how the in-memory network realizes the paper's WLOG
// assumption that residual connectivity is transitive ("all processes
// forward every received message", §5).
type Mode int

// Delivery modes.
const (
	// ModeRoute (default) delivers a message iff the destination is
	// reachable from the sender in the current residual graph, with a delay
	// equal to the sum of per-hop delays along a shortest path. This is
	// semantically equivalent to flooding (same reachability, same post-GST
	// timing bound of hops*delta) at a fraction of the event cost.
	ModeRoute Mode = iota + 1
	// ModeFlood literally forwards every message over every surviving
	// channel with per-process duplicate suppression — the paper's
	// simulation, useful for fidelity tests.
	ModeFlood
	// ModeDirect uses only the direct channel between sender and receiver:
	// no transitivity. Used to demonstrate why classical protocols need
	// request/response connectivity.
	ModeDirect
)

// MemNetwork is an in-memory simulated network implementing the system model
// of §2: asynchronous unidirectional channels between n processes, with
// injectable process crashes and permanent channel disconnections, pluggable
// delay models (including partial synchrony, §7), and three transitivity
// modes.
type MemNetwork struct {
	n     int
	mode  Mode
	delay DelayModel

	mu       sync.Mutex
	rng      *rand.Rand
	handlers []Handler
	crashed  []bool
	down     map[failure.Channel]bool
	faults   map[failure.Channel]LinkFault
	residual *graph.Graph // current surviving channels (route mode)
	seen     []map[uint64]bool
	queue    eventQueue
	nextID   uint64
	nextSeq  uint64
	closed   bool
	wake     chan struct{}
	done     chan struct{}
	start    time.Time

	stats Stats
}

var (
	_ Network       = (*MemNetwork)(nil)
	_ FaultInjector = (*MemNetwork)(nil)
)

// MemOption configures a MemNetwork.
type MemOption func(*MemNetwork)

// WithDelay sets the delay model (default: uniform 0.1ms-1ms per hop).
func WithDelay(d DelayModel) MemOption {
	return func(m *MemNetwork) { m.delay = d }
}

// WithSeed seeds the internal RNG for reproducible delay sequences.
func WithSeed(seed int64) MemOption {
	return func(m *MemNetwork) { m.rng = rand.New(rand.NewSource(seed)) }
}

// WithMode selects the delivery mode (default ModeRoute).
func WithMode(mode Mode) MemOption {
	return func(m *MemNetwork) { m.mode = mode }
}

// NewMem returns a running in-memory network for n processes.
func NewMem(n int, opts ...MemOption) *MemNetwork {
	m := &MemNetwork{
		n:        n,
		mode:     ModeRoute,
		delay:    UniformDelay{Min: 100 * time.Microsecond, Max: time.Millisecond},
		rng:      rand.New(rand.NewSource(1)),
		handlers: make([]Handler, n),
		crashed:  make([]bool, n),
		down:     make(map[failure.Channel]bool),
		faults:   make(map[failure.Channel]LinkFault),
		residual: graph.Complete(n),
		seen:     make([]map[uint64]bool, n),
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		start:    time.Now(),
	}
	for i := range m.seen {
		m.seen[i] = make(map[uint64]bool)
	}
	for _, o := range opts {
		o(m)
	}
	go m.dispatch()
	return m
}

// envelope is a message copy in flight.
type envelope struct {
	id      uint64
	origin  failure.Proc // original sender
	dest    failure.Proc // final destination (ignored when all is set)
	all     bool         // broadcast: deliver at every process
	from    failure.Proc // hop sender (flood mode)
	to      failure.Proc // receiver of this event
	payload []byte
	at      time.Time // delivery time of this event
	seq     uint64    // tiebreaker for deterministic ordering
	routed  bool      // route mode: skip channel-liveness re-check on arrival
}

type eventQueue []*envelope

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)   { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)     { *q = append(*q, x.(*envelope)) }
func (q *eventQueue) Pop() any       { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }
func (q eventQueue) peek() *envelope { return q[0] }

// N implements Network.
func (m *MemNetwork) N() int { return m.n }

// Register implements Network.
func (m *MemNetwork) Register(p failure.Proc, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(p) >= 0 && int(p) < m.n {
		m.handlers[p] = h
	}
}

// Send implements Network. Self-sends are delivered immediately and
// reliably (a process can always talk to itself).
func (m *MemNetwork) Send(from, to failure.Proc, payload []byte) {
	if int(from) < 0 || int(from) >= m.n || int(to) < 0 || int(to) >= m.n {
		return
	}
	m.mu.Lock()
	if m.closed || m.crashed[from] {
		m.mu.Unlock()
		return
	}
	atomic.AddInt64(&m.stats.Sent, 1)
	if from == to {
		h := m.handlers[to]
		atomic.AddInt64(&m.stats.Delivered, 1)
		m.mu.Unlock()
		if h != nil {
			h(from, payload)
		}
		return
	}
	m.nextID++
	e := &envelope{id: m.nextID, origin: from, dest: to, payload: payload}
	switch m.mode {
	case ModeFlood:
		m.seen[from][e.id] = true
		m.floodFrom(from, e)
	default:
		m.routeTo(from, to, e)
	}
	m.kick()
	m.mu.Unlock()
}

// SendAll implements Network: deliver to every process including self.
func (m *MemNetwork) SendAll(from failure.Proc, payload []byte) {
	if int(from) < 0 || int(from) >= m.n {
		return
	}
	m.mu.Lock()
	if m.closed || m.crashed[from] {
		m.mu.Unlock()
		return
	}
	atomic.AddInt64(&m.stats.Sent, 1)
	m.nextID++
	e := &envelope{id: m.nextID, origin: from, all: true, payload: payload}
	switch m.mode {
	case ModeFlood:
		m.seen[from][e.id] = true
		m.floodFrom(from, e)
	default:
		for q := 0; q < m.n; q++ {
			if failure.Proc(q) != from {
				m.routeTo(from, failure.Proc(q), e)
			}
		}
	}
	m.kick()
	h := m.handlers[from]
	atomic.AddInt64(&m.stats.Delivered, 1)
	m.mu.Unlock()
	// Self-delivery is local and reliable.
	if h != nil {
		h(from, payload)
	}
}

// routeTo schedules a single delivery event if `to` is reachable from `from`
// in the residual graph (ModeRoute) or over the direct channel (ModeDirect).
// The delay is the sum of per-hop delays along a shortest path — plus any
// gray-failure overlay on each traversed link — preserving the timing
// semantics of hop-by-hop forwarding. A lossy overlay on any traversed link
// may drop the message. Caller holds m.mu.
func (m *MemNetwork) routeTo(from, to failure.Proc, e *envelope) {
	var path []failure.Proc
	switch m.mode {
	case ModeDirect:
		if m.crashed[to] || m.down[failure.Channel{From: from, To: to}] {
			atomic.AddInt64(&m.stats.Dropped, 1)
			return
		}
		path = []failure.Proc{to}
	default: // ModeRoute
		if m.crashed[to] {
			atomic.AddInt64(&m.stats.Dropped, 1)
			return
		}
		path = m.pathLocked(from, to)
		if path == nil {
			atomic.AddInt64(&m.stats.Dropped, 1)
			return
		}
		if len(path) > 1 {
			atomic.AddInt64(&m.stats.Forwarded, int64(len(path)-1))
		}
	}
	elapsed := time.Since(m.start)
	var d time.Duration
	prev := from
	for _, hop := range path {
		d += m.delay.Delay(m.rng, elapsed)
		extra, dropped := m.linkFaultLocked(failure.Channel{From: prev, To: hop})
		if dropped {
			atomic.AddInt64(&m.stats.Dropped, 1)
			return
		}
		d += extra
		prev = hop
	}
	m.nextSeq++
	heap.Push(&m.queue, &envelope{
		id: e.id, origin: e.origin, dest: to, all: e.all,
		from: from, to: to, payload: e.payload,
		at: time.Now().Add(d), seq: m.nextSeq, routed: true,
	})
}

// pathLocked returns the successive hops of a BFS shortest path from u to v
// over surviving channels and processes (excluding u itself, ending in v),
// or nil if v is unreachable. For u == v it returns an empty path.
func (m *MemNetwork) pathLocked(u, v failure.Proc) []failure.Proc {
	if u == v {
		return []failure.Proc{}
	}
	parent := make([]int, m.n)
	for i := range parent {
		parent[i] = -1
	}
	parent[u] = int(u)
	queue := []int{int(u)}
	for len(queue) > 0 && parent[v] == -1 {
		x := queue[0]
		queue = queue[1:]
		m.residual.Successors(x).ForEach(func(y int) {
			if parent[y] != -1 || m.crashed[y] {
				return
			}
			parent[y] = x
			queue = append(queue, y)
		})
	}
	if parent[v] == -1 {
		return nil
	}
	var rev []failure.Proc
	for x := int(v); x != int(u); x = parent[x] {
		rev = append(rev, failure.Proc(x))
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// linkFaultLocked samples the gray-failure overlay for channel c: the extra
// delay to add to this traversal, and whether the copy is lost. Overlay
// randomness draws from the network RNG, so a seeded network replays the
// same drop/jitter sequence. Caller holds m.mu.
func (m *MemNetwork) linkFaultLocked(c failure.Channel) (extra time.Duration, dropped bool) {
	f, ok := m.faults[c]
	if !ok {
		return 0, false
	}
	if f.Drop > 0 && m.rng.Float64() < f.Drop {
		return 0, true
	}
	extra = f.Delay
	if f.Jitter > 0 {
		extra += time.Duration(m.rng.Int63n(int64(f.Jitter) + 1))
	}
	return extra, false
}

// floodFrom fans an envelope out from hop sender p over all surviving
// outgoing channels. Caller holds m.mu.
func (m *MemNetwork) floodFrom(p failure.Proc, e *envelope) {
	elapsed := time.Since(m.start)
	for q := 0; q < m.n; q++ {
		qp := failure.Proc(q)
		if qp == p {
			continue
		}
		if m.crashed[q] || m.down[failure.Channel{From: p, To: qp}] {
			atomic.AddInt64(&m.stats.Dropped, 1)
			continue
		}
		if m.seen[q][e.id] {
			continue // q already processed this message
		}
		d := m.delay.Delay(m.rng, elapsed)
		extra, lost := m.linkFaultLocked(failure.Channel{From: p, To: qp})
		if lost {
			atomic.AddInt64(&m.stats.Dropped, 1)
			continue
		}
		d += extra
		m.nextSeq++
		heap.Push(&m.queue, &envelope{
			id: e.id, origin: e.origin, dest: e.dest, all: e.all,
			from: p, to: qp, payload: e.payload,
			at: time.Now().Add(d), seq: m.nextSeq,
		})
	}
}

func (m *MemNetwork) kick() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// dispatch is the delivery loop: it sleeps until the earliest queued event
// is due, then delivers it (possibly forwarding further in flood mode).
func (m *MemNetwork) dispatch() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return
		}
		if m.queue.Len() == 0 {
			m.mu.Unlock()
			select {
			case <-m.wake:
			case <-m.done:
				return
			}
			continue
		}
		head := m.queue.peek()
		wait := time.Until(head.at)
		if wait > 0 {
			m.mu.Unlock()
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-m.wake:
			case <-m.done:
				return
			}
			continue
		}
		e := heap.Pop(&m.queue).(*envelope)
		m.deliverLocked(e)
		m.mu.Unlock()
	}
}

// deliverLocked processes the arrival of an event at e.to. Caller holds
// m.mu; the handler is invoked without the lock.
func (m *MemNetwork) deliverLocked(e *envelope) {
	q := e.to
	if m.crashed[q] {
		atomic.AddInt64(&m.stats.Dropped, 1)
		return
	}
	if !e.routed && m.down[failure.Channel{From: e.from, To: q}] {
		// Flood mode: the hop channel disconnected while the copy was in
		// flight. The paper's disconnection semantics permits dropping
		// in-flight messages; we drop them (the harsher behaviour).
		atomic.AddInt64(&m.stats.Dropped, 1)
		return
	}
	if e.routed {
		m.deliverTo(q, e)
		return
	}
	// Flood mode bookkeeping.
	if m.seen[q][e.id] {
		return
	}
	m.seen[q][e.id] = true
	if e.all || q == e.dest {
		m.deliverTo(q, e)
		if !e.all {
			return
		}
	}
	m.floodFrom(q, e)
	atomic.AddInt64(&m.stats.Forwarded, 1)
}

// deliverTo hands the payload to q's handler, releasing the lock around the
// call. Caller holds m.mu.
func (m *MemNetwork) deliverTo(q failure.Proc, e *envelope) {
	h := m.handlers[q]
	atomic.AddInt64(&m.stats.Delivered, 1)
	if h != nil {
		origin, payload := e.origin, e.payload
		m.mu.Unlock()
		h(origin, payload)
		m.mu.Lock()
	}
}

// Crash implements FaultInjector.
func (m *MemNetwork) Crash(p failure.Proc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(p) >= 0 && int(p) < m.n {
		m.crashed[p] = true
	}
}

// Disconnect implements FaultInjector.
func (m *MemNetwork) Disconnect(c failure.Channel) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.down[c] = true
	m.residual.RemoveEdge(int(c.From), int(c.To))
}

// ApplyPattern implements FaultInjector.
func (m *MemNetwork) ApplyPattern(f failure.Pattern) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f.Procs.ForEach(func(p int) { m.crashed[p] = true })
	for c := range f.Chans {
		m.down[c] = true
		m.residual.RemoveEdge(int(c.From), int(c.To))
	}
}

// Restart clears a previous Crash of p: the process resumes receiving and
// sending with its in-memory state intact (stall-and-resume semantics, like
// a paused VM — not a reboot from empty state; the handler registered for p
// stays in place). Messages dropped while p was crashed stay dropped. Like
// Reconnect, this steps outside the paper's static failure model to let the
// nemesis engine exercise recovery transitions.
func (m *MemNetwork) Restart(p failure.Proc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(p) >= 0 && int(p) < m.n {
		m.crashed[p] = false
	}
}

// SetLink sets the directional channel c up or down: one call site for the
// nemesis engine's flapping and asymmetric-partition events. down=false is
// Disconnect, down=true heals like Reconnect.
func (m *MemNetwork) SetLink(c failure.Channel, up bool) {
	if up {
		m.Reconnect(c)
	} else {
		m.Disconnect(c)
	}
}

// LinkFault is a gray-failure overlay for one directional channel: the link
// stays up (it keeps its place in the residual graph and in routing) but
// every traversal pays Delay plus a uniform [0, Jitter] extra, and is lost
// with probability Drop. The zero value means "healthy".
type LinkFault struct {
	Delay  time.Duration // fixed extra delay per traversal
	Jitter time.Duration // additional uniform random delay in [0, Jitter]
	Drop   float64       // per-traversal loss probability in [0, 1]
}

// IsZero reports whether the fault is the healthy zero value.
func (f LinkFault) IsZero() bool { return f.Delay == 0 && f.Jitter == 0 && f.Drop == 0 }

// SetLinkFault installs (or, with the zero LinkFault, removes) a
// gray-failure overlay on channel c. In route mode the overlay applies on
// every shortest-path traversal of c, including when c is an intermediate
// hop of a forwarded message; in flood and direct modes it applies per hop.
func (m *MemNetwork) SetLinkFault(c failure.Channel, f LinkFault) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f.IsZero() {
		delete(m.faults, c)
		return
	}
	m.faults[c] = f
}

// Reconnect restores a previously disconnected channel. The paper's failure
// model makes disconnections permanent; Reconnect steps outside it to let
// tests and operators exercise recovery paths (a healed partition, a
// replica catching up through the propagation layer's snapshot fallback).
// Messages dropped while the channel was down stay dropped.
func (m *MemNetwork) Reconnect(c failure.Channel) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.down[c] {
		return
	}
	delete(m.down, c)
	if int(c.From) >= 0 && int(c.From) < m.n && int(c.To) >= 0 && int(c.To) < m.n {
		m.residual.AddEdge(int(c.From), int(c.To))
	}
}

// Isolate disconnects every channel to and from p (both directions), a
// full partition of one process. Heal with Rejoin.
func (m *MemNetwork) Isolate(p failure.Proc) {
	for q := 0; q < m.n; q++ {
		if failure.Proc(q) == p {
			continue
		}
		m.Disconnect(failure.Channel{From: p, To: failure.Proc(q)})
		m.Disconnect(failure.Channel{From: failure.Proc(q), To: p})
	}
}

// Rejoin restores every channel to and from p, healing an Isolate.
func (m *MemNetwork) Rejoin(p failure.Proc) {
	for q := 0; q < m.n; q++ {
		if failure.Proc(q) == p {
			continue
		}
		m.Reconnect(failure.Channel{From: p, To: failure.Proc(q)})
		m.Reconnect(failure.Channel{From: failure.Proc(q), To: p})
	}
}

// Started returns the instant the network was created: the origin of the
// elapsed time its delay model sees, so PartialSync's GST falls at
// Started() + GST.
func (m *MemNetwork) Started() time.Time { return m.start }

// Stats returns a snapshot of the message counters.
func (m *MemNetwork) Stats() Stats {
	return Stats{
		Sent:      atomic.LoadInt64(&m.stats.Sent),
		Forwarded: atomic.LoadInt64(&m.stats.Forwarded),
		Delivered: atomic.LoadInt64(&m.stats.Delivered),
		Dropped:   atomic.LoadInt64(&m.stats.Dropped),
	}
}

// Close implements Network.
func (m *MemNetwork) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.done)
	m.queue = nil
	m.mu.Unlock()
}
