package qaf

import (
	"slices"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/failure"
	"repro/internal/node"
	"repro/internal/wire"
)

// Wire bodies: a propagation batch is a wire.Props, one entry per
// instance. A full entry carries the instance's state at the given clock
// together with its state version V (the clock at which that state was last
// updated). A clock-only entry omits the state: it announces that the
// sender's clock reached Clock while its state stayed at version V, and a
// receiver applies it only to a report of exactly that version it already
// holds. Receivers of a batch reply with one wire.Clocks ack covering every
// full entry of the batch (the highest clock received per instance), and a
// nudge is a wire.Clocks too: per instance, the cutoff a pending phase-2
// invocation is waiting on (Figure 3's periodic clock advance, made
// demand-driven).

// Liveness probing, in ticks. A peer we have not heard from in pingTicks
// gets a ping; one silent for downTicks is treated as having no channel
// back to us, which re-enables the paper's spontaneous per-tick behavior
// toward it. An unacked push to a live peer, and the full state pushed to
// silent peers, are re-offered after resendTicks. Acks go out once every
// ackTicks, well inside resendTicks, so an ack lands before the re-offer it
// exists to suppress. At the default 2ms tick: ping after 100ms of mutual
// silence, assume no backchannel after 300ms, re-offer after 100ms, ack
// every 20ms.
const (
	pingTicks   = 50
	downTicks   = 150
	resendTicks = 50
	ackTicks    = resendTicks / 5
)

// instState is the propagator's per-instance delta bookkeeping.
type instState struct {
	name  string
	g     *Generalized
	acked []int64 // per peer: highest clock the peer acked for this instance
	sentV []int64 // per peer: state version last offered to the peer in full
	// downV and downFull record the last full push to silent peers: the
	// state version it carried and the tick it went out.
	downV    int64
	downFull int64
}

// full returns the instance's full propagation entry. Runs on the node loop.
func (st *instState) full() wire.Prop {
	g := st.g
	return wire.Prop{Name: st.name, State: g.sm.Snapshot(), Clock: g.clock, V: g.ver}
}

// Propagator implements the periodic state propagation (Figure 3, line 12)
// of every Generalized accessor hosted on one node — batched, delta-based
// and quiescence-aware:
//
//   - Instances mark themselves dirty when their state or clock changes; a
//     change is flushed immediately (coalesced per event-loop batch) as one
//     broadcast carrying only the dirty entries. An idle instance
//     contributes zero propagation bytes.
//   - Receivers ack the clocks of the full states they observe, once per
//     ack window (ackTicks): one message per peer carrying the highest
//     clock seen per instance, as TCP's delayed ACK does. Per-peer acked
//     clocks and offered state versions let the propagator detect peers
//     that lack the current state (partition, late join, lost push) and
//     send them exactly the instances they lack.
//   - Peer liveness is probed with tiny pings whenever a pair has been
//     mutually silent: a peer that answers nothing for downTicks may have
//     no channel back to us at all (the paper's unidirectional model —
//     process c under f1 can never be acked, nudged or pinged). While any
//     peer is silent the propagator reverts to the paper's spontaneous
//     behavior: every tick it advances every clock, floored by the wall
//     clock, and sends the silent peers one shared message with every
//     instance's clock. State travels in full only when it changed since
//     the last full push to them (or that push is resendTicks old);
//     otherwise the entry is clock-only. Peers we do hear from get no
//     spontaneous pushes: they are re-offered state they lack and answered
//     on demand through nudges. Only this probing lets the cluster be
//     quiet the rest of the time without giving up the liveness of
//     operations whose cutoffs depend on an unreachable process's clock.
//   - Pending phase-2 invocations broadcast clock nudges: receivers whose
//     clock is below the cutoff jump to it and flush; receivers already at
//     the cutoff re-push their state to the nudger if it has not acked a
//     sufficient clock. This replaces the seed's unconditional per-tick
//     clock advance with a demand-driven one.
//
// The wall-clock floor serves liveness only: clocks that are not in step
// cost latency, never safety. Figure 3 needs per-process clocks that are
// monotone, strictly increase on apply, and are captured atomically with
// the state they are pushed with; the floor is one more upward jump like a
// nudge's. Without it a mute process's clock gains one per tick while the
// write quorum's also gains one per applied update, so the gap a read
// quorum must close grows with every write.
//
// Instances are kept in name order, so every message lists its entries in
// a fixed order. All state is confined to the node event loop.
type Propagator struct {
	n      *node.Node
	cancel func()
	clk    clock.Clock // floors the spontaneous clock advance

	// Loop-confined.
	instances   []*instState // sorted by name
	byName      map[string]*instState
	flushQueued bool
	// pendingAcks accumulates observed clocks per sender between ack
	// windows, so a burst of pushes costs one ack message per peer per
	// window instead of one per push.
	pendingAcks []map[string]int64
	tickNo      int64
	lastHeard   []int64        // per peer: tickNo when a propagator message last arrived
	lastPing    []int64        // per peer: tickNo of our last ping
	lastSend    []int64        // per peer: tickNo of our last targeted or broadcast push
	silent      []failure.Proc // peers silent for downTicks, recomputed every tick

	topic      string
	topicAck   string
	topicNudge string
	topicPing  string
	topicPong  string
}

// NewPropagator installs a batched propagator on the node, ticking at the
// given interval (default 5ms). The tick is the liveness backstop; state
// changes propagate immediately.
func NewPropagator(n *node.Node, tick time.Duration) *Propagator {
	if tick <= 0 {
		tick = 5 * time.Millisecond
	}
	peers := n.ClusterSize()
	p := &Propagator{
		n:           n,
		clk:         clock.Real,
		byName:      make(map[string]*instState),
		pendingAcks: make([]map[string]int64, peers),
		lastHeard:   make([]int64, peers),
		lastPing:    make([]int64, peers),
		lastSend:    make([]int64, peers),
		topic:       "qaf/prop",
		topicAck:    "qaf/ack",
		topicNudge:  "qaf/nudge",
		topicPing:   "qaf/ping",
		topicPong:   "qaf/pong",
	}
	n.Handle(p.topic, p.onProp)
	n.Handle(p.topicAck, p.onAck)
	n.Handle(p.topicNudge, p.onNudge)
	n.Handle(p.topicPing, p.onPing)
	n.Handle(p.topicPong, p.onPong)
	p.cancel = n.Every(tick, p.tick)
	return p
}

// search returns the position of name in the sorted instance list and
// whether it is there.
func (p *Propagator) search(name string) (int, bool) {
	return slices.BinarySearchFunc(p.instances, name, func(st *instState, name string) int {
		return strings.Compare(st.name, name)
	})
}

// attach registers a Generalized accessor; called on the node loop. The
// acked clocks and offered versions start at -1 ("never") and the instance
// starts dirty, so the first flush broadcasts its initial state and every
// process (including this one) observes it.
func (p *Propagator) attach(name string, g *Generalized) {
	n := p.n.ClusterSize()
	st := &instState{
		name:  name,
		g:     g,
		acked: make([]int64, n),
		sentV: make([]int64, n),
		downV: -1,
	}
	for q := range st.acked {
		st.acked[q] = -1
		st.sentV[q] = -1
	}
	if i, ok := p.search(name); ok {
		p.instances[i] = st
	} else {
		p.instances = slices.Insert(p.instances, i, st)
	}
	p.byName[name] = st
	g.dirty = true
	p.requestFlush()
}

// detach unregisters an accessor; called on the node loop.
func (p *Propagator) detach(name string) {
	delete(p.byName, name)
	if i, ok := p.search(name); ok {
		p.instances = slices.Delete(p.instances, i, i+1)
	}
}

// heard records propagator traffic from a peer (its channel to us works).
func (p *Propagator) heard(from failure.Proc) {
	if q := int(from); q >= 0 && q < len(p.lastHeard) {
		p.lastHeard[q] = p.tickNo
	}
}

// requestFlush schedules a flush of dirty instances behind the work already
// queued on the loop, so a burst of updates (e.g. one SET_REQ broadcast
// fanning into many instances) coalesces into a single propagation message.
// Called on the node loop.
func (p *Propagator) requestFlush() {
	if p.flushQueued {
		return
	}
	p.flushQueued = true
	p.n.Do(p.flush)
}

// flush broadcasts every dirty instance's full entry as one message and
// records the transmission against every peer, silent ones included. Runs
// on the node loop.
func (p *Propagator) flush() {
	p.flushQueued = false
	var entries wire.Props
	for _, st := range p.instances {
		g := st.g
		if g.stopped || !g.dirty {
			continue
		}
		g.dirty = false
		entries = append(entries, st.full())
		for q := range st.sentV {
			st.sentV[q] = g.ver
		}
		st.downV, st.downFull = g.ver, p.tickNo
	}
	if len(entries) > 0 {
		for q := range p.lastSend {
			p.lastSend[q] = p.tickNo
		}
		p.n.Broadcast(p.topic, entries)
	}
}

// sendNudge broadcasts a clock nudge for one instance's pending cutoff.
// Called on the node loop.
func (p *Propagator) sendNudge(name string, cutoff int64) {
	p.n.Broadcast(p.topicNudge, wire.Clocks{{Name: name, Clock: cutoff}})
}

// tick is the liveness backstop. It probes silent peers, re-nudges pending
// invocations, falls back to spontaneous clock advance toward peers whose
// silence suggests they cannot reach us, and re-offers state to peers that
// lack it. On a healthy idle cluster the only traffic left is the
// occasional ping/pong pair. Runs on the node loop.
func (p *Propagator) tick() {
	p.tickNo++
	self := int(p.n.ID())
	peers := p.n.ClusterSize()

	// Probe peers we have heard nothing from: either the pair is idle (they
	// will pong) or they cannot reach us (the silence persists and the
	// spontaneous fallback below engages).
	p.silent = p.silent[:0]
	for q := 0; q < peers; q++ {
		if q == self {
			continue
		}
		if p.tickNo-p.lastHeard[q] >= pingTicks && p.tickNo-p.lastPing[q] >= pingTicks {
			p.lastPing[q] = p.tickNo
			p.n.Send(failure.Proc(q), p.topicPing, nil)
		}
		if p.tickNo-p.lastHeard[q] >= downTicks {
			p.silent = append(p.silent, failure.Proc(q))
		}
	}
	if len(p.instances) == 0 {
		return
	}

	var nudges wire.Clocks
	for _, st := range p.instances {
		g := st.g
		if g.stopped {
			continue
		}
		if cutoff, ok := g.pendingCutoff(); ok {
			nudges = append(nudges, wire.NamedClock{Name: st.name, Clock: cutoff})
		}
	}
	// Spontaneous clock advance (Figure 3, line 12) while any peer is
	// silent: a process whose every return channel is gone (f1's c) hears
	// no acks, nudges or pings, yet pending operations at processes it can
	// still reach may wait for its clock to pass cutoffs it will never be
	// told about — even cutoffs above its current clock, so being "caught
	// up" is no excuse to stop. A crashed peer is indistinguishable from
	// such a mute listener, so a degraded cluster ticks like the seed did;
	// a fully healthy one stays quiet.
	if len(p.silent) > 0 {
		floor := p.clk.Now().UnixMicro()
		for _, st := range p.instances {
			if g := st.g; !g.stopped {
				g.advanceClock(floor)
			}
		}
	}
	// Broadcast dirt first (changes that slipped past an immediate flush),
	// so the passes below only see what broadcasts cannot fix.
	p.flush()
	if len(p.silent) > 0 {
		p.pushSilent()
	}
	// Targeted catch-up for the peers we hear from: one message per peer
	// with the full state of exactly the instances whose current version
	// it has not acked — offered as soon as the version changes, re-offered
	// after resendTicks. Their clock advances come on demand, via nudges.
	for q := 0; q < peers; q++ {
		if q == self || p.tickNo-p.lastHeard[q] >= downTicks {
			continue
		}
		retry := p.tickNo-p.lastSend[q] >= resendTicks
		var lag wire.Props
		for _, st := range p.instances {
			g := st.g
			if g.stopped || st.acked[q] >= g.ver {
				continue
			}
			if st.sentV[q] < g.ver || retry {
				lag = append(lag, st.full())
				st.sentV[q] = g.ver
			}
		}
		if len(lag) > 0 {
			p.lastSend[q] = p.tickNo
			p.n.Send(failure.Proc(q), p.topic, lag)
		}
	}
	if len(nudges) > 0 {
		p.n.Broadcast(p.topicNudge, nudges)
	}
	if p.tickNo%ackTicks == 0 {
		p.flushAcks()
	}
}

// pushSilent sends the silent peers one shared message with an entry per
// instance: the full state when its version changed since the last full
// push to silent peers or that push is resendTicks old, a clock-only entry
// otherwise. Silent peers cannot ack, so the periodic full re-offer is what
// heals a lost push. Runs on the node loop.
func (p *Propagator) pushSilent() {
	entries := make(wire.Props, 0, len(p.instances))
	for _, st := range p.instances {
		g := st.g
		if g.stopped {
			continue
		}
		if g.ver != st.downV || p.tickNo-st.downFull >= resendTicks {
			entries = append(entries, st.full())
			st.downV, st.downFull = g.ver, p.tickNo
		} else {
			entries = append(entries, wire.Prop{Name: st.name, Clock: g.clock, V: g.ver})
		}
	}
	if len(entries) > 0 {
		p.n.Multicast(p.silent, p.topic, entries)
	}
}

// onProp demultiplexes a propagation batch to the attached instances and
// queues acks for the observed clocks of full entries, sent at the end of
// the ack window. Runs on the node loop.
func (p *Propagator) onProp(from failure.Proc, m wire.Message) {
	p.heard(from)
	var entries wire.Props
	if wire.Decode(m, &entries) != nil {
		return
	}
	// Ack only full entries applied to a hosted instance: acking state we
	// discard (e.g. a push racing a still-queued attach) would poison the
	// sender's acked clock and suppress the catch-up we will need once the
	// attach lands, and a clock-only entry delivers no state to ack.
	// Unacked entries stay outstanding at the sender and are re-offered
	// after resendTicks.
	q := int(from)
	ack := from != p.n.ID() && q >= 0 && q < len(p.pendingAcks)
	for _, e := range entries {
		st, ok := p.byName[e.Name]
		if !ok || st.g.stopped {
			continue
		}
		if len(e.State) == 0 {
			st.g.observeClock(from, e.Clock, e.V)
			continue
		}
		st.g.handleStatePush(from, e.State, e.Clock, e.V)
		if !ack {
			continue
		}
		acks := p.pendingAcks[q]
		if acks == nil {
			acks = make(map[string]int64)
			p.pendingAcks[q] = acks
		}
		// Keyed by the instance's own name: e.Name aliases the message.
		if prev, ok := acks[st.name]; !ok || e.Clock > prev {
			acks[st.name] = e.Clock
		}
	}
}

// flushAcks sends the accumulated acks, one message per peer with entries
// in name order. Runs on the node loop.
func (p *Propagator) flushAcks() {
	for q, acks := range p.pendingAcks {
		if len(acks) == 0 {
			continue
		}
		out := make(wire.Clocks, 0, len(acks))
		for name, c := range acks {
			out = append(out, wire.NamedClock{Name: name, Clock: c})
		}
		slices.SortFunc(out, func(a, b wire.NamedClock) int { return strings.Compare(a.Name, b.Name) })
		p.n.Send(failure.Proc(q), p.topicAck, out)
		p.pendingAcks[q] = nil
	}
}

// onAck records a peer's acked clocks. Runs on the node loop.
func (p *Propagator) onAck(from failure.Proc, m wire.Message) {
	p.heard(from)
	var acks wire.Clocks
	if wire.Decode(m, &acks) != nil {
		return
	}
	q := int(from)
	for _, a := range acks {
		st, ok := p.byName[a.Name]
		if !ok || q < 0 || q >= len(st.acked) {
			continue
		}
		if a.Clock > st.acked[q] {
			st.acked[q] = a.Clock
		}
	}
}

// onNudge advances instances toward a pending invocation's cutoff. An
// instance already at the cutoff re-pushes its state to the nudger when the
// nudger has not acked a sufficient clock (its view of us is stale). Runs
// on the node loop.
func (p *Propagator) onNudge(from failure.Proc, m wire.Message) {
	p.heard(from)
	var nudges wire.Clocks
	if wire.Decode(m, &nudges) != nil {
		return
	}
	q := int(from)
	selfID := int(p.n.ID())
	var reply wire.Props
	for _, nd := range nudges {
		st, ok := p.byName[nd.Name]
		if !ok || st.g.stopped {
			continue
		}
		g := st.g
		if g.clock < nd.Clock {
			// Jumping is safe: correctness relies on per-process clock
			// monotonicity and on pushes being captured atomically with the
			// state on the loop, not on unit increments.
			g.clock = nd.Clock
			g.dirty = true
			p.requestFlush()
		} else if q != selfID && q >= 0 && q < len(st.acked) && st.acked[q] < nd.Clock {
			reply = append(reply, st.full())
			st.sentV[q] = g.ver
		}
	}
	if len(reply) > 0 {
		p.lastSend[q] = p.tickNo
		p.n.Send(from, p.topic, reply)
	}
}

// onPing answers a liveness probe. Runs on the node loop.
func (p *Propagator) onPing(from failure.Proc, m wire.Message) {
	p.heard(from)
	if from != p.n.ID() {
		p.n.Send(from, p.topicPong, nil)
	}
}

// onPong records a probe answer. Runs on the node loop.
func (p *Propagator) onPong(from failure.Proc, m wire.Message) {
	p.heard(from)
}

// Stop cancels the ticker. Attached instances keep working through their
// request/response paths but lose periodic propagation (their liveness then
// depends on event-driven flushes only), so stop instances first.
func (p *Propagator) Stop() {
	if p.cancel != nil {
		p.cancel()
	}
}
