// Package consensus implements the partially synchronous consensus protocol
// of Figure 6: a single-decree Paxos-like algorithm whose leader election is
// driven by the growing-timeout view synchronizer of §7 and whose quorums
// come from a generalized quorum system. With the classical majority quorum
// system it degenerates to ordinary Paxos with round-robin leaders — the
// baseline configuration used in the experiments.
//
// An Engine runs Figure 6 for a window of numbered slots at one process, one
// independent decision per slot, the way a replicated log needs it: one
// fixed topic set, bodies that carry their slot, and one 1B per view for
// every slot at once (the phase 1 that Multi-Paxos runs once for all
// instances). A Consensus is an Engine with one slot and its own view
// synchronizer: the single-shot object of the paper.
package consensus

import (
	"context"
	"errors"
	"math"
	"slices"
	"time"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/viewsync"
	"repro/internal/wire"
)

// ErrStopped is returned by Propose after the instance has been stopped.
var ErrStopped = errors.New("consensus instance stopped")

// phase tracks protocol progress within a view (Figure 6, line 3).
type phase int

const (
	phaseEnter phase = iota + 1
	phasePropose
	phaseAccept
	phaseDecide
)

// Wire bodies: wire.OneB (a view's 1B, for every slot), wire.Accept (2A and
// 2B) and wire.Decision, each naming its slot, plus wire.Decs, the decided
// slots a 1B asked about.
//
// A 1B also forwards the sender's own not-yet-accepted proposal (Mine).
// Figure 6 only lets a leader propose its local value (line 11 skips its
// turn otherwise), which serializes commits behind leadership rotation: a
// proposal registered at a non-leader waits out the rotation even when the
// leader is idle. Consensus may decide any proposed value, so carrying the
// proposal in the 1B lets the current leader adopt it immediately — the
// accepted-value precedence rule (lines 10-15) stays untouched, so safety
// is unchanged. Decided slots drop out of view entry; instead the process
// announces the decision once and answers any later protocol message for
// the slot with it.
//
// A slot in which this process has seen nothing — no proposal, no message,
// no decision — is virgin and holds no state at all: its 1B is the default
// one (no accepted value, no proposal), which the view's 1B sends for the
// whole virgin tail as the open run [first virgin slot, ∞). That also
// covers slots a growing window adds mid-view: they are virgin too. The
// leader keeps each peer's runs for the view and counts them on demand,
// so a slot materialized later (its first message, proposal or decision)
// sees the same 1Bs it would have seen had it existed all along. It is
// materialized straight into the current view, so it can never accept a 2A
// from a view below one its default 1B answered for.

// EngineOptions configures a multi-slot consensus engine.
type EngineOptions struct {
	// Name scopes wire topics. Defaults to "cons".
	Name string
	// Reads and Writes are the quorum families (phase-1 / phase-2 quorums).
	Reads, Writes []graph.BitSet
	// Slots is the initial window: slots [0, Slots) are live. Extend grows
	// it and Truncate retires its prefix.
	Slots int64
	// OnDecide, when set, runs on the node's event loop exactly once per
	// slot, as soon as this process learns the slot's decision.
	OnDecide func(slot int64, val string)
	// OnBehind, when set, runs on the node's event loop when a peer's 1B
	// for view covers slots below the window: the peer still runs slots
	// this process has retired, and only its owner can catch it up.
	OnBehind func(from failure.Proc, view int64)
}

// Engine is one process's endpoint of Figure 6 over a window of slots. All
// of its methods but Propose and Stop run on the node's event loop.
type Engine struct {
	n        *node.Node
	reads    []graph.BitSet
	writes   []graph.BitSet
	onDecide func(int64, string)
	onBehind func(failure.Proc, int64)
	// open marks a window that may grow: the 1B's virgin tail is then
	// open-ended, since slots the window adds mid-view are virgin too.
	open bool
	// peers is every process but this one, the audience of an announcement.
	peers []failure.Proc

	topic1B, topic2A, topic2B, topicDec, topicDecs string

	// Loop-confined state.
	view int64
	// The window is [base, end). slots[i] is the state of slot base+i, nil
	// while virgin; slots past the last materialized one are not stored.
	base, end int64
	slots     []*slotState
	free      []*slotState // truncated states, for reuse
	// idle holds each peer's default-1B runs for the current view and the
	// next future1BWindow views, indexed by process.
	idle [][]idleRuns
	// resp is scratch for quorum checks (see responders).
	resp    graph.BitSet
	stopped bool
}

// slotState is Figure 6's state for one slot (lines 1-3).
type slotState struct {
	ph      phase
	aview   int64
	val     string
	hasVal  bool
	mine    string
	hasMine bool
	// sentMineView is the last view in which this process sent a 1B
	// carrying its pending proposal, deduplicating the view-entry 1B
	// against Submit's mid-view forward.
	sentMineView int64
	oneBs        []rec1B    // this view's 1Bs with content (leader)
	twoBs        []rec2B    // this view's 2Bs
	parked       []parked1B // 1Bs for views not entered yet
	waiters      []func(string, error)
	decided      bool
	decVal       string
	// announced records that this process pushed the decision to every
	// peer itself: a late 2A or 2B from a peer then needs no answer, since
	// the announcement already went to it.
	announced bool
	// parked2A is the latest 2A for a view not entered yet, accepted on
	// entering that view. A pointer: parking is rare, the state is not.
	parked2A *wire.Accept
}

type rec1B struct {
	from failure.Proc
	b    wire.Slot1B
}

type rec2B struct {
	from failure.Proc
	val  string
}

type parked1B struct {
	view int64
	rec1B
}

// idleRuns is a peer's default-1B runs for one view.
type idleRuns struct {
	view int64
	runs [][2]int64
}

// future1BWindow bounds how far ahead of our view a parked 1B or 2A may be.
const future1BWindow = 4

// NewEngine installs a multi-slot consensus engine on the node. The owner
// drives view entry (EnterView) from its own synchronizer.
func NewEngine(n *node.Node, opts EngineOptions) *Engine {
	return newEngine(n, opts, true)
}

func newEngine(n *node.Node, opts EngineOptions, open bool) *Engine {
	if opts.Name == "" {
		opts.Name = "cons"
	}
	e := &Engine{
		n:         n,
		reads:     opts.Reads,
		writes:    opts.Writes,
		onDecide:  opts.OnDecide,
		onBehind:  opts.OnBehind,
		open:      open,
		end:       opts.Slots,
		idle:      make([][]idleRuns, n.ClusterSize()),
		resp:      graph.NewBitSet(n.ClusterSize()),
		topic1B:   opts.Name + "/1b",
		topic2A:   opts.Name + "/2a",
		topic2B:   opts.Name + "/2b",
		topicDec:  opts.Name + "/dec",
		topicDecs: opts.Name + "/decs",
	}
	for p := 0; p < n.ClusterSize(); p++ {
		if failure.Proc(p) != n.ID() {
			e.peers = append(e.peers, failure.Proc(p))
		}
	}
	n.Handle(e.topic1B, e.on1B)
	n.Handle(e.topic2A, e.on2A)
	n.Handle(e.topic2B, e.on2B)
	n.Handle(e.topicDec, e.onDec)
	n.Handle(e.topicDecs, e.onDecs)
	return e
}

// leads reports whether this process leads view v.
func (e *Engine) leads(v int64) bool {
	return viewsync.Leader(viewsync.View(v), e.n.ClusterSize()) == int(e.n.ID())
}

// responders returns the engine's scratch process set, emptied: a quorum
// check per 1B and 2B then allocates nothing.
func (e *Engine) responders() graph.BitSet {
	for p := 0; p < e.resp.Cap(); p++ {
		e.resp.Remove(p)
	}
	return e.resp
}

// lookup returns a slot's state, or nil when it is virgin or outside the
// window.
func (e *Engine) lookup(slot int64) *slotState {
	if i := slot - e.base; i >= 0 && i < int64(len(e.slots)) {
		return e.slots[i]
	}
	return nil
}

// state returns a slot's state, materializing a virgin slot into the
// current view, or nil when the slot is outside the window.
func (e *Engine) state(slot int64) *slotState {
	if slot < e.base || slot >= e.end {
		return nil
	}
	i := slot - e.base
	if grow := i + 1 - int64(len(e.slots)); grow > 0 {
		e.slots = append(e.slots, make([]*slotState, grow)...)
	}
	s := e.slots[i]
	if s == nil {
		if k := len(e.free); k > 0 {
			s = e.free[k-1]
			e.free = e.free[:k-1]
		} else {
			s = new(slotState)
		}
		s.ph = phaseEnter
		e.slots[i] = s
	}
	return s
}

// EnterView implements Figure 6, lines 27-31, for every slot: each
// undecided slot enters v, 1Bs parked for v are replayed, and one 1B goes
// to v's leader, listing the slots that have something to report and
// covering the rest, virgin tail included, with default-1B runs. Decided
// slots take no part: the decision was pushed to all, and any process
// still running the slot gets it again in answer to its 1B, 2A or 2B.
func (e *Engine) EnterView(v int64) {
	if e.stopped || v <= e.view {
		return
	}
	e.view = v
	for p, rs := range e.idle {
		e.idle[p] = slices.DeleteFunc(rs, func(r idleRuns) bool { return r.view < v })
	}
	b := wire.OneB{View: v}
	addIdle := func(lo, hi int64) {
		if k := len(b.Idle); k > 0 && b.Idle[k-1][1] == lo {
			b.Idle[k-1][1] = hi
		} else {
			b.Idle = append(b.Idle, [2]int64{lo, hi})
		}
	}
	leads := e.leads(v)
	for i, s := range e.slots {
		slot := e.base + int64(i)
		if s == nil {
			addIdle(slot, slot+1)
			continue
		}
		if s.decided {
			continue
		}
		s.ph = phaseEnter
		clear(s.oneBs)
		s.oneBs = s.oneBs[:0]
		clear(s.twoBs)
		s.twoBs = s.twoBs[:0]
		// Replay 1Bs that arrived before we entered this view. View entry
		// is not simultaneous (synchronizers start staggered and drift),
		// and with one synchronizer per process the entry ORDER is stable
		// — a leader whose peers consistently enter first would otherwise
		// drop their quorum contributions every single view and never
		// propose.
		parked := s.parked
		s.parked = s.parked[:0]
		for _, p := range parked {
			switch {
			case p.view == v:
				e.handle1B(slot, s, p.from, v, p.b)
			case p.view > v:
				s.parked = append(s.parked, p)
			}
		}
		clear(parked[len(s.parked):])
		if leads {
			e.tryPropose(slot, s) // peers' default runs parked for v
		}
		if s.hasVal || s.hasMine {
			b.Slots = append(b.Slots, wire.Slot1B{
				Slot: slot, AView: s.aview, Val: s.val, HasVal: s.hasVal,
				Mine: s.mine, HasMine: s.hasMine,
			})
			if s.hasMine {
				s.sentMineView = v
			}
		} else {
			addIdle(slot, slot+1)
		}
		// A 2A that arrived before this view is accepted only now, after
		// the view's 1B took the slot as it stood before v: a leader that
		// proposed before this process entered v need not wait out the view.
		if a := s.parked2A; a != nil && a.View <= v {
			s.parked2A = nil
			if a.View == v {
				e.accept(slot, s, a.Val)
			}
		}
	}
	tail := int64(math.MaxInt64)
	if !e.open {
		tail = e.end
	}
	if lo := e.base + int64(len(e.slots)); lo < tail {
		addIdle(lo, tail)
	}
	if len(b.Slots) > 0 || len(b.Idle) > 0 {
		e.n.Send(failure.Proc(viewsync.Leader(viewsync.View(v), e.n.ClusterSize())), e.topic1B, b)
	}
}

// on1B handles a 1B (leader side). A slot entry materializes its slot; a
// decided slot is answered with its decision. Default runs are kept for the
// view, answered with the decisions of the slots they cover that this
// process knows decided — that is how a healed or late process learns what
// it missed — and trigger the proposal rule at every live slot they cover.
func (e *Engine) on1B(from failure.Proc, m wire.Message) {
	var b wire.OneB
	if e.stopped || wire.Decode(m, &b) != nil {
		return
	}
	for _, x := range b.Slots {
		s := e.state(x.Slot)
		switch {
		case s == nil:
		case s.decided:
			// The sender is still running the slot; hand it the decision.
			e.n.Send(from, e.topicDec, wire.Decision{Slot: x.Slot, Val: s.decVal})
		default:
			e.handle1B(x.Slot, s, from, b.View, x)
		}
	}
	if len(b.Idle) > 0 {
		e.onIdle(from, b.View, b.Idle)
	}
}

// handle1B implements the leader's proposal rule (Figure 6, lines 8-16) for
// a 1B with content.
func (e *Engine) handle1B(slot int64, s *slotState, from failure.Proc, view int64, b wire.Slot1B) {
	if view > e.view && view <= e.view+future1BWindow {
		// The sender's synchronizer is ahead of ours; park the 1B for
		// replay at our own entry into its view. A contentless 1B must not
		// displace an already-parked one from the same peer (messages
		// reorder, and the parked one may carry an accepted value or a
		// forwarded proposal).
		for i, p := range s.parked {
			if p.view == view && p.from == from {
				if b.HasVal || b.HasMine {
					s.parked[i].b = b
				}
				return
			}
		}
		s.parked = append(s.parked, parked1B{view: view, rec1B: rec1B{from: from, b: b}})
		return
	}
	if view != e.view || s.ph != phaseEnter || !e.leads(e.view) {
		return // out of date (§7), or not the leader of this view
	}
	// A contentless 1B must not displace a same-view record that carries
	// content: messages reorder under the randomized transports, and
	// dropping a recorded Mine would stall its commit until the next view.
	i := 0
	for i < len(s.oneBs) && s.oneBs[i].from != from {
		i++
	}
	switch {
	case i == len(s.oneBs):
		s.oneBs = append(s.oneBs, rec1B{from: from, b: b})
	case b.HasVal || b.HasMine:
		s.oneBs[i].b = b
	}
	e.tryPropose(slot, s)
}

// onIdle handles the default-1B runs of a peer's 1B for view (leader
// side). Runs on the node loop.
func (e *Engine) onIdle(from failure.Proc, view int64, runs [][2]int64) {
	if view >= e.view && view <= e.view+future1BWindow && int(from) < len(e.idle) {
		rs := e.idle[from]
		i := 0
		for i < len(rs) && rs[i].view != view {
			i++
		}
		if i == len(rs) {
			e.idle[from] = append(rs, idleRuns{view: view, runs: runs})
		} else {
			rs[i].runs = append(rs[i].runs, runs...)
		}
	}
	var decs wire.Decs
	behind := false
	used := e.base + int64(len(e.slots))
	for _, r := range runs {
		lo, hi := r[0], min(r[1], used) // virgin slots here hold nothing
		if lo < e.base {
			behind = true // slots below the window: retired here
			lo = e.base
		}
		for slot := lo; slot < hi; slot++ {
			s := e.slots[slot-e.base]
			switch {
			case s == nil:
			case s.decided:
				decs = append(decs, wire.Decision{Slot: slot, Val: s.decVal})
			case view == e.view:
				e.tryPropose(slot, s)
			}
		}
	}
	if behind && e.onBehind != nil {
		// The peer still runs slots whose decisions were truncated here, so
		// the decisions below cannot cover them.
		e.onBehind(from, view)
	}
	if len(decs) > 0 {
		e.n.Send(from, e.topicDecs, decs)
	}
}

// idleCovers reports whether peer p's default-1B runs for the current view
// cover slot.
func (e *Engine) idleCovers(p int, slot int64) bool {
	for _, r := range e.idle[p] {
		if r.view != e.view {
			continue
		}
		for _, rg := range r.runs {
			if slot >= rg[0] && slot < rg[1] {
				return true
			}
		}
	}
	return false
}

// tryPropose runs the leader's proposal rule (Figure 6, lines 10-15) over
// the 1Bs collected for the current view, explicit and default: with a read
// quorum of responders, propose the value accepted in the highest view,
// else our own. It runs on every 1B arrival and — crucially for throughput
// — when a local proposal registers mid-view (Submit): line 11's "skip our
// turn" merely defers until a value exists, so re-evaluating the same rule
// the moment one arrives is protocol-equivalent to the quorum's 1Bs having
// arrived later, and turns leader-local commit latency from "wait for the
// next view boundary" (hundreds of ms once views have grown) into a 2A/2B
// round trip. The phase check keeps at most one proposal per view.
func (e *Engine) tryPropose(slot int64, s *slotState) {
	if e.stopped || s.decided || s.ph != phaseEnter || !e.leads(e.view) {
		return
	}
	n := e.n.ClusterSize()
	responders := e.responders()
	for _, r := range s.oneBs {
		responders.Add(int(r.from))
	}
	for p := 0; p < n; p++ {
		if !responders.Contains(p) && e.idleCovers(p, slot) {
			responders.Add(p)
		}
	}
	ri := quorumIn(e.reads, responders)
	if ri < 0 {
		return
	}
	var (
		chosen    string
		hasChosen bool
		bestView  int64 = -1
	)
	for _, r := range s.oneBs {
		if e.reads[ri].Contains(int(r.from)) && r.b.HasVal && r.b.AView > bestView {
			bestView = r.b.AView
			chosen = r.b.Val
			hasChosen = true
		}
	}
	if !hasChosen {
		// No accepted value in the quorum: propose our own, else a proposal
		// forwarded in ANY recorded 1B — not just the matched quorum's, as a
		// forwarder outside it would otherwise stall until the next view
		// (lowest process id wins, for determinism). Any proposed value is
		// safe to propose; only accepted values carry precedence
		// constraints.
		if s.hasMine {
			chosen = s.mine
		} else {
			from := failure.Proc(n)
			for _, r := range s.oneBs {
				if r.b.HasMine && r.from < from {
					from, chosen = r.from, r.b.Mine
				}
			}
			if int(from) == n {
				return // nothing proposed anywhere yet: skip our turn
			}
		}
	}
	e.n.Broadcast(e.topic2A, wire.Accept{Slot: slot, View: e.view, Val: chosen})
	s.ph = phasePropose
}

// peekSlot reads the slot that leads an Accept or a Decision body without
// decoding the value.
func peekSlot(m wire.Message) int64 {
	r := wire.NewReader(m.Body)
	return r.Varint()
}

// on2A implements acceptance (Figure 6, lines 17-22). A decided slot drops
// the body undecoded (see answerLate); a 2A for one of the next
// future1BWindow views is parked until this process enters it, the way
// 1Bs are.
func (e *Engine) on2A(from failure.Proc, m wire.Message) {
	if e.stopped {
		return
	}
	slot := peekSlot(m)
	s := e.state(slot)
	if s == nil {
		return
	}
	if s.decided {
		e.answerLate(from, slot, s)
		return
	}
	var a wire.Accept
	if a.DecodeWire(m.Body) != nil {
		return
	}
	switch {
	case a.View == e.view:
		e.accept(slot, s, a.Val)
	case a.View > e.view && a.View <= e.view+future1BWindow:
		if s.parked2A == nil || a.View > s.parked2A.View {
			early := a
			s.parked2A = &early
		}
	}
}

// accept adopts the current view's proposal for slot and broadcasts the
// 2B, unless the slot already accepted in this view.
func (e *Engine) accept(slot int64, s *slotState, val string) {
	if s.ph != phaseEnter && s.ph != phasePropose {
		return
	}
	s.val, s.hasVal, s.aview = val, true, e.view
	e.n.Broadcast(e.topic2B, wire.Accept{Slot: slot, View: e.view, Val: val})
	s.ph = phaseAccept
}

// on2B implements the decision rule (Figure 6, lines 23-26). A decided slot
// drops the body undecoded: after a decision the remaining 2Bs of the
// round, each carrying the whole value, are pure redundancy.
func (e *Engine) on2B(from failure.Proc, m wire.Message) {
	if e.stopped {
		return
	}
	slot := peekSlot(m)
	s := e.state(slot)
	if s == nil {
		return
	}
	if s.decided {
		e.answerLate(from, slot, s)
		return
	}
	var b wire.Accept
	if b.DecodeWire(m.Body) != nil || b.View != e.view {
		return
	}
	i := 0
	for i < len(s.twoBs) && s.twoBs[i].from != from {
		i++
	}
	if i == len(s.twoBs) {
		s.twoBs = append(s.twoBs, rec2B{from: from, val: b.Val})
	} else {
		s.twoBs[i].val = b.Val
	}
	responders := e.responders()
	for _, r := range s.twoBs {
		if r.val == b.Val {
			responders.Add(int(r.from))
		}
	}
	if quorumIn(e.writes, responders) < 0 {
		return
	}
	s.val, s.hasVal, s.aview = b.Val, true, e.view
	e.decide(slot, s, b.Val, true)
}

// answerLate handles a 2A or 2B reaching a slot that has already decided. A
// slot whose decision this process announced sent it to the peer already,
// so it stays silent; one decided through Learn or a peer's Decs announced
// nothing and answers with the decision. (Late 1Bs are always answered —
// that is what heals a lost announcement.)
func (e *Engine) answerLate(from failure.Proc, slot int64, s *slotState) {
	if !s.announced {
		e.n.Send(from, e.topicDec, wire.Decision{Slot: slot, Val: s.decVal})
	}
}

// onDec adopts a decision announced by a peer that already decided. Every
// deciding process announces, so most announcements reach a slot that has
// already decided; those are dropped undecoded.
func (e *Engine) onDec(from failure.Proc, m wire.Message) {
	if e.stopped {
		return
	}
	slot := peekSlot(m)
	s := e.state(slot)
	if s == nil || s.decided {
		return
	}
	var d wire.Decision
	if d.DecodeWire(m.Body) != nil {
		return
	}
	s.val, s.hasVal = d.Val, true
	// Announce in turn: under unidirectional connectivity the original
	// announcement may be unable to reach processes this one can reach.
	e.decide(slot, s, d.Val, true)
}

// onDecs learns the decisions a peer sent in answer to this process's 1B.
// Decisions beyond the window are evidence that the peer grew its window on
// an announcement this process missed; growing it here is always safe.
func (e *Engine) onDecs(from failure.Proc, m wire.Message) {
	var decs wire.Decs
	if e.stopped || wire.Decode(m, &decs) != nil {
		return
	}
	for _, d := range decs {
		e.Extend(d.Slot + 1)
		e.Learn(d.Slot, d.Val)
	}
}

// Learn adopts a decision learned from outside the protocol (a replicated
// log's snapshot-install carries decided slots) without announcing it.
// Slots outside the window are ignored. Runs on the node loop.
func (e *Engine) Learn(slot int64, val string) {
	if e.stopped {
		return
	}
	if s := e.state(slot); s != nil && !s.decided {
		s.val, s.hasVal = val, true
		e.decide(slot, s, val, false)
	}
}

// decide records a slot's decision, completes the slot's proposals, pushes
// the decision to every other process when announce is set, and fires
// OnDecide last: it may truncate the slot.
func (e *Engine) decide(slot int64, s *slotState, val string, announce bool) {
	s.decided, s.decVal, s.ph = true, val, phaseDecide
	clear(s.oneBs)
	clear(s.twoBs)
	clear(s.parked)
	s.oneBs, s.twoBs, s.parked = s.oneBs[:0], s.twoBs[:0], s.parked[:0]
	s.parked2A = nil
	for _, w := range s.waiters {
		e.complete(w, val, nil)
	}
	s.waiters = nil
	if announce {
		s.announced = true
		e.n.Multicast(e.peers, e.topicDec, wire.Decision{Slot: slot, Val: val})
	}
	if e.onDecide != nil {
		e.onDecide(slot, val)
	}
}

// complete hands a proposal its outcome as an event of its own on the node
// loop, queued behind the work already there: an owner's completion never
// runs inside an engine handler, and a leader re-claiming on completion
// packs whatever sub-batches arrived meanwhile.
func (e *Engine) complete(done func(string, error), v string, err error) {
	e.n.Do(func() { done(v, err) })
}

// Submit registers x as this process's proposal for slot (Figure 6, lines
// 4-7) — the first value registered for a slot at this process is its
// proposal — and calls done with the slot's decision, or with ErrStopped
// when the engine stops first or the slot is outside the window (see
// complete for when). Runs on the node loop.
func (e *Engine) Submit(slot int64, x string, done func(string, error)) {
	if e.stopped {
		if s := e.lookup(slot); s != nil && s.decided {
			// The decision is immutable: a proposal that loses the race
			// with Stop still learns it.
			e.complete(done, s.decVal, nil)
		} else {
			e.complete(done, "", ErrStopped)
		}
		return
	}
	s := e.state(slot)
	if s == nil {
		e.complete(done, "", ErrStopped)
		return
	}
	if !s.hasMine {
		s.mine, s.hasMine = x, true
	}
	if s.decided {
		e.complete(done, s.decVal, nil)
		return
	}
	s.waiters = append(s.waiters, done)
	// If this process leads the current view and already holds a 1B read
	// quorum (peers' default runs cover a fresh slot), the proposal can be
	// proposed right now instead of waiting out the view (see tryPropose).
	// Otherwise forward it to the current leader in a fresh 1B so it can be
	// adopted mid-view, unless this view's 1B carried it already. A stale
	// or early view on either side is handled by the normal 1B rules (drop
	// / park).
	if e.view > 0 {
		switch leader := failure.Proc(viewsync.Leader(viewsync.View(e.view), e.n.ClusterSize())); {
		case leader == e.n.ID():
			e.tryPropose(slot, s)
		case s.sentMineView != e.view:
			e.n.Send(leader, e.topic1B, wire.OneB{View: e.view, Slots: []wire.Slot1B{{
				Slot: slot, AView: s.aview, Val: s.val, HasVal: s.hasVal,
				Mine: s.mine, HasMine: true,
			}}})
			s.sentMineView = e.view
		}
	}
}

// Propose submits x for slot and blocks until this process learns the
// slot's decision. It may be called from any goroutine but the node loop.
func (e *Engine) Propose(ctx context.Context, slot int64, x string) (string, error) {
	type result struct {
		v   string
		err error
	}
	ch := make(chan result, 1)
	if err := e.n.CallCtx(ctx, func() {
		e.Submit(slot, x, func(v string, err error) { ch <- result{v, err} })
	}); err != nil {
		// The registration may still run later; the buffered channel
		// absorbs its abandoned completion.
		return "", err
	}
	select {
	case r := <-ch:
		return r.v, r.err
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// Decision reports a slot's decision at this process, if any. Runs on the
// node loop.
func (e *Engine) Decision(slot int64) (string, bool) {
	if s := e.lookup(slot); s != nil && s.decided {
		return s.decVal, true
	}
	return "", false
}

// End returns the end of the window: slots at or beyond it are not live
// yet. Runs on the node loop.
func (e *Engine) End() int64 { return e.end }

// Used returns one past the highest slot holding state at this process, or
// the window's base when none does. Runs on the node loop.
func (e *Engine) Used() int64 { return e.base + int64(len(e.slots)) }

// Extend grows the window until it ends at to. The new slots are virgin:
// the open tail of this view's 1B covers them already. Runs on the node
// loop.
func (e *Engine) Extend(to int64) {
	e.end = max(e.end, to)
}

// Truncate retires every slot below t, releasing its state for reuse.
// Messages for retired slots are dropped from then on; a peer whose 1B
// still covers them is reported to OnBehind. Runs on the node loop.
func (e *Engine) Truncate(t int64) {
	if t <= e.base {
		return
	}
	k := int(min(t-e.base, int64(len(e.slots))))
	for _, s := range e.slots[:k] {
		if s == nil {
			continue
		}
		for _, w := range s.waiters {
			e.complete(w, "", ErrStopped) // an undecided slot its owner skipped
		}
		clear(s.oneBs)
		clear(s.twoBs)
		clear(s.parked)
		*s = slotState{oneBs: s.oneBs[:0], twoBs: s.twoBs[:0], parked: s.parked[:0]}
		e.free = append(e.free, s)
	}
	rest := copy(e.slots, e.slots[k:])
	clear(e.slots[rest:])
	e.slots = e.slots[:rest]
	e.base = t
	e.end = max(e.end, t)
}

// Stop releases pending proposals with ErrStopped and unregisters the
// engine's wire topics; messages for them are dropped by the node from
// then on.
func (e *Engine) Stop() {
	e.n.Do(func() {
		e.stopped = true
		for _, s := range e.slots {
			if s == nil {
				continue
			}
			for _, w := range s.waiters {
				w("", ErrStopped) // directly: the loop may be draining to exit
			}
			s.waiters = nil
		}
		for _, t := range []string{e.topic1B, e.topic2A, e.topic2B, e.topicDec, e.topicDecs} {
			e.n.Unhandle(t)
		}
	})
}

// Options configures a single-shot consensus endpoint.
type Options struct {
	// Name scopes wire topics. Defaults to "cons".
	Name string
	// Reads and Writes are the quorum families (phase-1 / phase-2 quorums).
	Reads, Writes []graph.BitSet
	// C is the view-duration constant: view v lasts v*C. Defaults to 25ms.
	C time.Duration
	// OnDecide, when set, is invoked exactly once with the decided value,
	// from the node's event loop, as soon as this process learns the
	// decision. It lets layers above react without polling.
	OnDecide func(val string)
}

// Consensus is one process's endpoint of a single-shot consensus object:
// an engine with one slot, driven by its own view synchronizer.
type Consensus struct {
	e    *Engine
	sync *viewsync.Synchronizer
}

// New installs a consensus endpoint on the node and starts its view
// synchronizer.
func New(n *node.Node, opts Options) *Consensus {
	if opts.C <= 0 {
		opts.C = 25 * time.Millisecond
	}
	eo := EngineOptions{Name: opts.Name, Reads: opts.Reads, Writes: opts.Writes, Slots: 1}
	if f := opts.OnDecide; f != nil {
		eo.OnDecide = func(_ int64, v string) { f(v) }
	}
	c := &Consensus{e: newEngine(n, eo, false)}
	c.sync = viewsync.New(opts.C, func(v viewsync.View) {
		// Hop onto the event loop; the synchronizer runs its own goroutine.
		n.Do(func() { c.e.EnterView(int64(v)) })
	})
	c.sync.Start()
	return c
}

// Propose submits x and blocks until this process learns the decision
// (Figure 6, lines 4-7). It may be called by multiple goroutines; the first
// value registered at this process becomes its proposal.
func (c *Consensus) Propose(ctx context.Context, x string) (string, error) {
	return c.e.Propose(ctx, 0, x)
}

// Decided reports the decision at this process, if any.
func (c *Consensus) Decided() (string, bool) {
	var (
		v  string
		ok bool
	)
	c.e.n.Call(func() { v, ok = c.e.Decision(0) }) //lint:allow ctxflow bounded single loop hop reading two fields; Call aborts when the node stops
	return v, ok
}

// View returns the process's current view (for experiments).
func (c *Consensus) View() int64 {
	var v int64
	c.e.n.Call(func() { v = c.e.view }) //lint:allow ctxflow bounded single loop hop reading one field; Call aborts when the node stops
	return v
}

// Stop terminates the synchronizer, releases pending Propose calls, and
// unregisters the endpoint's wire topics.
func (c *Consensus) Stop() {
	c.sync.Stop()
	c.e.Stop()
}

func quorumIn(family []graph.BitSet, responders graph.BitSet) int {
	for i, q := range family {
		if q.SubsetOf(responders) {
			return i
		}
	}
	return -1
}
