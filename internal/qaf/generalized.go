package qaf

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/wire"
)

// Wire bodies for the generalized protocol (Figure 3): CLOCK_REQ is a
// wire.Int (its sequence number), CLOCK_RESP and SET_RESP are
// wire.SeqClock, SET_REQ is a wire.SeqData and GET_RESP a wire.StateClock.
// GET_RESP is pushed both periodically (line 12) and in response to
// nothing at all — it is unsolicited, which is the whole point: members of
// a read quorum may be unable to receive requests.

// genPendingGet tracks a quorum_get invocation (Figure 3, lines 3-9).
type genPendingGet struct {
	clocks     []int64      // per process: highest CLOCK_RESP clock
	responders graph.BitSet // processes whose CLOCK_RESP arrived
	cGet       int64        // clock cutoff; valid once phase == 2
	phase      int          // 1: collecting CLOCK_RESP; 2: waiting for fresh GET_RESP
	installed  bool         // the result is proven installed; written before done
	done       chan [][]byte
}

// genPendingSet tracks a quorum_set invocation (Figure 3, lines 15-20).
type genPendingSet struct {
	clocks     []int64      // per process: highest SET_RESP clock
	responders graph.BitSet // processes whose SET_RESP arrived
	cSet       int64
	phase      int // 1: collecting SET_RESP; 2: waiting for read-quorum clocks
	done       chan struct{}
}

// observed is the freshest unsolicited state report received from a process:
// its state, the clock it was reported at, and the state's version (the
// sender's clock when that state was last updated; -1 when the push did not
// say). A clock-only push may raise clock only while ver matches.
type observed struct {
	state []byte
	clock int64
	ver   int64
}

// Generalized implements the quorum access functions of Figure 3 on a
// generalized quorum system. Each process maintains a logical clock;
// unsolicited periodic GET_RESP pushes let downstream processes assemble
// read-quorum snapshots, and the clock cutoffs computed from write quorums
// guarantee Real-time ordering despite the absence of request/response
// connectivity to read quorums.
type Generalized struct {
	n      *node.Node
	sm     StateMachine
	reads  []graph.BitSet
	writes []graph.BitSet

	// Loop-confined state.
	clock    int64
	ver      int64 // clock at the last applied update: the state's version
	dirty    bool  // state or clock changed since the last propagation flush
	seq      int64
	gets     map[int64]*genPendingGet
	sets     map[int64]*genPendingSet
	latest   map[failure.Proc]observed
	scratch  graph.BitSet // reused process set, see heldAtOrAbove
	stopped  bool
	cancelFn func()
	prop     *Propagator
	name     string

	topicClockReq  string
	topicClockResp string
	topicGetResp   string
	topicSetReq    string
	topicSetResp   string

	metrics Metrics
}

var _ Accessor = (*Generalized)(nil)

// GeneralizedConfig configures a Generalized accessor.
type GeneralizedConfig struct {
	// Name scopes the wire topics so several accessors can share a node.
	Name string
	// SM is the top-level protocol state.
	SM StateMachine
	// Reads and Writes are the quorum families of the GQS.
	Reads, Writes []graph.BitSet
	// Tick is the interval of the periodic state propagation (Figure 3,
	// line 12). Defaults to 5ms. Ignored when Propagator is set.
	Tick time.Duration
	// Propagator, when set, replaces the private periodic ticker with the
	// node's shared delta propagator: state changes are flushed immediately
	// (batched with every other accessor dirtied in the same event-loop
	// burst), idle instances send nothing, and peers that fall behind are
	// caught up with targeted full snapshots. See Propagator.
	Propagator *Propagator
}

// NewGeneralized installs a generalized accessor on the node and starts its
// periodic state propagation.
func NewGeneralized(n *node.Node, cfg GeneralizedConfig) *Generalized {
	if cfg.Tick <= 0 {
		cfg.Tick = 5 * time.Millisecond
	}
	g := &Generalized{
		n:              n,
		sm:             cfg.SM,
		name:           cfg.Name,
		reads:          cfg.Reads,
		writes:         cfg.Writes,
		gets:           make(map[int64]*genPendingGet),
		sets:           make(map[int64]*genPendingSet),
		latest:         make(map[failure.Proc]observed),
		scratch:        graph.NewBitSet(n.ClusterSize()),
		topicClockReq:  cfg.Name + "/clock_req",
		topicClockResp: cfg.Name + "/clock_resp",
		topicGetResp:   cfg.Name + "/get_resp",
		topicSetReq:    cfg.Name + "/set_req",
		topicSetResp:   cfg.Name + "/set_resp",
	}
	n.Handle(g.topicClockReq, g.onClockReq)
	n.Handle(g.topicClockResp, g.onClockResp)
	n.Handle(g.topicGetResp, g.onGetResp)
	n.Handle(g.topicSetReq, g.onSetReq)
	n.Handle(g.topicSetResp, g.onSetResp)
	if cfg.Propagator != nil {
		// Batched propagation: the node-level propagator ticks for us.
		prop := cfg.Propagator
		name := cfg.Name
		g.prop = prop
		n.Do(func() { prop.attach(name, g) })
		return g
	}
	// Periodic state propagation (Figure 3, lines 12-14): advance the clock
	// and push state downstream without waiting for requests.
	g.cancelFn = n.Every(cfg.Tick, func() {
		if g.stopped {
			return
		}
		g.clock++
		g.n.Broadcast(g.topicGetResp, wire.StateClock{State: g.sm.Snapshot(), Clock: g.clock})
	})
	return g
}

// Get implements Accessor (Figure 3, lines 3-9). The result is reported
// installed when the reports held as the get completes prove it (see
// installed); reports from the per-instance ticker carry no version and
// never do.
func (g *Generalized) Get(ctx context.Context) ([][]byte, bool, error) {
	atomic.AddInt64(&g.metrics.Gets, 1)
	var pg *genPendingGet
	var seq int64
	if err := g.n.CallCtx(ctx, func() {
		if g.stopped {
			return
		}
		g.seq++
		seq = g.seq
		n := g.n.ClusterSize()
		pg = &genPendingGet{
			clocks:     make([]int64, n),
			responders: graph.NewBitSet(n),
			phase:      1,
			done:       make(chan [][]byte, 1),
		}
		g.gets[seq] = pg
		// Line 5: establish the clock cutoff from a write quorum.
		g.n.Broadcast(g.topicClockReq, wire.Int(seq))
	}); err != nil {
		// The registration may still run later; withdraw it behind fn in
		// loop order (seq is written before the withdrawal reads it).
		g.n.Do(func() { delete(g.gets, seq) })
		return nil, false, err
	}
	if pg == nil {
		return nil, false, ErrStopped
	}
	select {
	case states, ok := <-pg.done:
		if !ok {
			return nil, false, ErrStopped
		}
		if pg.installed {
			atomic.AddInt64(&g.metrics.Installed, 1)
		}
		return states, pg.installed, nil
	case <-ctx.Done():
		g.n.Do(func() { delete(g.gets, seq) })
		return nil, false, ctx.Err()
	}
}

// Set implements Accessor (Figure 3, lines 15-20).
func (g *Generalized) Set(ctx context.Context, update []byte) error {
	atomic.AddInt64(&g.metrics.Sets, 1)
	var ps *genPendingSet
	var seq int64
	if err := g.n.CallCtx(ctx, func() {
		if g.stopped {
			return
		}
		g.seq++
		seq = g.seq
		n := g.n.ClusterSize()
		ps = &genPendingSet{
			clocks:     make([]int64, n),
			responders: graph.NewBitSet(n),
			phase:      1,
			done:       make(chan struct{}, 1),
		}
		g.sets[seq] = ps
		// Line 17: ship the update to a write quorum.
		g.n.Broadcast(g.topicSetReq, wire.SeqData{Seq: seq, Data: update})
	}); err != nil {
		// The registration may still run later; withdraw it behind fn in
		// loop order (seq is written before the withdrawal reads it).
		g.n.Do(func() { delete(g.sets, seq) })
		return err
	}
	if ps == nil {
		return ErrStopped
	}
	select {
	case _, ok := <-ps.done:
		if !ok {
			return ErrStopped
		}
		return nil
	case <-ctx.Done():
		g.n.Do(func() { delete(g.sets, seq) })
		return ctx.Err()
	}
}

// Stop implements Accessor.
func (g *Generalized) Stop() {
	if g.cancelFn != nil {
		g.cancelFn()
	}
	g.n.Do(func() {
		if g.prop != nil {
			g.prop.detach(g.name)
		}
		g.stopped = true
		for seq, pg := range g.gets {
			close(pg.done)
			delete(g.gets, seq)
		}
		for seq, ps := range g.sets {
			close(ps.done)
			delete(g.sets, seq)
		}
	})
}

// Metrics returns operation counters.
func (g *Generalized) Metrics() Metrics {
	return Metrics{
		Gets:      atomic.LoadInt64(&g.metrics.Gets),
		Sets:      atomic.LoadInt64(&g.metrics.Sets),
		Installed: atomic.LoadInt64(&g.metrics.Installed),
	}
}

// Clock returns the process's current logical clock (loop-safe snapshot).
func (g *Generalized) Clock() int64 {
	var c int64
	g.n.Call(func() { c = g.clock }) //lint:allow ctxflow bounded single loop hop reading one field; Call aborts when the node stops
	return c
}

// onClockReq handles CLOCK_REQ (Figure 3, lines 10-11).
func (g *Generalized) onClockReq(from failure.Proc, m wire.Message) {
	var seq wire.Int
	if wire.Decode(m, &seq) != nil {
		return
	}
	g.n.Send(from, g.topicClockResp, wire.SeqClock{Seq: int64(seq), Clock: g.clock})
}

// onClockResp accumulates CLOCK_RESP for phase-1 gets (Figure 3, lines 6-7).
func (g *Generalized) onClockResp(from failure.Proc, m wire.Message) {
	var resp wire.SeqClock
	if wire.Decode(m, &resp) != nil {
		return
	}
	pg, ok := g.gets[resp.Seq]
	q := int(from)
	if !ok || pg.phase != 1 || q < 0 || q >= len(pg.clocks) {
		return
	}
	pg.clocks[q] = max(pg.clocks[q], resp.Clock)
	pg.responders.Add(q)
	wi := quorumContaining(g.writes, pg.responders)
	if wi < 0 {
		return
	}
	// Line 7: c_get = max clock among the write quorum's responses.
	var cGet int64
	g.writes[wi].ForEach(func(p int) { cGet = max(cGet, pg.clocks[p]) })
	pg.cGet = cGet
	pg.phase = 2
	g.checkGetPhase2(resp.Seq, pg)
}

// onGetResp decodes an unsolicited state push (Figure 3, lines 8 and 20).
func (g *Generalized) onGetResp(from failure.Proc, m wire.Message) {
	var resp wire.StateClock
	if wire.Decode(m, &resp) != nil {
		return
	}
	g.handleStatePush(from, resp.State, resp.Clock, -1)
}

// handleStatePush records a state push of the given version and
// re-evaluates all waiting invocations. Runs on the node loop (called from
// onGetResp or from the batched Propagator).
func (g *Generalized) handleStatePush(from failure.Proc, state []byte, clock, ver int64) {
	// Keep only the freshest report per sender; per-sender clocks are
	// monotone but the network may reorder messages.
	if cur, ok := g.latest[from]; !ok || clock > cur.clock {
		g.latest[from] = observed{state: state, clock: clock, ver: ver}
	}
	g.recheck()
}

// observeClock records a clock-only push: from's clock reached clock while
// its state stayed at version ver. It raises the held report's clock only
// when that report is of exactly version ver — the sender's state at this
// clock is then the held state. Otherwise the entry is ignored until the
// full state arrives. Runs on the node loop.
func (g *Generalized) observeClock(from failure.Proc, clock, ver int64) {
	cur, ok := g.latest[from]
	if !ok || cur.ver != ver || clock <= cur.clock {
		return
	}
	cur.clock = clock
	g.latest[from] = cur
	g.recheck()
}

// advanceClock is the Propagator's spontaneous clock advance (Figure 3,
// line 12), floored by a wall-clock reading in microseconds, together with
// the process's observation of itself: local phase-2 checks read
// latest[self]. The state is snapshotted only when the self-observation
// does not already hold the current version. Runs on the node loop.
func (g *Generalized) advanceClock(floor int64) {
	g.clock = max(g.clock+1, floor)
	self := g.n.ID()
	if ob, ok := g.latest[self]; ok && ob.ver == g.ver {
		g.observeClock(self, g.clock, g.ver)
		return
	}
	g.handleStatePush(self, g.sm.Snapshot(), g.clock, g.ver)
}

// recheck re-evaluates every waiting invocation against the held reports.
// Runs on the node loop.
func (g *Generalized) recheck() {
	for seq, pg := range g.gets {
		if pg.phase == 2 {
			g.checkGetPhase2(seq, pg)
		}
	}
	for seq, ps := range g.sets {
		if ps.phase == 2 {
			g.checkSetPhase2(seq, ps)
		}
	}
}

// heldAtOrAbove returns the processes whose held report's clock is at least
// c. The set is g.scratch, so it is valid until the next use of scratch.
// Runs on the node loop.
func (g *Generalized) heldAtOrAbove(c int64) graph.BitSet {
	g.scratch.Clear()
	for p, ob := range g.latest {
		if ob.clock >= c {
			g.scratch.Add(int(p))
		}
	}
	return g.scratch
}

// checkGetPhase2 completes a get once some read quorum's fresh states are
// all at or beyond the cutoff (Figure 3, lines 8-9), and decides on the
// same reports whether its result is already installed.
func (g *Generalized) checkGetPhase2(seq int64, pg *genPendingGet) {
	ri := quorumContaining(g.reads, g.heldAtOrAbove(pg.cGet))
	if ri < 0 {
		return
	}
	states := make([][]byte, 0, g.reads[ri].Len())
	g.reads[ri].ForEach(func(p int) {
		states = append(states, g.latest[failure.Proc(p)].state)
	})
	pg.installed = g.installed(states)
	delete(g.gets, seq)
	pg.done <- states
}

// installed reports whether the largest of a completing get's states, best,
// is already installed. It is when some write quorum W0 holds versioned
// reports whose states all cover best, and some read quorum R* holds
// reports with clocks at or beyond m, the highest version among W0's
// reports. Of the write quorums that qualify it takes the one with the
// least m. If no returned state covers all the others there is no best and
// the answer is no. Package register gives the safety argument. Runs on the
// node loop.
func (g *Generalized) installed(states [][]byte) bool {
	best := states[0]
	for _, s := range states[1:] {
		if !g.sm.Covers(best, s) {
			best = s
		}
	}
	for _, s := range states {
		if !g.sm.Covers(best, s) {
			return false
		}
	}
	cover := g.scratch
	cover.Clear()
	for p, ob := range g.latest {
		if ob.ver >= 0 && g.sm.Covers(ob.state, best) {
			cover.Add(int(p))
		}
	}
	m := int64(-1)
	for _, w := range g.writes {
		if !w.SubsetOf(cover) {
			continue
		}
		var mw int64
		w.ForEach(func(p int) { mw = max(mw, g.latest[failure.Proc(p)].ver) })
		if m < 0 || mw < m {
			m = mw
		}
	}
	return m >= 0 && quorumContaining(g.reads, g.heldAtOrAbove(m)) >= 0
}

// onSetReq handles SET_REQ (Figure 3, lines 21-24): apply the update,
// advance the clock, and acknowledge with the new clock value. Under a
// Propagator the changed (state, clock) is flushed immediately — coalesced
// with every other instance dirtied by work already queued on the loop —
// instead of waiting for the next tick.
func (g *Generalized) onSetReq(from failure.Proc, m wire.Message) {
	var req wire.SeqData
	if wire.Decode(m, &req) != nil {
		return
	}
	if err := g.sm.Apply(req.Data); err != nil {
		return
	}
	g.clock++
	g.ver = g.clock
	if g.prop != nil {
		g.dirty = true
		g.prop.requestFlush()
	}
	g.n.Send(from, g.topicSetResp, wire.SeqClock{Seq: req.Seq, Clock: g.clock})
}

// onSetResp accumulates SET_RESP for phase-1 sets (Figure 3, lines 18-19).
func (g *Generalized) onSetResp(from failure.Proc, m wire.Message) {
	var resp wire.SeqClock
	if wire.Decode(m, &resp) != nil {
		return
	}
	ps, ok := g.sets[resp.Seq]
	q := int(from)
	if !ok || ps.phase != 1 || q < 0 || q >= len(ps.clocks) {
		return
	}
	ps.clocks[q] = max(ps.clocks[q], resp.Clock)
	ps.responders.Add(q)
	wi := quorumContaining(g.writes, ps.responders)
	if wi < 0 {
		return
	}
	// Line 19: c_set = max clock among the write quorum's responses.
	var cSet int64
	g.writes[wi].ForEach(func(p int) { cSet = max(cSet, ps.clocks[p]) })
	ps.cSet = cSet
	ps.phase = 2
	g.checkSetPhase2(resp.Seq, ps)
}

// pendingCutoff returns the highest clock cutoff any phase-2 invocation at
// this process is waiting on, and whether one exists. The Propagator nudges
// the cluster toward it. Runs on the node loop.
func (g *Generalized) pendingCutoff() (int64, bool) {
	var cutoff int64
	found := false
	for _, pg := range g.gets {
		if pg.phase == 2 {
			found = true
			if pg.cGet > cutoff {
				cutoff = pg.cGet
			}
		}
	}
	for _, ps := range g.sets {
		if ps.phase == 2 {
			found = true
			if ps.cSet > cutoff {
				cutoff = ps.cSet
			}
		}
	}
	return cutoff, found
}

// checkSetPhase2 completes a set once some read quorum reports clocks at or
// beyond c_set (Figure 3, line 20). This wait is what makes the update
// visible to every later quorum_get (Theorem 3).
func (g *Generalized) checkSetPhase2(seq int64, ps *genPendingSet) {
	if quorumContaining(g.reads, g.heldAtOrAbove(ps.cSet)) < 0 {
		return
	}
	delete(g.sets, seq)
	ps.done <- struct{}{}
}
