package qaf

import (
	"context"
	"sync/atomic"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/wire"
)

// Wire bodies for the classical protocol (Figure 2): GET_REQ and SET_RESP
// are a wire.Int (the sequence number), GET_RESP (the state) and SET_REQ
// (the update) a wire.SeqData.

type classicalPendingGet struct {
	states map[failure.Proc][]byte
	done   chan []([]byte)
}

type classicalPendingSet struct {
	acks graph.BitSet
	done chan struct{}
}

// Classical implements the quorum access functions of Figure 2 on a
// classical quorum system. Get broadcasts GET_REQ and waits for GET_RESP
// from all members of some read quorum; Set broadcasts SET_REQ and waits for
// SET_RESP from all members of some write quorum. It is live only when the
// caller can exchange request/response pairs with correct quorums — i.e. on
// fail-prone systems without channel failures (Definition 1).
type Classical struct {
	n      *node.Node
	sm     StateMachine
	reads  []graph.BitSet
	writes []graph.BitSet

	// Loop-confined state.
	seq     int64
	gets    map[int64]*classicalPendingGet
	sets    map[int64]*classicalPendingSet
	stopped bool

	topicGetReq  string
	topicGetResp string
	topicSetReq  string
	topicSetResp string

	metrics Metrics
}

var _ Accessor = (*Classical)(nil)

// NewClassical installs a classical accessor named name on the node. The
// name scopes the wire topics so several accessors can share a node.
func NewClassical(n *node.Node, name string, sm StateMachine, reads, writes []graph.BitSet) *Classical {
	c := &Classical{
		n:            n,
		sm:           sm,
		reads:        reads,
		writes:       writes,
		gets:         make(map[int64]*classicalPendingGet),
		sets:         make(map[int64]*classicalPendingSet),
		topicGetReq:  name + "/cget_req",
		topicGetResp: name + "/cget_resp",
		topicSetReq:  name + "/cset_req",
		topicSetResp: name + "/cset_resp",
	}
	n.Handle(c.topicGetReq, c.onGetReq)
	n.Handle(c.topicGetResp, c.onGetResp)
	n.Handle(c.topicSetReq, c.onSetReq)
	n.Handle(c.topicSetResp, c.onSetResp)
	return c
}

// Get implements Accessor (Figure 2, lines 3-7). It never reports its
// result installed: a request/response round proves nothing about states
// it did not read.
func (c *Classical) Get(ctx context.Context) ([][]byte, bool, error) {
	atomic.AddInt64(&c.metrics.Gets, 1)
	var pg *classicalPendingGet
	var seq int64
	if err := c.n.CallCtx(ctx, func() {
		if c.stopped {
			return
		}
		c.seq++
		seq = c.seq
		pg = &classicalPendingGet{
			states: make(map[failure.Proc][]byte),
			done:   make(chan [][]byte, 1),
		}
		c.gets[seq] = pg
		c.n.Broadcast(c.topicGetReq, wire.Int(seq))
	}); err != nil {
		// The registration may still run later; withdraw it behind fn in
		// loop order (seq is written before the withdrawal reads it).
		c.n.Do(func() { delete(c.gets, seq) })
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
		return states, false, nil
	case <-ctx.Done():
		c.n.Do(func() { delete(c.gets, seq) })
		return nil, false, ctx.Err()
	}
}

// Set implements Accessor (Figure 2, lines 10-13).
func (c *Classical) Set(ctx context.Context, update []byte) error {
	atomic.AddInt64(&c.metrics.Sets, 1)
	var ps *classicalPendingSet
	var seq int64
	if err := c.n.CallCtx(ctx, func() {
		if c.stopped {
			return
		}
		c.seq++
		seq = c.seq
		ps = &classicalPendingSet{
			acks: graph.NewBitSet(c.n.ClusterSize()),
			done: make(chan struct{}, 1),
		}
		c.sets[seq] = ps
		c.n.Broadcast(c.topicSetReq, wire.SeqData{Seq: seq, Data: update})
	}); err != nil {
		// The registration may still run later; withdraw it behind fn in
		// loop order (seq is written before the withdrawal reads it).
		c.n.Do(func() { delete(c.sets, seq) })
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
		c.n.Do(func() { delete(c.sets, seq) })
		return ctx.Err()
	}
}

// Stop implements Accessor.
func (c *Classical) Stop() {
	c.n.Do(func() {
		c.stopped = true
		for seq, pg := range c.gets {
			close(pg.done)
			delete(c.gets, seq)
		}
		for seq, ps := range c.sets {
			close(ps.done)
			delete(c.sets, seq)
		}
	})
}

// Metrics returns operation counters.
func (c *Classical) Metrics() Metrics {
	return Metrics{
		Gets: atomic.LoadInt64(&c.metrics.Gets),
		Sets: atomic.LoadInt64(&c.metrics.Sets),
	}
}

// onGetReq handles GET_REQ (Figure 2, lines 8-9).
func (c *Classical) onGetReq(from failure.Proc, m wire.Message) {
	var seq wire.Int
	if wire.Decode(m, &seq) != nil {
		return
	}
	c.n.Send(from, c.topicGetResp, wire.SeqData{Seq: int64(seq), Data: c.sm.Snapshot()})
}

// onGetResp accumulates GET_RESP (Figure 2, line 6).
func (c *Classical) onGetResp(from failure.Proc, m wire.Message) {
	var resp wire.SeqData
	if wire.Decode(m, &resp) != nil {
		return
	}
	pg, ok := c.gets[resp.Seq]
	if !ok {
		return
	}
	pg.states[from] = resp.Data
	responders := graph.NewBitSet(c.n.ClusterSize())
	for p := range pg.states {
		responders.Add(int(p))
	}
	ri := quorumContaining(c.reads, responders)
	if ri < 0 {
		return
	}
	var states [][]byte
	c.reads[ri].ForEach(func(p int) {
		states = append(states, pg.states[failure.Proc(p)])
	})
	delete(c.gets, resp.Seq)
	pg.done <- states //lint:allow handlerblock done is buffered cap 1 and the pending entry was just deleted, so this is the only send ever
}

// onSetReq handles SET_REQ (Figure 2, lines 14-16).
func (c *Classical) onSetReq(from failure.Proc, m wire.Message) {
	var req wire.SeqData
	if wire.Decode(m, &req) != nil {
		return
	}
	if err := c.sm.Apply(req.Data); err != nil {
		return
	}
	c.n.Send(from, c.topicSetResp, wire.Int(req.Seq))
}

// onSetResp accumulates SET_RESP (Figure 2, line 13).
func (c *Classical) onSetResp(from failure.Proc, m wire.Message) {
	var seq wire.Int
	if wire.Decode(m, &seq) != nil {
		return
	}
	ps, ok := c.sets[int64(seq)]
	if !ok {
		return
	}
	ps.acks.Add(int(from))
	if quorumContaining(c.writes, ps.acks) < 0 {
		return
	}
	delete(c.sets, int64(seq))
	ps.done <- struct{}{} //lint:allow handlerblock done is buffered cap 1 and the pending entry was just deleted, so this is the only send ever
}
