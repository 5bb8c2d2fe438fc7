package smr

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/failure"
	"repro/internal/viewsync"
	"repro/internal/wire"
)

// Group commit with a single proposer per view, the log's only append path.
// Commands arriving while a cut is forming (or until a count/byte cap) are
// cut into a sub-batch, and the view's leader packs the sub-batches of
// every process into one slot value that a single consensus decision
// covers, amortizing the round trip over every command in it. MaxOps 1
// gives each command its own slot.
//
// Figure 6's consensus is leader-driven, so only the leader of this
// process's current view claims log slots. A non-leader sends each cut to
// viewsync.Leader(view) as a sub-batch (origin, seq, commands): origin is
// its process id and seq numbers its cuts. A forward that reaches a process
// which does not lead its view goes on to the leader of that process's view
// (or waits there, if it was sent for a view the receiver leads but has not
// entered yet). The leader packs queued sub-batches, its own and forwarded
// ones, into one value up to MaxOps/MaxBytes and keeps up to Pipeline
// claimed slots in flight; the sub-batches queue behind them, so the
// outstanding rounds are the group-commit window (self-clocked group
// commit).
//
// Nothing is retried slot by slot. A forward lost with a failed leader is
// re-sent: at each view entry every process re-sends the sub-batches it has
// not yet applied to the new leader, and a leader whose claimed slot decides
// another value re-queues the lost sub-batches while it leads, or sends them
// on to the current leader. Re-sending can commit one sub-batch in two
// slots. The later copy is skipped at apply, identically at every replica:
// the log keeps, per origin, the highest contiguous applied seq plus the
// applied seqs above it (originSeqs), at most n × Pipeline entries above the
// watermarks, and the table travels with snapshot-installs.
//
// An operation completes at the process that accepted it, when that process
// first applies its sub-batch: AppendResult names that slot and the
// command's position in SlotCommands of it. The fold that applies the slot
// has already advanced the local decided prefix past it, which is the
// invariant the KV Sync barrier depends on: when Append returns, every slot
// up to and including the command's is decided at this process, so a later
// barrier can only commit to a higher slot and a barrier-then-read observes
// every previously completed write. The append gate (SetGate) runs after
// that, before the result is sent.
//
// Consensus itself is untouched: a batch is one value like any other, and
// Figure 6 lets any process propose any value, so the safety argument
// (accepted-value precedence, quorum intersection) is exactly the paper's.
// This file only restricts who proposes and what a value contains.

// BatchOptions tunes group commit, the one append path of the log. Each
// zero field takes its default: MaxOps DefaultBatchMaxOps, MaxBytes
// DefaultBatchMaxBytes, Pipeline DefaultPipeline and no Window (cut as soon
// as the pipeline has room). All processes of one log must agree on it.
type BatchOptions struct {
	// Window bounds how long the first buffered command waits for company
	// when the log is otherwise quiet: a batch forming while no drain is
	// active flushes when the window expires (or a cap fills it first).
	// Under sustained load the window is a ceiling, not a floor — while
	// sub-batches are being cut, arrivals flush as soon as the pipeline has
	// room, so light-load appends never wait longer than the window. The
	// leader bounds its own gathering the same way: with claims in flight,
	// queued sub-batches wait at most one window for company before a new
	// slot is claimed (see pump). Zero skips both waits.
	Window time.Duration
	// MaxOps caps the commands per cut and per slot value; a full buffer
	// flushes immediately. Defaults to DefaultBatchMaxOps; 1 puts each
	// command in its own slot.
	MaxOps int
	// MaxBytes flushes early once the buffered commands' combined size
	// reaches it, and bounds the value the leader packs into one slot.
	// Defaults to DefaultBatchMaxBytes.
	MaxBytes int
	// Pipeline bounds both the slots the leader has claimed but not seen
	// decided and each process's sub-batches that are not yet applied.
	// Defaults to DefaultPipeline.
	Pipeline int
	// Clock supplies the window timer and the close-time drain bound.
	// Defaults to the real clock; tests inject clock.NewFake to drive
	// window expiry deterministically.
	Clock clock.Clock
}

// Group-commit defaults.
const (
	DefaultBatchMaxOps   = 64
	DefaultBatchMaxBytes = 256 << 10
	DefaultPipeline      = 4
)

func (o BatchOptions) withDefaults() BatchOptions {
	if o.MaxOps <= 0 {
		o.MaxOps = DefaultBatchMaxOps
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultBatchMaxBytes
	}
	if o.Pipeline <= 0 {
		o.Pipeline = DefaultPipeline
	}
	o.Clock = clock.Or(o.Clock)
	return o
}

// AppendResult is the completion of an asynchronous append: the slot where
// the command was first applied, the command's index in SlotCommands of
// that slot's value, and the error if the append failed.
type AppendResult struct {
	Slot  int64
	Index int
	Err   error
}

// pendingOp is one buffered command and its completion channel.
type pendingOp struct {
	cmd  string
	done chan AppendResult
}

// subBatch is one cut of this process's commands, from the cut until its
// first apply.
type subBatch struct {
	seq uint64
	ops []pendingOp
	val string // the cut as a batch value holding this one sub-batch
}

// subKey identifies a sub-batch cluster-wide.
type subKey struct{ origin, seq uint64 }

// queuedSub is a sub-batch waiting at a leader for a slot claim.
type queuedSub struct {
	key  subKey
	n    int    // commands
	val  string // a batch value holding this one sub-batch
	view int64  // the view it was sent for
}

// batcher is the append buffer of one log endpoint. Enqueues come from
// client goroutines (not the node loop); a drainer goroutine cuts
// sub-batches and hands them to the loop, bounded by the in-flight
// semaphore.
type batcher struct {
	l    *Log
	opts BatchOptions

	mu           sync.Mutex
	pending      []pendingOp
	pendingBytes int
	timer        clock.Timer // window timer; nil when no batch is forming
	// timerGen invalidates stale window timers: a fired timer blocked on mu
	// while the buffer drained and re-formed must not clobber the fresh
	// batch's timer or flush it early. Every arm/disarm bumps the
	// generation; onWindow acts only when its generation is still current.
	timerGen uint64
	draining bool
	closed   bool
	seq      uint64 // the last cut's seq; only the (single) drainer touches it

	inflight chan struct{} // semaphore: this process's unapplied sub-batches
	wg       sync.WaitGroup

	// Loop-confined. out holds this process's sub-batches not yet applied,
	// by seq. queue holds the sub-batches waiting here for a slot claim,
	// and queued the key of every sub-batch queued or inside a claimed
	// value here, so a re-sent copy is not packed twice. ripe is set once
	// the queue's oldest entry has waited out the window (ripeGen guards
	// the window timer like timerGen, ripeArmed marks it pending). next is
	// the next slot this process claims while it leads, claims the number
	// of its claimed slots not yet decided, and claimed counts claims ever
	// made.
	out       map[uint64]*subBatch
	queue     []queuedSub
	queued    map[subKey]struct{}
	ripe      bool
	ripeArmed bool
	ripeGen   uint64
	next      int64
	claims    int
	claimed   uint64
}

func newBatcher(l *Log, opts BatchOptions) *batcher {
	opts = opts.withDefaults()
	return &batcher{
		l:        l,
		opts:     opts,
		inflight: make(chan struct{}, opts.Pipeline),
		out:      make(map[uint64]*subBatch),
		queued:   make(map[subKey]struct{}),
	}
}

// enqueue buffers cmd and returns its completion channel. Flush triggers:
// the count cap, the byte cap, the window timer armed when the buffer goes
// non-empty, and close-time drain.
func (b *batcher) enqueue(cmd string) chan AppendResult {
	done := make(chan AppendResult, 1)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		done <- AppendResult{Err: ErrStopped}
		return done
	}
	wasEmpty := len(b.pending) == 0
	b.pending = append(b.pending, pendingOp{cmd: cmd, done: done})
	b.pendingBytes += len(cmd)
	switch {
	case len(b.pending) >= b.opts.MaxOps || b.pendingBytes >= b.opts.MaxBytes:
		b.startDrainLocked()
	case wasEmpty && b.opts.Window > 0:
		b.timerGen++
		gen := b.timerGen
		b.timer = b.opts.Clock.AfterFunc(b.opts.Window, func() { b.onWindow(gen) })
	case wasEmpty:
		// No window: flush as soon as the drainer gets an in-flight slot.
		b.startDrainLocked()
	}
	b.mu.Unlock()
	return done
}

// remove drops a still-buffered op (identified by its completion channel)
// from the pending buffer, reporting whether it was removed before any
// proposal. A caller abandoning a canceled Append uses it to guarantee the
// command cannot commit later — only ops already cut into a sub-batch keep
// the "may still commit" semantics of an in-flight proposal.
func (b *batcher) remove(done chan AppendResult) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, op := range b.pending {
		if op.done == done {
			b.pending = append(b.pending[:i], b.pending[i+1:]...)
			b.pendingBytes -= len(op.cmd)
			if len(b.pending) == 0 && b.timer != nil {
				// The batch the timer was armed for is gone; release the
				// timer now rather than leaving it parked for up to a full
				// window (the generation guard already prevents a misfire).
				b.timer.Stop()
				b.timer = nil
				b.timerGen++
			}
			return true
		}
	}
	return false
}

// onWindow fires when the oldest buffered command has waited out the
// window. gen guards against stale timers (see timerGen).
func (b *batcher) onWindow(gen uint64) {
	b.mu.Lock()
	if gen != b.timerGen {
		b.mu.Unlock()
		return // a newer batch armed its own timer; not ours to flush
	}
	b.timer = nil
	b.timerGen++
	if len(b.pending) > 0 && !b.closed {
		b.startDrainLocked()
	}
	b.mu.Unlock()
}

// startDrainLocked ensures a drainer goroutine is running. Callers hold mu.
func (b *batcher) startDrainLocked() {
	if b.draining {
		return
	}
	b.draining = true
	b.wg.Add(1)
	go b.drain()
}

// drain cuts cap-sized sub-batches off the buffer and hands each to the
// node loop (submit), blocking on the in-flight semaphore for backpressure:
// while Pipeline sub-batches are unapplied, arrivals keep accumulating into
// the next cut.
func (b *batcher) drain() {
	defer b.wg.Done()
	for {
		b.mu.Lock()
		if len(b.pending) == 0 {
			if b.timer != nil {
				b.timer.Stop()
				b.timer = nil
				b.timerGen++
			}
			b.draining = false
			b.mu.Unlock()
			return
		}
		n := len(b.pending)
		if n > b.opts.MaxOps {
			n = b.opts.MaxOps
		}
		// The byte cap bounds the cut too, not just the flush trigger:
		// arrivals accumulating behind a full pipeline must not fuse into
		// one oversized consensus value. Matching the enqueue trigger, the
		// command that crosses the cap stays in the cut, so a single
		// over-limit command still ships (alone).
		cut, bytes := 0, 0
		for cut < n {
			bytes += len(b.pending[cut].cmd)
			cut++
			if bytes >= b.opts.MaxBytes {
				break
			}
		}
		n = cut
		ops := make([]pendingOp, n)
		copy(ops, b.pending)
		rest := copy(b.pending, b.pending[n:])
		for i := rest; i < len(b.pending); i++ {
			b.pending[i] = pendingOp{} // release channel references
		}
		b.pending = b.pending[:rest]
		b.pendingBytes -= bytes // the cut loop summed exactly what left
		b.mu.Unlock()

		// Seqs are numbered in semaphore order: when seq s is cut, every
		// seq up to s-Pipeline has been applied here, which bounds the
		// applied-seq table (see originSeqs).
		b.inflight <- struct{}{}
		b.wg.Add(1)
		b.seq++
		cmds := make([]string, n)
		for i, op := range ops {
			cmds[i] = op.cmd
		}
		sb := &subBatch{seq: b.seq, ops: ops, val: wire.EncodeBatch(wire.SubBatch{
			Origin: uint64(b.l.n.ID()), Seq: b.seq, Cmds: cmds,
		})}
		ran := false
		b.l.n.Call(func() { ran = true; b.l.submit(sb) })
		if !ran {
			// The node stopped: its loop has exited and runs nothing more.
			b.finish(sb, AppendResult{Err: ErrStopped})
		}
	}
}

// finish completes every op of a sub-batch — res.Index is the first
// command's index — and releases its in-flight place. Each sub-batch is
// finished exactly once, by whoever removed it from out (or never put it
// there).
func (b *batcher) finish(sb *subBatch, res AppendResult) {
	for i, op := range sb.ops {
		r := res
		if r.Err == nil {
			r.Index += i
		}
		op.done <- r
	}
	<-b.inflight
	b.wg.Done()
}

// drainAndClose flushes the buffer, waits (bounded) for this process's
// sub-batches to be applied, and rejects subsequent enqueues. Called from
// Log.Stop before the consensus engine stops, so buffered commands get their
// commit attempt; Stop fails whatever is still unapplied.
func (b *batcher) drainAndClose(wait time.Duration) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
		b.timerGen++
	}
	if len(b.pending) > 0 && !b.draining {
		// closed only blocks new enqueues; the drainer still cuts and
		// submits whatever is buffered.
		b.draining = true
		b.wg.Add(1)
		go b.drain()
	}
	b.mu.Unlock()

	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-b.opts.Clock.After(wait):
		// A sub-batch that cannot commit (no quorum) must not wedge Stop,
		// which fails what is left; stopping the engine releases the claims.
	}
}

// leads reports whether this process leads view v (view 0, before the
// first view entry, counts as led by process 0, like viewsync.Leader).
func (l *Log) leads(v int64) bool {
	return viewsync.Leader(viewsync.View(v), l.n.ClusterSize()) == int(l.n.ID())
}

// leaderOf returns the leader of view v.
func (l *Log) leaderOf(v int64) failure.Proc {
	return failure.Proc(viewsync.Leader(viewsync.View(v), l.n.ClusterSize()))
}

// submit takes a fresh cut of this process's commands into out and routes
// it towards the leader. Runs on the node loop.
func (l *Log) submit(sb *subBatch) {
	b := l.batch
	if l.stopped {
		b.finish(sb, AppendResult{Err: ErrStopped})
		return
	}
	b.out[sb.seq] = sb
	l.route([]queuedSub{{key: subKey{uint64(l.n.ID()), sb.seq}, n: len(sb.ops), val: sb.val, view: l.view}})
}

// route queues sub-batches for a claim here when this process leads its
// view, and otherwise sends them to the view's leader in one message. Runs
// on the node loop.
func (l *Log) route(subs []queuedSub) {
	if len(subs) == 0 {
		return
	}
	if l.leads(l.view) {
		for _, q := range subs {
			l.enqueueLead(q)
		}
		l.pump()
		return
	}
	vals := make([]string, len(subs))
	for i, q := range subs {
		vals[i] = q.val
	}
	l.n.Send(l.leaderOf(l.view), l.topicFwd, wire.Fwd{View: l.view, Subs: vals})
}

// enqueueLead queues a sub-batch for a claim here, unless it is already
// queued or claimed here or was applied. Runs on the node loop.
func (l *Log) enqueueLead(q queuedSub) {
	b := l.batch
	if _, dup := b.queued[q.key]; dup || l.isApplied(q.key) {
		return
	}
	b.queued[q.key] = struct{}{}
	b.queue = append(b.queue, q)
}

// onFwd receives forwarded sub-batches. The leader of this process's view
// queues them; so does the leader of a later view the sender had already
// entered (they wait for this process to enter it). Anything else goes on
// to the leader of this process's view. Each hop tags the forward with the
// sender's view and a forward only reaches the leader of its tag, so a
// forward bouncing between processes in different views climbs strictly
// upward and settles. Runs on the node loop.
func (l *Log) onFwd(from failure.Proc, m wire.Message) {
	var f wire.Fwd
	if wire.Decode(m, &f) != nil || l.stopped {
		return
	}
	here := l.leads(l.view) || (f.View > l.view && l.leads(f.View))
	var on []queuedSub
	for _, v := range f.Subs {
		subs, err := wire.DecodeBatch(v)
		if err != nil || len(subs) != 1 {
			continue // a malformed value must never reach a slot
		}
		q := queuedSub{key: subKey{subs[0].Origin, subs[0].Seq}, n: len(subs[0].Cmds), val: v, view: f.View}
		switch {
		case l.isApplied(q.key):
		case here:
			l.enqueueLead(q)
		default:
			on = append(on, q)
		}
	}
	if here {
		l.pump()
	} else {
		l.route(on)
	}
}

// pump claims slots for queued sub-batches while this process leads its
// view and has fewer than Pipeline claims in flight, packing each slot's
// value from the head of the queue up to MaxOps/MaxBytes. The queue
// batches behind the claims in flight (self-clocked group commit): with
// none in flight it is claimed at once; otherwise it gathers company until
// it fills a slot, the claims in flight have all completed, or its oldest
// entry has waited out the window, and from then on it is claimed as fast
// as claims free up until it drains. Claims start at the decided prefix
// and skip slots known decided; a claim that loses its slot re-queues
// (claimDone). A claim past the window's end parks the queue until the
// next checkpoint extends the window (extendWindow pumps again). Runs on
// the node loop.
func (l *Log) pump() {
	b := l.batch
	defer func() {
		if len(b.queue) == 0 && (b.ripe || b.ripeArmed) {
			b.ripe, b.ripeArmed = false, false
			b.ripeGen++
		}
	}()
	for !l.stopped && l.leads(l.view) && b.claims < b.opts.Pipeline && len(b.queue) > 0 {
		if !b.ripe && b.claims > 0 && !l.queueFills() {
			l.armRipe()
			return
		}
		if b.next < l.next {
			b.next = l.next
		}
		if _, ok := l.eng.Decision(b.next); ok {
			b.next++
			continue
		}
		if b.next >= l.eng.End() {
			return
		}
		var (
			take       []queuedSub
			vals       []string
			ops, bytes int
			i          int
		)
		for ; i < len(b.queue); i++ {
			q := b.queue[i]
			if l.isApplied(q.key) {
				delete(b.queued, q.key)
				continue
			}
			size := len(q.val)
			if len(take) > 0 && (ops+q.n > b.opts.MaxOps || bytes+size > b.opts.MaxBytes) {
				break
			}
			take = append(take, q)
			vals = append(vals, q.val)
			ops += q.n
			bytes += size
		}
		rest := copy(b.queue, b.queue[i:])
		clear(b.queue[rest:])
		b.queue = b.queue[:rest]
		if len(take) == 0 {
			continue
		}
		val := wire.JoinBatches(vals)
		l.eng.Submit(b.next, val, func(v string, err error) { l.claimDone(val, v, err, take) })
		b.next++
		b.claims++
		b.claimed++
		l.noteOccupancy()
	}
}

// queueFills reports whether the claim queue holds a full slot's worth of
// commands or bytes, or whether there is no window to wait for. Runs on the
// node loop.
func (l *Log) queueFills() bool {
	b := l.batch
	if b.opts.Window <= 0 {
		return true
	}
	ops, bytes := 0, 0
	for _, q := range b.queue {
		ops += q.n
		bytes += len(q.val)
	}
	return ops >= b.opts.MaxOps || bytes >= b.opts.MaxBytes
}

// armRipe starts the window of a claim queue that just became non-empty.
// Runs on the node loop.
func (l *Log) armRipe() {
	b := l.batch
	if b.ripeArmed {
		return
	}
	b.ripeArmed = true
	b.ripeGen++
	gen := b.ripeGen
	b.opts.Clock.AfterFunc(b.opts.Window, func() {
		l.n.Do(func() {
			if gen != b.ripeGen {
				return // the queue drained meanwhile; not this window
			}
			b.ripe, b.ripeArmed = true, false
			l.pump()
		})
	})
}

// claimDone settles one of this process's claims once its slot decided (or
// the proposal was abandoned at Stop). A won claim's sub-batches stay
// marked queued until the fold applies them; a lost claim's go back to the
// head of the queue while this process leads, and on to the current leader
// otherwise. Runs on the node loop.
func (l *Log) claimDone(val, v string, err error, take []queuedSub) {
	b := l.batch
	b.claims--
	if err == nil && v == val {
		l.pump()
		return
	}
	var lost []queuedSub
	for _, q := range take {
		if err != nil || l.isApplied(q.key) {
			delete(b.queued, q.key) // stopping, or already applied elsewhere
			continue
		}
		lost = append(lost, q)
	}
	if l.stopped {
		return
	}
	if l.leads(l.view) {
		b.queue = append(lost, b.queue...)
		l.pump()
		return
	}
	for _, q := range lost {
		delete(b.queued, q.key)
	}
	l.route(lost)
}

// failOut fails every sub-batch of this process not yet applied. Runs on
// the node loop, or after it has exited.
func (l *Log) failOut(err error) {
	b := l.batch
	for seq, sb := range b.out {
		delete(b.out, seq)
		b.finish(sb, AppendResult{Err: err})
	}
}

// enterViewBatch is the batching part of view entry: a process that does
// not lead v drops the queue (the origins re-send; only forwards already
// addressed to a later view it leads stay), and every process re-sends its
// own unapplied sub-batches towards v's leader. Runs on the node loop.
func (l *Log) enterViewBatch(v int64) {
	b := l.batch
	if !l.leads(v) {
		keep := b.queue[:0]
		for _, q := range b.queue {
			if q.view > v && l.leads(q.view) {
				keep = append(keep, q)
			} else {
				delete(b.queued, q.key)
			}
		}
		clear(b.queue[len(keep):])
		b.queue = keep
	}
	if len(b.out) > 0 {
		self := uint64(l.n.ID())
		subs := make([]queuedSub, 0, len(b.out))
		for seq, sb := range b.out {
			subs = append(subs, queuedSub{key: subKey{self, seq}, n: len(sb.ops), val: sb.val, view: v})
		}
		slices.SortFunc(subs, func(a, c queuedSub) int { return cmp.Compare(a.key.seq, c.key.seq) })
		l.route(subs)
	}
	l.pump()
}

// ownDone is one of this process's sub-batches at its first apply: the
// slot and the index of its first command in SlotCommands of the slot.
type ownDone struct {
	seq   uint64
	slot  int64
	index int
}

// completeOwn completes one of this process's sub-batches at its first
// apply. The decided prefix already covers the slot; the append gate runs
// before the results are sent, off the loop when one is installed. Runs on
// the node loop.
func (l *Log) completeOwn(d ownDone) {
	b := l.batch
	sb := b.out[d.seq]
	if sb == nil {
		return
	}
	delete(b.out, d.seq)
	res := AppendResult{Slot: d.slot, Index: d.index}
	if l.gate.Load() == nil {
		b.finish(sb, res)
		return
	}
	go func() {
		l.runGate(d.slot)
		b.finish(sb, res)
	}()
}

// originSeqs is one origin's entry in the table of applied sub-batches
// (Log.appliedSubs): every seq up to Low is applied, and so is each seq in
// Above. Last records where the origin's latest applied sub-batches landed,
// oldest first, so a process restored by snapshot-install can complete the
// appends the install covers.
//
// Seqs are cut in order of the origin's in-flight semaphore, so when seq s
// is applied, every seq up to s-Pipeline was applied before it (the origin
// applied those before cutting s, and s cannot land in a slot that was
// already decided then). Above therefore holds fewer than Pipeline seqs,
// and the origin's sub-batches an install can cover are among its last
// Pipeline applied — the length Last is kept at.
//
// The table travels in snapshot-installs, so its entry type is the wire's.
type originSeqs = wire.OriginSeqs

// seqPos is where a sub-batch was first applied.
type seqPos = wire.SeqPos

// hasSeq reports whether seq was applied.
func hasSeq(o *originSeqs, seq uint64) bool {
	return seq <= o.Low || slices.Contains(o.Above, seq)
}

// addSeq records seq as applied at pos, keeping the last keep positions.
func addSeq(o *originSeqs, pos seqPos, keep int) {
	if pos.Seq == o.Low+1 {
		o.Low++
		for {
			i := slices.Index(o.Above, o.Low+1)
			if i < 0 {
				break
			}
			o.Above = slices.Delete(o.Above, i, i+1)
			o.Low++
		}
	} else {
		o.Above = append(o.Above, pos.Seq)
	}
	if len(o.Last) >= keep {
		o.Last = slices.Delete(o.Last, 0, len(o.Last)-keep+1)
	}
	o.Last = append(o.Last, pos)
}

// isApplied reports whether a sub-batch was applied here. Runs on the node
// loop.
func (l *Log) isApplied(k subKey) bool {
	o := l.appliedSubs[k.origin]
	return o != nil && hasSeq(o, k.seq)
}

// applyBatch runs the duplicate check over one batch value as the fold
// reaches its slot and returns the value to apply: v itself, or, when some
// sub-batch was already applied in an earlier slot, v without it (also kept
// in skipped, for DecidedPrefix). Every replica folds the same slots in the
// same order from the same table, so each skips the same copies. This
// process's own sub-batches applied for the first time are collected for
// completion. A value that does not decode is applied as it is (the KV
// reports it corrupt). Runs on the node loop.
func (l *Log) applyBatch(slot int64, v string) string {
	subs, err := wire.DecodeBatch(v)
	if err != nil {
		return v
	}
	self := uint64(l.n.ID())
	var fresh []wire.SubBatch // built once a duplicate shows up
	index := 0
	for i, s := range subs {
		k := subKey{s.Origin, s.Seq}
		delete(l.batch.queued, k)
		if l.isApplied(k) {
			if fresh == nil {
				fresh = append(make([]wire.SubBatch, 0, len(subs)), subs[:i]...)
			}
		} else {
			o := l.appliedSubs[s.Origin]
			if o == nil {
				o = &originSeqs{}
				l.appliedSubs[s.Origin] = o
			}
			addSeq(o, seqPos{Seq: s.Seq, Slot: slot, Index: index}, l.batch.opts.Pipeline)
			if s.Origin == self {
				l.firstApplied = append(l.firstApplied, ownDone{seq: s.Seq, slot: slot, index: index})
			}
			if fresh != nil {
				fresh = append(fresh, s)
			}
		}
		index += len(s.Cmds)
	}
	if fresh == nil {
		return v
	}
	f := wire.EncodeBatch(fresh...)
	l.skipped[slot] = f
	return f
}
