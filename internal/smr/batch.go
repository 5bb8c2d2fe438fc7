package smr

import (
	"cmp"
	"slices"
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
// gives each command its own slot. Every step runs on the node loop: an
// append hands its command to the loop's buffer, and the loop cuts
// sub-batches while the process has fewer than Pipeline of them unapplied,
// so cut boundaries depend only on the order of the loop's events.
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
	// when the log is otherwise quiet: a batch forming while no flush is
	// under way is cut when the window expires (or a cap fills it first).
	// Under sustained load the window is a ceiling, not a floor — while
	// sub-batches are being cut, arrivals are cut as soon as the pipeline
	// has room, so light-load appends never wait longer than the window.
	// The leader bounds its own gathering the same way: with claims in
	// flight, queued sub-batches wait at most one window for company before
	// a new slot is claimed (see pump). Zero skips both waits.
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

// batcher is the group-commit state of one log endpoint. All of it is
// confined to the node loop, like the rest of the log's state.
//
// The origin side: pending is the append buffer, the commands handed to the
// loop and not yet cut, and bytes their size. flushing is set by a flush
// trigger (a cap, the window, the cut event of a log without a window, Stop)
// and holds while the buffer is non-empty; while it holds, a sub-batch is
// cut whenever fewer than Pipeline of this process's sub-batches are
// unapplied. out holds those sub-batches by seq, and seq is the last cut's.
// drained, set by Stop, is closed once the buffer and out are both empty.
//
// The leader side: queue holds the sub-batches waiting here for a slot
// claim, and queued the key of every sub-batch queued or inside a claimed
// value here, so a re-sent copy is not packed twice. ripe is set once the
// queue's oldest entry has waited out the window. next is the next slot
// this process claims while it leads, claims the number of its claimed
// slots not yet decided, and claimed counts claims ever made.
type batcher struct {
	opts BatchOptions

	pending  []pendingOp
	bytes    int
	flushing bool
	window   loopTimer
	seq      uint64
	out      map[uint64]*subBatch
	drained  chan struct{}

	queue      []queuedSub
	queued     map[subKey]struct{}
	ripe       bool
	ripeWindow loopTimer
	next       int64
	claims     int
	claimed    uint64
}

func newBatcher(opts BatchOptions) *batcher {
	return &batcher{
		opts:   opts.withDefaults(),
		out:    make(map[uint64]*subBatch),
		queued: make(map[subKey]struct{}),
	}
}

// loopTimer is one group-commit window. Its expiry runs on the node loop,
// and disarming it (or arming it anew) voids an expiry that is already on
// its way there. Loop-confined.
type loopTimer struct {
	t   clock.Timer // nil while disarmed
	gen uint64
}

// arm starts the window w; fn runs on the node loop when it expires. Runs on
// the node loop.
func (l *Log) arm(w *loopTimer, fn func()) {
	w.gen++
	gen := w.gen
	w.t = l.clock.AfterFunc(l.batch.opts.Window, func() {
		l.n.Do(func() {
			if gen == w.gen {
				w.t = nil
				fn()
			}
		})
	})
}

// disarm cancels the window w if it is armed.
func (w *loopTimer) disarm() {
	if w.t != nil {
		w.t.Stop()
		w.t = nil
		w.gen++
	}
}

// enqueue hands cmd to the node loop's append buffer and returns its
// completion channel. After Stop, or once the node has stopped, it fails at
// once.
func (l *Log) enqueue(cmd string) chan AppendResult {
	done := make(chan AppendResult, 1)
	op := pendingOp{cmd: cmd, done: done}
	if l.closed.Load() || !l.n.Do(func() { l.buffer(op) }) {
		done <- AppendResult{Err: ErrStopped}
	}
	return done
}

// buffer adds one command to the append buffer and sees that the buffer
// gets flushed: at once when a cap fills or the log is stopping, after the
// window, or, with no window, by a cut event of its own, queued behind the
// commands already in the mailbox so that a burst coalesces. Runs on the
// node loop.
func (l *Log) buffer(op pendingOp) {
	b := l.batch
	if l.stopped {
		op.done <- AppendResult{Err: ErrStopped}
		return
	}
	b.pending = append(b.pending, op)
	b.bytes += len(op.cmd)
	switch {
	case b.flushing:
		// The next cut, due once the pipeline has room, takes it.
	case len(b.pending) >= b.opts.MaxOps || b.bytes >= b.opts.MaxBytes || l.closed.Load():
		l.flush()
	case len(b.pending) > 1:
		// The buffer's flush is already scheduled.
	case b.opts.Window > 0:
		l.arm(&b.window, l.flush)
	default:
		l.n.Do(l.flush)
	}
}

// withdraw drops a still-buffered command, named by its completion channel,
// so that an Append abandoned by its context cannot commit later. A command
// already cut keeps the "may still commit" semantics of a proposal. Runs on
// the node loop.
func (l *Log) withdraw(done chan AppendResult) {
	b := l.batch
	i := slices.IndexFunc(b.pending, func(op pendingOp) bool { return op.done == done })
	if i < 0 {
		return
	}
	b.bytes -= len(b.pending[i].cmd)
	b.pending = slices.Delete(b.pending, i, i+1)
	if len(b.pending) == 0 {
		b.window.disarm() // the batch it timed is gone
	}
	l.cut()
}

// flush starts cutting the append buffer. Runs on the node loop.
func (l *Log) flush() {
	b := l.batch
	b.window.disarm()
	b.flushing = len(b.pending) > 0
	l.cut()
}

// cut cuts cap-sized sub-batches off the buffer while it is flushing and
// fewer than Pipeline of this process's sub-batches are unapplied, and
// routes each towards the leader. While the pipeline is full, arrivals
// accumulate into the next cut. Seqs are numbered in cut order, so when seq
// s is cut every seq up to s-Pipeline has been applied here, which bounds
// the applied-seq table (see originSeqs). Runs on the node loop.
func (l *Log) cut() {
	b := l.batch
	for b.flushing && len(b.pending) > 0 && len(b.out) < b.opts.Pipeline && !l.stopped {
		// The byte cap bounds the cut too, not just the flush trigger:
		// arrivals accumulating behind a full pipeline must not fuse into
		// one oversized consensus value. Matching the buffer's trigger, the
		// command that crosses the cap stays in the cut, so a single
		// over-limit command still ships (alone).
		n, bytes := 0, 0
		for n < len(b.pending) && n < b.opts.MaxOps && bytes < b.opts.MaxBytes {
			bytes += len(b.pending[n].cmd)
			n++
		}
		ops := slices.Clone(b.pending[:n])
		cmds := make([]string, n)
		for i, op := range ops {
			cmds[i] = op.cmd
		}
		rest := copy(b.pending, b.pending[n:])
		clear(b.pending[rest:]) // release channel references
		b.pending = b.pending[:rest]
		b.bytes -= bytes
		b.seq++
		sb := &subBatch{seq: b.seq, ops: ops, val: wire.EncodeBatch(wire.SubBatch{
			Origin: uint64(l.n.ID()), Seq: b.seq, Cmds: cmds,
		})}
		b.out[sb.seq] = sb
		l.route([]queuedSub{{key: subKey{uint64(l.n.ID()), sb.seq}, n: n, val: sb.val, view: l.view}})
	}
	if len(b.pending) == 0 {
		b.flushing = false
		if b.drained != nil && len(b.out) == 0 {
			close(b.drained)
			b.drained = nil
		}
	}
}

// finish completes ops — res.Index is the first op's index. Each op is
// finished exactly once, by whoever removed it from the buffer or out.
func finish(ops []pendingOp, res AppendResult) {
	for i, op := range ops {
		r := res
		if r.Err == nil {
			r.Index += i
		}
		op.done <- r
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
		if len(b.queue) == 0 {
			b.ripe = false
			b.ripeWindow.disarm()
		}
	}()
	for !l.stopped && l.leads(l.view) && b.claims < b.opts.Pipeline && len(b.queue) > 0 {
		if !b.ripe && b.claims > 0 && !l.queueFills() {
			if b.ripeWindow.t == nil {
				l.arm(&b.ripeWindow, func() { b.ripe = true; l.pump() })
			}
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

// failAppends fails every buffered command and every sub-batch of this
// process not yet applied. Runs on the node loop, or after it has exited.
func (l *Log) failAppends(err error) {
	b := l.batch
	for seq, sb := range b.out {
		delete(b.out, seq)
		finish(sb.ops, AppendResult{Err: err})
	}
	finish(b.pending, AppendResult{Err: err})
	b.pending, b.bytes, b.flushing = nil, 0, false
	b.window.disarm()
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
// before the results are sent, off the loop when one is installed. The
// sub-batch leaves out, and so frees its pipeline place, before the gate
// runs. Runs on the node loop.
func (l *Log) completeOwn(d ownDone) {
	b := l.batch
	sb := b.out[d.seq]
	if sb == nil {
		return
	}
	delete(b.out, d.seq)
	res := AppendResult{Slot: d.slot, Index: d.index}
	if l.gate.Load() == nil {
		finish(sb.ops, res)
		return
	}
	go func() {
		l.runGate(d.slot)
		finish(sb.ops, res)
	}()
}

// originSeqs is one origin's entry in the table of applied sub-batches
// (Log.appliedSubs): every seq up to Low is applied, and so is each seq in
// Above. Last records where the origin's latest applied sub-batches landed,
// oldest first, so a process restored by snapshot-install can complete the
// appends the install covers.
//
// Seqs are numbered in cut order, and the origin cuts only while fewer than
// Pipeline of its sub-batches are unapplied, so when seq s is applied, every
// seq up to s-Pipeline was applied before it (the origin applied those
// before cutting s, and s cannot land in a slot that was already decided
// then). Above therefore holds fewer than Pipeline seqs,
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
