// Package smr implements state machine replication on top of the paper's
// generalized-quorum-system consensus: a replicated log in which each slot
// is one Figure-6 consensus decision, all of them run by one engine. It is
// the standard application layer above single-shot consensus and
// demonstrates that the paper's weak-connectivity bound carries to full
// replicated services: commands submitted at U_f members commit despite
// asymmetric channel failures.
//
// Every process runs every slot of the window from startup, without
// creating anything per slot. This is not an implementation convenience but
// a requirement of the paper's model: under a pattern like Figure 1's f1, a
// read-quorum member (process c) may have NO incoming connectivity at all,
// so it can never learn that a slot is in use — it can only take part in
// protocols it runs spontaneously. The paper's algorithms assume every
// correct process runs the algorithm from startup. The log's consensus
// engine (internal/consensus) meets that per slot with its view-entry 1B:
// every slot in which a process has seen nothing is virgin, its 1B is the
// default one (no accepted value, no proposal), and each view's 1B sends it
// for the whole virgin tail as the open run [first virgin slot, ∞), which
// also covers slots the sliding window creates mid-view. A virgin slot's
// state is created on its first proposal, message or decision, straight in
// the current view, so it can never accept a 2A from a view below one its
// default 1B answered for; an idle window costs neither memory nor
// per-view work. Apart from sharing the view's 1B, each slot runs Figure 6
// on its own — its 2A and 2B to all, its decision to the peers, its late
// messages answered as in the single-shot protocol — so the paper's safety
// argument holds slot by slot. The window slides (compact.go): checkpoints retire the
// decided prefix and extend the window past it, so the log has no lifetime
// write budget.
//
// Every append goes through group commit (Options.Batch tunes it): commands
// are cut into sub-batches numbered (origin, seq), every process forwards
// its sub-batches to the leader of its current view, and the leader — the
// only process that claims slots — packs them into one value per slot,
// with up to a configurable number of slots in flight (see batch.go). Every decided value is therefore a batch
// value; SlotCommands expands it. A sub-batch re-sent after a view change
// may commit twice; the later copy is skipped at apply, identically at every
// replica, so commands need not be unique. Consensus value semantics are
// untouched — a batch is one value — so the paper's safety argument carries
// over unchanged. Leader leases (internal/lease) serve leased local reads
// off the applied state. Checkpointed compaction (compact.go; tuned by
// Options.Compaction) is how every log runs: each process periodically
// announces a checkpoint frontier, the slot window slides forward once
// every live peer has announced a covering checkpoint (a lagging or dead
// peer is timed out and later healed by a snapshot-install carrying the
// donor's applied state plus decided suffix), and freed slots are recycled.
// Slots below the live base are gone: Get reports them as ErrCompacted.
package smr

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/viewsync"
	"repro/internal/wire"
)

// ErrStopped is returned after the log has been stopped.
var ErrStopped = errors.New("replicated log stopped")

// ErrCompacted is returned for slots below the live window: their decisions
// were folded into a checkpoint and truncated.
var ErrCompacted = errors.New("slot compacted (folded into a checkpoint)")

// DefaultSlots is the default slot-window size. A slot carries a whole
// group commit (up to BatchOptions.MaxOps commands), and the window slides
// as checkpoints retire the decided prefix, so it bounds the slots in use
// at once, not the log's lifetime. Unused slots hold no state and share one
// default-1B run per process per view (see the package comment), so
// capacity costs neither memory nor steady-state traffic.
const DefaultSlots = 128

// Options configures a log endpoint.
type Options struct {
	// Name scopes wire topics. Defaults to "smr".
	Name string
	// Slots is the slot-window size (number of live consensus slots; the
	// window slides, see Compaction). Defaults to DefaultSlots. All
	// processes of one log must agree on it.
	Slots int
	// Reads and Writes are the GQS quorum families.
	Reads, Writes []graph.BitSet
	// ViewC is the consensus view-duration constant: view v lasts v*ViewC.
	ViewC time.Duration
	// Batch tunes group commit and pipelined appends, the one append path.
	// The zero value takes the defaults (see BatchOptions).
	Batch BatchOptions
	// OnCommit, when set, runs on the node loop for every slot the decided
	// prefix advances over — in slot order, exactly once per slot, with the
	// slot's applied value: the decided group-commit batch value (expand
	// with SlotCommands), less any sub-batch already applied in an earlier
	// slot. Layers keeping derived state over the log (the KV's applied
	// map) fold slots in here instead of replaying the prefix per read. It
	// fires before the slot's prefix waiters are released, so an append
	// completion observes every OnCommit effect up to its slot. A
	// snapshot-install replaces the skipped slots' OnCommit calls with one
	// Snapshotter Restore.
	OnCommit func(slot int64, v string)
	// Compaction tunes checkpointed log compaction, which every log runs:
	// the slot window slides forward as checkpoints retire the decided
	// prefix (see compact.go). The zero value takes the defaults (see
	// CompactionOptions). All processes of one log must agree on it.
	Compaction CompactionOptions
	// Snapshotter serializes and restores the derived state OnCommit folds,
	// for snapshot-installs (checkpoints serialize nothing). Owned by the
	// KV's apply loop under NewKV and must be left unset there; a plain Log
	// without one sends installs that carry no state.
	Snapshotter Snapshotter
}

// Log is one process's endpoint of the replicated command log.
type Log struct {
	n *node.Node
	// eng decides the log's slots: one consensus engine for the whole
	// window, driven by the log's view synchronizer.
	eng  *consensus.Engine
	sync *viewsync.Synchronizer

	// window is the configured window size, immutable after New.
	window int64

	topicCkpt string
	topicSnap string
	topicFwd  string

	// batch is the group-commit append buffer.
	batch *batcher

	// compact is Options.Compaction with defaults applied. snapshotter may
	// be nil (see Options.Snapshotter).
	compact     CompactionOptions
	snapshotter Snapshotter

	// Compaction counters (CompactionMetrics); atomics, read from any
	// goroutine.
	ckptCount    atomic.Uint64
	truncCount   atomic.Uint64
	slotsFreed   atomic.Uint64
	installsSent atomic.Uint64
	installsRecv atomic.Uint64
	peakOcc      atomic.Int64

	// onCommit is Options.OnCommit (may be nil). Invoked on the node loop
	// as the decided prefix advances.
	onCommit func(slot int64, v string)

	// gate, when installed (SetGate), is consulted by every append
	// completion after the local decided prefix covers the appended slot:
	// the append does not return until the gate does. The lease manager
	// uses it to hold write completions until the leaseholder has applied
	// the write, the invariant leased local reads rest on.
	gate atomic.Pointer[func(slot int64)]

	// Loop-confined state. Decided values live in the engine until their
	// slots are truncated.
	next    int64 // lowest slot this process has not observed decided
	waiters map[int64][]chan string
	// prefixWaiters holds WaitPrefix calls gated on the decided prefix
	// covering their slot: key k fires when next exceeds k.
	prefixWaiters map[int64][]chan struct{}
	// view is the current view as driven by the synchronizer.
	view int64
	// appliedSubs is the table of applied sub-batches, keyed by origin (see
	// originSeqs); skipped holds the applied value of each live slot that
	// carried an already-applied sub-batch; firstApplied collects this
	// process's sub-batches applied during one fold, completed at its end.
	appliedSubs  map[uint64]*originSeqs
	skipped      map[int64]string
	firstApplied []ownDone
	// Compaction state, loop-confined: base is the lowest live slot,
	// lastCkpt the frontier of this process's latest checkpoint,
	// ackFrontier the highest checkpoint frontier each process (self
	// included) has announced, and installView the last view a
	// snapshot-install was sent to each peer (throttle).
	base        int64
	lastCkpt    int64
	ackFrontier map[failure.Proc]int64
	installView map[failure.Proc]int64
	stopped     bool
}

// New installs a replicated log endpoint on the node: one consensus engine
// for the whole slot window and one view synchronizer driving it.
//
// A slot's per-view 1B is gated on slot activity: slots with a local
// proposal or an accepted value list their own, the rest of the window is
// covered by default-1B runs, all in one message per process per view, and
// decided slots are silent (the decision was announced; stragglers asking
// about the slot get it as a reply).
func New(n *node.Node, opts Options) *Log {
	if opts.Name == "" {
		opts.Name = "smr"
	}
	if opts.Slots <= 0 {
		opts.Slots = DefaultSlots
	}
	if opts.ViewC <= 0 {
		opts.ViewC = 25 * time.Millisecond
	}
	l := &Log{
		n:             n,
		window:        int64(opts.Slots),
		onCommit:      opts.OnCommit,
		compact:       opts.Compaction.withDefaults(opts.Slots),
		snapshotter:   opts.Snapshotter,
		waiters:       make(map[int64][]chan string),
		prefixWaiters: make(map[int64][]chan struct{}),
		appliedSubs:   make(map[uint64]*originSeqs),
		skipped:       make(map[int64]string),
		ackFrontier:   make(map[failure.Proc]int64),
		installView:   make(map[failure.Proc]int64),
		topicCkpt:     opts.Name + "/ckpt",
		topicSnap:     opts.Name + "/snap",
		topicFwd:      opts.Name + "/fwd",
	}
	l.batch = newBatcher(l, opts.Batch)
	l.eng = consensus.NewEngine(n, consensus.EngineOptions{
		Name: opts.Name, Reads: opts.Reads, Writes: opts.Writes, Slots: l.window,
		OnDecide: l.recordDecision,
		// A peer still runs slots truncated here: heal it with a
		// snapshot-install, since their decisions are gone.
		OnBehind: l.sendInstall,
	})
	n.Handle(l.topicFwd, l.onFwd)
	n.Handle(l.topicCkpt, l.onCkpt)
	n.Handle(l.topicSnap, l.onSnap)
	l.sync = viewsync.New(opts.ViewC, func(v viewsync.View) {
		// Hop onto the event loop; the synchronizer runs its own goroutine.
		n.Do(func() { l.stepView(int64(v)) })
	})
	l.sync.Start()
	return l
}

// stepView enters view v at every slot (the engine sends this process's 1B
// for it), then re-routes the group-commit state for the new leader. Runs
// on the node loop.
func (l *Log) stepView(v int64) {
	if l.stopped {
		return
	}
	l.view = v
	l.eng.EnterView(v)
	l.enterViewBatch(v)
}

// Capacity returns the configured slot-window size: the number of slots
// live at once, not a lifetime budget — the window slides forward as
// checkpoints retire the decided prefix.
func (l *Log) Capacity() int { return int(l.window) }

// recordDecision folds a slot the engine just decided and wakes its
// waiters. Runs on the loop.
func (l *Log) recordDecision(slot int64, v string) {
	if slot < l.base {
		return // below the live window: already covered by a checkpoint
	}
	l.foldPrefix()
	for _, ch := range l.waiters[slot] {
		ch <- v
	}
	delete(l.waiters, slot)
	if l.next >= l.lastCkpt+l.compact.Interval {
		l.checkpoint()
	}
	l.noteOccupancy()
}

// foldPrefix advances next over contiguous decided slots, skipping
// sub-batches already applied (applyBatch) and folding the rest into
// derived state, then releases the prefix waiters now covered and completes
// this process's sub-batches applied for the first time. The fold runs
// BEFORE anything is released: an append completion gated on the prefix
// must observe every commit effect up to its slot. Runs on the loop.
func (l *Log) foldPrefix() {
	for {
		v, ok := l.eng.Decision(l.next)
		if !ok {
			break
		}
		v = l.applyBatch(l.next, v)
		if l.onCommit != nil {
			l.onCommit(l.next, v)
		}
		l.next++
	}
	for k, ws := range l.prefixWaiters {
		if k < l.next {
			for _, ch := range ws {
				close(ch)
			}
			delete(l.prefixWaiters, k)
		}
	}
	for _, d := range l.firstApplied {
		l.completeOwn(d)
	}
	clear(l.firstApplied)
	l.firstApplied = l.firstApplied[:0]
}

// SetGate installs (or, with nil, removes) the append-completion gate:
// after an append's local decided prefix covers its slot, the gate runs
// with the slot and the append returns only when the gate does. At most
// one gate is supported; the lease manager installs one to hold write
// completions until the leaseholder has applied the written slot (see
// internal/lease for the protocol and why this keeps leased local reads
// linearizable). The gate must not call back into the log's node loop
// synchronously — it runs on append completion goroutines.
func (l *Log) SetGate(gate func(slot int64)) {
	if gate == nil {
		l.gate.Store(nil)
		return
	}
	l.gate.Store(&gate)
}

// runGate consults the installed append gate, if any.
func (l *Log) runGate(slot int64) {
	if g := l.gate.Load(); g != nil {
		(*g)(slot)
	}
}

// WaitPrefix blocks until this process's decided prefix covers slot
// (DecidedPrefix would include it), the context is done, or the log stops.
// It is the exported form of the completion invariant's wait: the lease
// manager's holder side answers "have you applied slot s yet?" with it.
func (l *Log) WaitPrefix(ctx context.Context, slot int64) error {
	ch := make(chan struct{})
	wait, stopped := false, false
	if err := l.n.CallCtx(ctx, func() {
		if l.stopped {
			stopped = true
			return
		}
		if l.next > slot {
			return
		}
		wait = true
		l.prefixWaiters[slot] = append(l.prefixWaiters[slot], ch)
	}); err != nil {
		// The registration may still run later; recordDecision or Stop
		// closes the abandoned channel, which no one observes.
		return err
	}
	if stopped {
		return ErrStopped
	}
	if !wait {
		return nil
	}
	select {
	case <-ch:
		// Both a prefix advance and Stop close the channel; only the
		// former satisfies the wait.
		covered := false
		if err := l.n.CallCtx(ctx, func() { covered = l.next > slot }); err != nil {
			return err
		}
		if !covered {
			return ErrStopped
		}
		return nil
	case <-ctx.Done():
		// The registered waiter stays behind; recordDecision or Stop
		// closes its channel eventually, which no one observes.
		return ctx.Err()
	}
}

// Append commits cmd to the log and returns the slot where it was first
// applied. The command coalesces into a group commit, so the slot may be
// shared with other commands (AppendAsync also reports the index within
// it). Commands need not be unique: each append is its own sub-batch.
//
// Canceling ctx abandons the wait. A command still buffered (never cut
// into a sub-batch) is withdrawn and cannot commit, so a caller may safely
// retry it; a command already cut may still commit afterwards, and a retry
// is a new sub-batch that would commit it twice.
func (l *Log) Append(ctx context.Context, cmd string) (int64, error) {
	if err := checkCmd(cmd); err != nil {
		return 0, err
	}
	ch := l.batch.enqueue(cmd)
	select {
	case res := <-ch:
		return res.Slot, res.Err
	case <-ctx.Done():
		l.batch.remove(ch)
		return 0, ctx.Err()
	}
}

// checkCmd validates a command for Append: any non-empty bytes (batch
// values length-prefix their commands, so no byte is reserved).
func checkCmd(cmd string) error {
	if cmd == "" {
		return errors.New("empty command")
	}
	return nil
}

// AppendAsync submits cmd and returns a channel that receives its
// completion: the slot where the command was first applied, its index in
// SlotCommands of that slot, and any error. The channel is buffered;
// abandoning it leaks nothing. ctx is read once, at the call: when it is
// already done the command is not submitted at all — the channel holds
// ctx.Err() and the command can never commit, so a retry is safe. A cancel
// after the call does NOT withdraw the command: the async surface trades
// cancellation for a zero-overhead completion channel (no per-op
// goroutine), so a submitted command will be proposed and may commit even
// if the caller stops listening; a caller that needs withdraw-on-cancel
// for safe retries uses the synchronous Append.
func (l *Log) AppendAsync(ctx context.Context, cmd string) <-chan AppendResult {
	err := ctx.Err()
	if err == nil {
		err = checkCmd(cmd)
	}
	if err != nil {
		done := make(chan AppendResult, 1)
		done <- AppendResult{Err: err}
		return done
	}
	return l.batch.enqueue(cmd)
}

// Get returns the decision of a slot, blocking until it is decided at this
// process. The decision is a group-commit batch value carrying one or more
// commands; SlotCommands expands it (DecidedPrefix already flattens the
// whole prefix back into the per-command sequence). A sub-batch in the
// value that an earlier slot already applied is skipped at apply: it
// appears here but changes no state. Only the live window answers: a slot
// below its base was folded into a checkpoint and truncated (ErrCompacted),
// and a Get still waiting when its slot is truncated fails with ErrStopped.
func (l *Log) Get(ctx context.Context, slot int64) (string, error) {
	if slot < 0 {
		return "", fmt.Errorf("slot %d out of range", slot)
	}
	ch := make(chan string, 1)
	registered := false
	var rangeErr error
	if err := l.n.CallCtx(ctx, func() {
		if l.stopped {
			return
		}
		registered = true
		switch end := l.eng.End(); {
		case slot < l.base:
			rangeErr = fmt.Errorf("slot %d: %w", slot, ErrCompacted)
			return
		case slot >= end:
			rangeErr = fmt.Errorf("slot %d out of range [%d,%d)", slot, l.base, end)
			return
		}
		if v, ok := l.eng.Decision(slot); ok {
			ch <- v
			return
		}
		l.waiters[slot] = append(l.waiters[slot], ch)
	}); err != nil {
		// The registration may still run later; its buffered channel (or a
		// Stop close) absorbs the abandoned completion.
		return "", err
	}
	if !registered {
		return "", ErrStopped
	}
	if rangeErr != nil {
		return "", rangeErr
	}
	select {
	case v, ok := <-ch:
		if !ok {
			// Stop released the waiter — or the slot was truncated out from
			// under it (its value lives on only inside a checkpoint).
			return "", ErrStopped
		}
		return v, nil
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// DecidedPrefix returns the applied commands of slots [base, k) where k is
// the first undecided slot at this process and base is the live window's
// start (the truncated prefix below base lives on only inside checkpoints,
// so two processes may report different starts), flattening group-commit
// batches back into their ordered per-command sequence (one decided slot
// may contribute several commands) and leaving out the sub-batches skipped
// at apply as already applied. The context bounds the wait for the event
// loop (a loaded loop services the request only after the work ahead of
// it); it returns ErrStopped after the log's node has stopped.
func (l *Log) DecidedPrefix(ctx context.Context) ([]string, error) {
	var base int64
	ch := make(chan []string, 1)
	err := l.n.CallCtx(ctx, func() {
		base = l.base
		var out []string
		for s := l.base; ; s++ {
			v, ok := l.eng.Decision(s)
			if !ok {
				break
			}
			if f, ok := l.skipped[s]; ok {
				v = f
			}
			out = append(out, v)
		}
		ch <- out
	})
	if err != nil {
		if errors.Is(err, node.ErrStopped) {
			return nil, ErrStopped
		}
		return nil, err
	}
	raw := <-ch
	out := make([]string, 0, len(raw))
	for i, v := range raw {
		cmds, err := SlotCommands(v)
		if err != nil {
			return nil, fmt.Errorf("corrupt batch in slot %d: %w", base+int64(i), err)
		}
		out = append(out, cmds...)
	}
	return out, nil
}

// SlotCommands expands a decided slot value — a group-commit batch value —
// into the commands of all its sub-batches in order (AppendResult.Index is
// the position within this slice). It is the public decoder for values
// read back through Get. A later copy of an already-applied sub-batch is
// listed here like any other but was skipped at apply.
func SlotCommands(v string) ([]string, error) {
	subs, err := wire.DecodeBatch(v)
	switch {
	case err != nil:
		return nil, err
	case len(subs) == 1:
		return subs[0].Cmds, nil
	}
	n := 0
	for _, s := range subs {
		n += len(s.Cmds)
	}
	cmds := make([]string, 0, n)
	for _, s := range subs {
		cmds = append(cmds, s.Cmds...)
	}
	return cmds, nil
}

// Stop drains the append buffer (buffered commands get a bounded commit
// attempt — the close-time flush of group commit; whatever is still
// unapplied then fails with ErrStopped), then terminates the view
// synchronizer and the consensus engine, and releases blocked calls.
func (l *Log) Stop() {
	l.batch.drainAndClose(5 * time.Second)
	l.sync.Stop()
	ran := false
	l.n.Call(func() {
		ran = true
		l.failOut(ErrStopped)
		l.stopped = true
		for slot, ws := range l.waiters {
			for _, ch := range ws {
				close(ch)
			}
			delete(l.waiters, slot)
		}
		for slot, ws := range l.prefixWaiters {
			for _, ch := range ws {
				close(ch)
			}
			delete(l.prefixWaiters, slot)
		}
	})
	if !ran {
		l.failOut(ErrStopped) // the node stopped first; its loop has exited
	}
	l.eng.Stop()
}
