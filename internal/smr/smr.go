// Package smr implements state machine replication on top of the paper's
// generalized-quorum-system consensus: a replicated log in which each slot
// is decided by one Figure-6 consensus instance. It is the standard
// application layer above single-shot consensus and demonstrates that the
// paper's weak-connectivity bound carries to full replicated services:
// commands submitted at U_f members commit despite asymmetric channel
// failures.
//
// Slot instances are created for the whole slot window upfront, at every
// process, when the log endpoint starts. This is not an implementation
// convenience but a requirement of the paper's model: under
// a pattern like Figure 1's f1, a read-quorum member (process c) may have
// NO incoming connectivity at all, so it can never learn about lazily
// created protocol instances — it can only participate in protocols it
// starts spontaneously. The paper's algorithms assume every correct process
// runs the algorithm from startup; the pre-created window realizes exactly
// that per slot. The window slides (compact.go): checkpoints retire the
// decided prefix and extend the window past it, so the log has no lifetime
// write budget.
//
// Idle slots answer each view with one batched default 1B per process, and
// the virgin tail is sent as the open range [frontier+1, ∞), so it also
// covers slots the sliding window creates mid-view. This is safe: a default
// 1B (aview 0, no value) is exactly what an instance that has accepted
// nothing would answer, and every slot above the sender's frontier is in
// that state, created yet or not. A slot activated later is moved straight
// into the current view (onSlotActive) before it handles anything, so it
// can never accept a 2A from a view below one it has answered for.
//
// Every append goes through group commit (Options.Batch tunes it): commands
// are cut into sub-batches numbered (origin, seq), every process forwards
// its sub-batches to the leader of its current view, and the leader — the
// only process that claims slots — packs them into one value per slot that
// a single consensus instance decides, with up to a configurable number of
// slots in flight (see batch.go). Every decided value is therefore a batch
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
	"math"
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
// at once, not the log's lifetime — each slot is a pre-created consensus
// instance at every process (see the package comment). Idle slots batch
// their view participation into one message per process per view, so
// capacity costs memory, not steady-state traffic.
const DefaultSlots = 128

// Options configures a log endpoint.
type Options struct {
	// Name scopes wire topics. Defaults to "smr".
	Name string
	// Slots is the slot-window size (number of live consensus instances;
	// the window slides, see Compaction). Defaults to DefaultSlots. All
	// processes of one log must agree on it.
	Slots int
	// Reads and Writes are the GQS quorum families.
	Reads, Writes []graph.BitSet
	// ViewC is the per-slot consensus view-duration constant.
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

// smrIdle1B batches the default 1B messages of every idle slot at one
// process for one view entry into a single message to the view's leader.
// Ranges are [lo, hi) slot intervals; idle slots are overwhelmingly the
// contiguous unused tail of the log, so the encoding is a handful of bytes
// regardless of capacity.
type smrIdle1B struct {
	View   int64      `json:"view"`
	Ranges [][2]int64 `json:"ranges"`
}

// smrDecEntry carries one decided slot's value to a process still running
// the slot (partition heal, late catch-up).
type smrDecEntry struct {
	Slot int64  `json:"s"`
	Val  string `json:"v"`
}

// Log is one process's endpoint of the replicated command log.
type Log struct {
	n *node.Node
	// slots holds the live window's consensus instances: slots[i] is
	// logical slot base+i. Extension appends and truncation drops from the
	// front. Loop-confined, New included (Stop reads it only after the loop
	// has observed stopped).
	slots []*consensus.Consensus
	sync  *viewsync.Synchronizer

	// Immutable after New: consensus parameters for window extension's
	// instance creation, and the configured window size.
	name   string
	reads  []graph.BitSet
	writes []graph.BitSet
	viewC  time.Duration
	window int64

	topicIdle1B string
	topicDecs   string
	topicCkpt   string
	topicSnap   string
	topicFwd    string

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

	// Loop-confined state.
	decided map[int64]string
	next    int64 // lowest slot this process has not observed decided
	waiters map[int64][]chan string
	// prefixWaiters holds WaitPrefix calls gated on the decided prefix
	// covering their slot: key k fires when next exceeds k.
	prefixWaiters map[int64][]chan struct{}
	// view is the current view as driven by the shared synchronizer.
	view int64
	// frontier is the highest slot with any local activity (-1 when none):
	// a local proposal, a direct protocol message, or a decision. Slots
	// beyond it are virgin consensus instances whose per-view contribution
	// is exactly the default 1B, so stepView covers them with one range in
	// O(1) instead of stepping each instance — idle log capacity costs no
	// per-view work at all.
	frontier int64
	// idle1Bs holds the latest batched default-1B ranges per peer. Ranges
	// covering slots beyond the frontier are not materialized into the
	// per-slot instances eagerly (that would be O(capacity) per view, per
	// peer); they are replayed on demand the moment a covered slot first
	// activates (see onSlotActive).
	idle1Bs map[failure.Proc]smrIdle1B
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

// New installs a replicated log endpoint on the node, starting one consensus
// instance per slot (see the package comment for why instances must exist
// from startup at every process).
//
// All slots share one view synchronizer, and a slot's per-view 1B message is
// gated on slot activity: slots with a local proposal or an accepted value
// send their own 1B, idle slots are batched into a single default-1B message
// per view for the whole log, and decided slots are silent (the decision was
// announced; stragglers asking about the slot get it as a reply). The seed
// emitted one message per slot per view entry — 128 by default — even on a
// completely idle log.
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
		name:          opts.Name,
		reads:         opts.Reads,
		writes:        opts.Writes,
		viewC:         opts.ViewC,
		window:        int64(opts.Slots),
		onCommit:      opts.OnCommit,
		compact:       opts.Compaction.withDefaults(opts.Slots),
		snapshotter:   opts.Snapshotter,
		decided:       make(map[int64]string),
		waiters:       make(map[int64][]chan string),
		prefixWaiters: make(map[int64][]chan struct{}),
		frontier:      -1,
		idle1Bs:       make(map[failure.Proc]smrIdle1B),
		appliedSubs:   make(map[uint64]*originSeqs),
		skipped:       make(map[int64]string),
		ackFrontier:   make(map[failure.Proc]int64),
		installView:   make(map[failure.Proc]int64),
		topicIdle1B:   opts.Name + "/idle1b",
		topicDecs:     opts.Name + "/decs",
		topicCkpt:     opts.Name + "/ckpt",
		topicSnap:     opts.Name + "/snap",
		topicFwd:      opts.Name + "/fwd",
	}
	l.batch = newBatcher(l, opts.Batch)
	// Each instance registers its topics as it is created, and a peer that
	// is already running can reach slot s's handlers — which read l.slots
	// on the loop — while later slots are still being appended. Creating
	// the window on the loop orders every such handler after it.
	n.Call(func() { //lint:allow ctxflow one construction-time loop hop, before the log takes traffic; Call aborts when the node stops
		for s := 0; s < opts.Slots; s++ {
			l.slots = append(l.slots, l.makeSlot(int64(s)))
		}
	})
	n.Handle(l.topicIdle1B, l.onIdle1B)
	n.Handle(l.topicDecs, l.onDecs)
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

// stepView enters view v at every active slot (the prefix up to the
// frontier), batching the default 1Bs of idle slots — stepped ones with
// nothing to say, plus the whole virgin tail as the open range
// [frontier+1, ∞) — into one message to the view's leader, then re-routes
// the group-commit state for the new leader. Runs on the node loop.
func (l *Log) stepView(v int64) {
	if l.stopped {
		return
	}
	l.view = v
	var ranges [][2]int64
	addIdle := func(lo, hi int64) {
		if k := len(ranges); k > 0 && ranges[k-1][1] == lo {
			ranges[k-1][1] = hi
		} else {
			ranges = append(ranges, [2]int64{lo, hi})
		}
	}
	scan := l.frontier // activation during the scan must not extend it
	for s := l.base; s <= scan; s++ {
		if l.slotAt(s).StepView(v) {
			addIdle(s, s+1)
		}
	}
	// The tail is open-ended: slots the sliding window creates later in
	// this view are virgin too, and their default 1B is this one (see the
	// package comment).
	addIdle(scan+1, math.MaxInt64)
	l.n.Send(l.leaderOf(v), l.topicIdle1B, smrIdle1B{View: v, Ranges: ranges})
	l.enterViewBatch(v)
}

// onIdle1B records a peer's batched default 1Bs (leader side). Slots this
// process already knows decided are answered with their decisions — that is
// how a healed or late process learns the log's history from one message
// per view. Defaults for slots active here are materialized into their
// instances immediately; the rest of the ranges stay in idle1Bs and replay
// on demand when a covered slot activates (onSlotActive), so the cost per
// view is O(active slots), not O(capacity). Runs on the node loop.
func (l *Log) onIdle1B(from failure.Proc, m wire.Message) {
	var b smrIdle1B
	if wire.Decode(m, &b) != nil || l.stopped {
		return
	}
	// Keep the newest view's ranges per peer: same-view messages merge (a
	// multi-part message must not clobber the ranges already stored, which
	// later slot activations replay to assemble quorums), an older view's
	// reordered straggler never regresses the entry, and a newer view
	// replaces outright. Only the INCOMING ranges are materialized below;
	// re-walking the merged set would replay every earlier range per
	// message.
	incoming := b.Ranges
	if prev, ok := l.idle1Bs[from]; ok {
		switch {
		case prev.View == b.View:
			merged := make([][2]int64, 0, len(prev.Ranges)+len(b.Ranges))
			merged = append(merged, prev.Ranges...)
			merged = append(merged, b.Ranges...)
			b.Ranges = merged
			l.idle1Bs[from] = b
		case prev.View < b.View:
			l.idle1Bs[from] = b
		}
	} else {
		l.idle1Bs[from] = b
	}
	var decs []smrDecEntry
	behind := false
	for _, r := range incoming {
		lo, hi := r[0], r[1]
		if lo < l.base {
			behind = true // slots below the live base: truncated here
			lo = l.base
		}
		if hi > l.frontier+1 {
			hi = l.frontier + 1 // virgin tail: materialized on activation
		}
		for s := lo; s < hi; s++ {
			if v, ok := l.decided[s]; ok {
				decs = append(decs, smrDecEntry{Slot: s, Val: v})
			} else if inst := l.slotAt(s); inst != nil {
				inst.Default1B(from, b.View)
			}
		}
	}
	if behind {
		// The peer is still running slots whose decided values were
		// truncated here, so the O(history) decs catch-up below cannot
		// cover them — heal it with a snapshot-install instead.
		l.sendInstall(from, b.View)
	}
	if len(decs) > 0 {
		l.n.Send(from, l.topicDecs, decs)
	}
}

// onSlotActive runs when a slot's instance first leaves its virgin state
// (consensus.Options.OnActive), before the triggering event is processed:
// it extends the frontier, fast-forwards the instance into the current view
// (its default 1B for this view was already claimed by stepView's range),
// and replays the stored idle ranges of every peer that cover the slot so
// the instance sees the same 1B set it would have under eager delivery.
// Runs on the node loop.
func (l *Log) onSlotActive(slot int64) {
	if l.stopped {
		return
	}
	inst := l.slotAt(slot)
	if inst == nil {
		return // truncated while the activation was in flight
	}
	if slot > l.frontier {
		l.frontier = slot
	}
	if l.view > 0 {
		// Fast-forward a virgin instance into the current view. Its default
		// 1B for this view needs no fresh send: stepView's open tail range
		// [frontier+1, ∞) already covered every then-virgin slot at view
		// entry, created or not, and an instance activated by a local
		// proposal sends its own Mine-carrying 1B from StepView.
		inst.StepView(l.view)
	}
	for from, b := range l.idle1Bs {
		for _, r := range b.Ranges {
			if slot >= r[0] && slot < r[1] {
				if v, ok := l.decided[slot]; ok {
					l.n.Send(from, l.topicDecs, []smrDecEntry{{Slot: slot, Val: v}})
				} else {
					inst.Default1B(from, b.View)
				}
				break
			}
		}
	}
}

// onDecs adopts decided values for slots this process is still running.
// Runs on the node loop.
func (l *Log) onDecs(from failure.Proc, m wire.Message) {
	var decs []smrDecEntry
	if wire.Decode(m, &decs) != nil || l.stopped {
		return
	}
	for _, d := range decs {
		if d.Slot < l.base {
			continue // already folded into a checkpoint here
		}
		if d.Slot >= l.base+int64(len(l.slots)) {
			// Evidence of decisions beyond our window: a peer extended on a
			// checkpoint announcement we missed. Creating instances is
			// always safe; extend to adopt the decision.
			l.extendWindow(d.Slot + 1)
		}
		if inst := l.slotAt(d.Slot); inst != nil {
			inst.Learn(d.Val)
		}
	}
}

// Capacity returns the configured slot-window size: the number of slots
// live at once, not a lifetime budget — the window slides forward as
// checkpoints retire the decided prefix.
func (l *Log) Capacity() int { return int(l.window) }

// recordDecision stores a decision and wakes waiters. Runs on the loop.
func (l *Log) recordDecision(slot int64, v string) {
	if slot < l.base {
		return // below the live window: already covered by a checkpoint
	}
	if _, ok := l.decided[slot]; ok {
		return
	}
	if slot > l.frontier {
		l.frontier = slot
	}
	l.decided[slot] = v
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
		v, ok := l.decided[l.next]
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
		switch end := l.base + int64(len(l.slots)); {
		case slot < l.base:
			rangeErr = fmt.Errorf("slot %d: %w", slot, ErrCompacted)
			return
		case slot >= end:
			rangeErr = fmt.Errorf("slot %d out of range [%d,%d)", slot, l.base, end)
			return
		}
		if v, ok := l.decided[slot]; ok {
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
		for s := l.base; s < l.base+int64(len(l.slots)); s++ {
			v, ok := l.decided[s]
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
// unapplied then fails with ErrStopped), then terminates the shared view
// synchronizer and every slot instance, and releases blocked calls.
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
	for _, c := range l.slots {
		c.Stop()
	}
}
