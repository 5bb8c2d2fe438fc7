package smr

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/failure"
	"repro/internal/wire"
)

// Checkpointed log compaction, the only way a log runs. The slot space is
// a sliding window: logical slot numbers are unbounded and never reused,
// while the consensus engine runs only [base, base+window). Each process
// checkpoints its derived state every Interval decided slots and announces
// the checkpoint frontier; the window extends past every announced frontier
// (so proposals never run out of slots), and the prefix below the LOWEST
// frontier announced by all processes is truncated — its slots retired in
// the engine, its memory freed. A peer that stops announcing is timed out
// (AckTimeout): truncation proceeds without it, and when the peer reappears
// still running slots below the live base, it is healed with a
// snapshot-install — the latest checkpoint plus the decided suffix — since
// the truncated decisions that would have caught it up are gone.
//
// Safety: a process only proposes into slots beyond its original window
// after a window extension, and extensions are driven by checkpoint
// announcements, so any process that contributed the enabling announcement
// runs those slots already. A process that missed the announcements
// (crashed, partitioned away) simply cannot participate in the new slots
// until it heals; the install hands it the whole gated prefix at once,
// which is exactly the invariant the Sync barrier and the lease freshness
// argument rest on — an installed checkpoint covers every slot an append
// completion was gated on. Under purely unidirectional connectivity a
// process that cannot receive checkpoint announcements keeps its current
// window (the paper's run-from-startup argument holds within it) and heals
// by install once connectivity returns.

// DefaultAckTimeout bounds how long truncation waits for a lagging peer's
// checkpoint announcement before treating it as failed.
const DefaultAckTimeout = 2 * time.Second

// CompactionOptions tunes checkpointed log compaction. Every log compacts;
// the zero value takes the defaults. All processes of one log must agree
// on Interval.
type CompactionOptions struct {
	// Interval is the checkpoint cadence in slots: a process checkpoints
	// whenever its decided prefix has grown by Interval slots since its last
	// checkpoint. Zero takes DefaultInterval of the slot window; a value
	// above the window is capped at it, since only a checkpoint extends the
	// window and one that never fires would stall the log.
	Interval int64
	// AckTimeout bounds how long truncation waits for every peer's
	// checkpoint announcement. Peers still short of a frontier when the
	// timeout fires are treated as failed — the prefix is truncated anyway
	// and they heal via snapshot-install. Defaults to DefaultAckTimeout.
	AckTimeout time.Duration
}

// DefaultInterval is the checkpoint cadence of a log whose window is slots
// wide: a quarter of the window keeps several checkpoints' headroom ahead
// of truncation, floored at 16 so tiny windows do not checkpoint on every
// other decision, and capped at the window itself so a checkpoint always
// fires — and extends the window — before the window can fill.
func DefaultInterval(slots int) int64 {
	return int64(min(max(slots/4, 16), slots))
}

func (o CompactionOptions) withDefaults(slots int) CompactionOptions {
	if o.Interval <= 0 {
		o.Interval = DefaultInterval(slots)
	}
	o.Interval = min(o.Interval, int64(slots))
	if o.AckTimeout <= 0 {
		o.AckTimeout = DefaultAckTimeout
	}
	return o
}

// Snapshotter serializes and restores the derived state a layer above the
// log maintains through OnCommit. Both methods run on the node's event
// loop. Snapshot is called only when a snapshot-install is sent to a
// lagging peer, with frontier equal to the log's applied frontier at that
// moment, so the state it sees is exactly the decided prefix
// [0, frontier); a checkpoint records and announces its frontier without
// serializing anything. Restore runs when a snapshot-install replaces this
// process's state. NewKV installs the KV's own snapshotter; a plain Log
// without one ships installs that carry no state.
type Snapshotter interface {
	Snapshot(frontier int64) (string, error)
	Restore(state string, frontier int64) error
}

// CompactionMetrics counts compaction activity at one log endpoint.
type CompactionMetrics struct {
	// Checkpoints is the number of checkpoints this process produced.
	Checkpoints uint64
	// Truncations is the number of truncations that freed at least one slot.
	Truncations uint64
	// SlotsFreed is the total number of slots truncated and recycled.
	SlotsFreed uint64
	// InstallsSent and InstallsReceived count snapshot-install state
	// transfers to and from lagging peers.
	InstallsSent     uint64
	InstallsReceived uint64
	// PeakOccupancy is the high-water mark of live window usage: the widest
	// span from the live base to the highest locally used slot. Bounded
	// occupancy under sustained writes is the observable proof that
	// truncation keeps up.
	PeakOccupancy int64
}

// CompactionMetrics returns this endpoint's compaction counters. Safe from
// any goroutine.
func (l *Log) CompactionMetrics() CompactionMetrics {
	return CompactionMetrics{
		Checkpoints:      l.ckptCount.Load(),
		Truncations:      l.truncCount.Load(),
		SlotsFreed:       l.slotsFreed.Load(),
		InstallsSent:     l.installsSent.Load(),
		InstallsReceived: l.installsRecv.Load(),
		PeakOccupancy:    l.peakOcc.Load(),
	}
}

// CompactionMetrics returns the underlying log's compaction counters.
func (kv *KV) CompactionMetrics() CompactionMetrics { return kv.log.CompactionMetrics() }

// Wire bodies: a checkpoint announcement is a wire.Int holding the
// process's checkpoint frontier — every slot below it is folded into its
// applied state. It doubles as the truncation ack: the prefix below the
// lowest announced frontier is retired everywhere. A snapshot-install is a
// wire.Snap: the sender's serialized applied state at its frontier, its
// table of applied sub-batches at the same frontier (so the receiver skips
// the same duplicates), plus its decided suffix at and above it.

// extendWindow grows the live window until it ends at to and resumes
// claims parked on the old end. The new slots are virgin: this view's 1Bs
// cover them already with their open tail, exactly like startup. Runs on
// the node loop.
func (l *Log) extendWindow(to int64) {
	if to <= l.eng.End() {
		return
	}
	l.eng.Extend(to)
	l.pump() // claims parked on the old end
}

// noteOccupancy records the live window usage high-water mark. Runs on the
// node loop.
func (l *Log) noteOccupancy() {
	hi := l.eng.Used()
	if l.batch.next > hi {
		hi = l.batch.next
	}
	if l.next > hi {
		hi = l.next
	}
	occ := hi - l.base
	for {
		cur := l.peakOcc.Load()
		if occ <= cur || l.peakOcc.CompareAndSwap(cur, occ) {
			return
		}
	}
}

// checkpoint records the current decided prefix as this process's
// checkpoint frontier, announces it, extends the proposal window past it,
// and arms the ack-timeout fallback. No state is serialized here: the
// applied state always covers the frontier (it only moves forward), and
// sendInstall serializes it on demand. Runs on the node loop.
func (l *Log) checkpoint() {
	f := l.next
	if f <= l.lastCkpt {
		return
	}
	l.lastCkpt = f
	l.ckptCount.Add(1)
	if f > l.ackFrontier[l.n.ID()] {
		l.ackFrontier[l.n.ID()] = f
	}
	l.n.Broadcast(l.topicCkpt, wire.Int(f))
	l.extendWindow(f + l.window)
	l.maybeTruncate()
	l.scheduleAckTimeout(f)
}

// onCkpt records a peer's checkpoint announcement, extends the window past
// the announced frontier, and truncates whatever prefix every process has
// now retired. Runs on the node loop.
func (l *Log) onCkpt(from failure.Proc, m wire.Message) {
	var c wire.Int
	if wire.Decode(m, &c) != nil || l.stopped || c <= 0 {
		return
	}
	f := int64(c)
	if f > l.ackFrontier[from] {
		l.ackFrontier[from] = f
	}
	l.extendWindow(f + l.window)
	l.maybeTruncate()
}

// maybeTruncate truncates the prefix below the lowest checkpoint frontier
// announced by ALL processes (peers never heard from hold it at zero — the
// ack-timeout is what retires the prefix past them). Runs on the node loop.
func (l *Log) maybeTruncate() {
	t := l.lastCkpt
	for p := 0; p < l.n.ClusterSize(); p++ {
		if f := l.ackFrontier[failure.Proc(p)]; f < t {
			t = f
		}
	}
	l.truncateTo(t)
}

// scheduleAckTimeout arms the lag bound for the checkpoint at f: if peers
// are still short of f when the timeout fires, the prefix below f is
// truncated anyway — a dead replica cannot hold the window hostage, and a
// merely slow one heals via snapshot-install. Runs on the node loop.
func (l *Log) scheduleAckTimeout(f int64) {
	pending := false
	for p := 0; p < l.n.ClusterSize(); p++ {
		if l.ackFrontier[failure.Proc(p)] < f {
			pending = true
			break
		}
	}
	if !pending {
		return
	}
	l.clock.AfterFunc(l.compact.AckTimeout, func() {
		l.n.Do(func() {
			if l.stopped {
				return
			}
			l.truncateTo(f) // no-op when acks already retired past f
		})
	})
}

// truncateTo frees slots below t: retires them in the engine, fails their
// waiters, and advances the live base. t never exceeds this process's own
// checkpoint frontier or decided prefix, so everything freed is already
// folded into the applied state. Runs on the node loop.
func (l *Log) truncateTo(t int64) {
	if t > l.lastCkpt {
		t = l.lastCkpt
	}
	if t > l.next {
		t = l.next // never truncate an undecided slot
	}
	if t <= l.base {
		return
	}
	n := t - l.base
	l.eng.Truncate(t)
	for s := l.base; s < t; s++ {
		delete(l.skipped, s)
		for _, ch := range l.waiters[s] {
			close(ch) // a Get parked on a truncated slot fails
		}
		delete(l.waiters, s)
	}
	l.base = t
	l.truncCount.Add(1)
	l.slotsFreed.Add(uint64(n))
}

// sendInstall ships the live applied state at this process's applied
// frontier next, plus the decided suffix at and above it, to a peer still
// running slots below the live base. The state covers exactly [0, next),
// and next is at or above lastCkpt, so the install covers every slot this
// process has truncated. Throttled to one install per peer per view — a
// lagging peer re-announces its stale ranges every view until the install
// lands. A snapshotter that refuses (a corrupt KV) donates no install.
// Runs on the node loop.
func (l *Log) sendInstall(to failure.Proc, view int64) {
	if l.lastCkpt <= 0 || l.installView[to] >= view {
		return
	}
	var state string
	if l.snapshotter != nil {
		s, err := l.snapshotter.Snapshot(l.next)
		if err != nil {
			return
		}
		state = s
	}
	l.installView[to] = view
	var decs wire.Decs
	for s := l.next; s < l.eng.Used(); s++ {
		if v, ok := l.eng.Decision(s); ok {
			decs = append(decs, wire.Decision{Slot: s, Val: v})
		}
	}
	l.n.Send(to, l.topicSnap, wire.Snap{Frontier: l.next, State: state, Decs: decs, Applied: l.appliedSubs})
	l.installsSent.Add(1)
}

// onSnap adopts a snapshot-install: restore the installed state and the
// table of applied sub-batches, jump the decided prefix to its frontier,
// adopt the frontier as our own checkpoint (announcing it unblocks peers'
// truncation), truncate our own retired prefix, and learn the decided
// suffix. Append completions gated on the
// skipped prefix are released — the installed state covers every slot
// they were gated on — and this process's sub-batches applied inside it
// complete at the positions the table recorded. Runs on the node loop.
func (l *Log) onSnap(from failure.Proc, m wire.Message) {
	var s wire.Snap
	if wire.Decode(m, &s) != nil || l.stopped {
		return
	}
	if s.Frontier > l.next {
		if l.snapshotter != nil {
			if err := l.snapshotter.Restore(s.State, s.Frontier); err != nil {
				return // stay behind; the next view retries the install
			}
		}
		l.extendWindow(s.Frontier + l.window)
		l.next = s.Frontier
		l.adoptApplied(s.Applied)
		l.lastCkpt = s.Frontier
		if s.Frontier > l.ackFrontier[l.n.ID()] {
			l.ackFrontier[l.n.ID()] = s.Frontier
		}
		l.truncateTo(s.Frontier)
		l.installsRecv.Add(1)
		l.n.Broadcast(l.topicCkpt, wire.Int(s.Frontier))
		// Fold any decided slots now contiguous with the installed frontier
		// and release the prefix waiters the jump covered.
		l.foldPrefix()
		l.noteOccupancy()
	}
	// The decided suffix rides along regardless: slots still running here
	// adopt their decisions without re-announcing. Each adopted value is
	// copied out of the install, which also carries the whole serialized
	// state: a learned slot must not keep that alive until it is truncated.
	for _, d := range s.Decs {
		l.extendWindow(d.Slot + 1)
		l.eng.Learn(d.Slot, strings.Clone(d.Val))
	}
}

// adoptApplied replaces the table of applied sub-batches with an installed
// one and queues the completion of this process's sub-batches it covers:
// they were applied in slots the install skipped, at the positions the
// table's Last recorded (see originSeqs for why they are there). Runs on
// the node loop; the fold that follows completes them.
func (l *Log) adoptApplied(t map[uint64]*originSeqs) {
	if t == nil {
		t = make(map[uint64]*originSeqs)
	}
	l.appliedSubs = t
	b := l.batch
	for k := range b.queued {
		if l.isApplied(k) {
			delete(b.queued, k)
		}
	}
	o := t[uint64(l.n.ID())]
	if o == nil {
		return
	}
	for seq, sb := range b.out {
		if !hasSeq(o, seq) {
			continue
		}
		i := slices.IndexFunc(o.Last, func(p seqPos) bool { return p.Seq == seq })
		if i < 0 {
			delete(b.out, seq)
			finish(sb.ops, AppendResult{Err: fmt.Errorf("sub-batch %d applied below the installed frontier at an unrecorded slot: %w", seq, ErrCompacted)})
			continue
		}
		p := o.Last[i]
		l.firstApplied = append(l.firstApplied, ownDone{seq: seq, slot: p.Slot, index: p.Index})
	}
}
