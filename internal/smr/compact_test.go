package smr

import (
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/node"
	"repro/internal/quorum"
	"repro/internal/transport"
)

// newCompactCluster builds a 4-process KV cluster with compaction enabled
// (8-slot window, checkpoint every 4 slots, short ack-timeout so laggard
// fallback paths run inside test budgets); mutate adjusts the shared
// options per test.
func newCompactCluster(t *testing.T, mutate func(*Options)) *smrCluster {
	t.Helper()
	qs := quorum.Figure1()
	c := &smrCluster{net: transport.NewMem(4,
		transport.WithDelay(transport.UniformDelay{Min: 10 * time.Microsecond, Max: 300 * time.Microsecond}),
		transport.WithSeed(17))}
	for i := 0; i < 4; i++ {
		nd := node.New(failure.Proc(i), c.net)
		c.nodes = append(c.nodes, nd)
		opts := Options{
			Slots: 8, Reads: qs.Reads, Writes: qs.Writes, ViewC: 15 * time.Millisecond,
			Compaction: CompactionOptions{Interval: 4, AckTimeout: 400 * time.Millisecond},
		}
		if mutate != nil {
			mutate(&opts)
		}
		c.kvs = append(c.kvs, NewKV(nd, opts))
	}
	return c
}

// TestCompactionSustainedWritesOutliveSlotBudget drives 5x the slot budget
// through an 8-slot window: checkpoints must keep truncating so every write
// lands and the window's high-water mark stays bounded.
func TestCompactionSustainedWritesOutliveSlotBudget(t *testing.T) {
	c := newCompactCluster(t, nil)
	defer c.stop()
	ctx := ctxSec(t, 120)

	const writes = 40
	for i := 0; i < writes; i++ {
		if _, err := c.kvs[0].Set(ctx, fmt.Sprintf("k%d", i%4), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	v, ok, err := c.kvs[0].Get(ctx, fmt.Sprintf("k%d", (writes-1)%4))
	if err != nil || !ok || v != fmt.Sprintf("v%d", writes-1) {
		t.Fatalf("read-back = %q/%v/%v", v, ok, err)
	}
	m := c.kvs[0].CompactionMetrics()
	if m.Checkpoints == 0 || m.Truncations == 0 || m.SlotsFreed == 0 {
		t.Fatalf("no compaction under sustained writes: %+v", m)
	}
	// The window plus the truncation lag of a healthy cluster (peers ack
	// within a round trip) must bound occupancy well below the write total.
	if m.PeakOccupancy > 3*8 {
		t.Fatalf("peak occupancy %d not bounded by the window (wrote %d slots)", m.PeakOccupancy, writes)
	}
}

// TestRecycledSlotsProposableMidView: slots a compacting log creates in the
// middle of a long view are covered by the view's open-ended default 1B
// range, so the leader proposes into them within that view. 40 sequential
// writes through an 8-slot window recycle the window several times inside
// view 1; when the range stopped at the window's end as it stood at view
// entry, every write past it waited for the next view (3 s here).
func TestRecycledSlotsProposableMidView(t *testing.T) {
	c := newCompactCluster(t, func(o *Options) { o.ViewC = 3 * time.Second })
	defer c.stop()
	ctx := ctxSec(t, 2)

	start := time.Now()
	for i := 0; i < 40; i++ {
		if _, err := c.kvs[0].Set(ctx, "k", fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("write %d after %v: %v", i, time.Since(start), err)
		}
	}
	if m := c.kvs[0].CompactionMetrics(); m.SlotsFreed == 0 {
		t.Fatalf("the window never recycled a slot: %+v", m)
	}
}

// TestCompactionIntervalAboveWindowCapped: an explicit checkpoint interval
// wider than the slot window is capped at the window. Uncapped, the first
// checkpoint waited for a decided prefix the window could never reach, and
// the ninth one-per-slot write parked until its context expired.
func TestCompactionIntervalAboveWindowCapped(t *testing.T) {
	c := newCompactCluster(t, func(o *Options) {
		o.Batch = BatchOptions{MaxOps: 1}
		o.Compaction.Interval = 64
	})
	defer c.stop()
	ctx := ctxSec(t, 30)
	for i := 0; i < 24; i++ {
		if _, err := c.kvs[0].Set(ctx, "k", fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	if m := c.kvs[0].CompactionMetrics(); m.Truncations == 0 {
		t.Fatalf("no truncation through an 8-slot window: %+v", m)
	}
}

// TestDecidedPrefixNamesLogicalSlot: a corrupt batch is reported by its
// logical slot, not by its offset into the live window, once truncation
// has moved the window's base off zero.
func TestDecidedPrefixNamesLogicalSlot(t *testing.T) {
	c := newCompactCluster(t, nil)
	defer c.stop()
	ctx := ctxSec(t, 60)
	kv, l := c.kvs[0], c.kvs[0].log
	// Corrupt the applied value of the live base slot (DecidedPrefix reads
	// it), once truncation has moved the base and the base slot is decided.
	// A checkpoint ack landing in between may truncate the corrupted slot
	// away; then try again at the new base.
	for i := 0; ; i++ {
		if _, err := kv.Set(ctx, "k", fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		if kv.CompactionMetrics().Truncations == 0 {
			continue
		}
		base, moved := int64(-1), false
		c.nodes[0].Call(func() {
			if l.next > l.base {
				base = l.base
				l.skipped[base] = "not a batch"
			}
		})
		if base < 0 {
			continue
		}
		if base == 0 {
			t.Fatal("truncation left the base at 0")
		}
		_, err := l.DecidedPrefix(ctx)
		if err == nil {
			c.nodes[0].Call(func() { moved = l.base != base })
		}
		if moved && i < 1000 {
			continue
		}
		if want := fmt.Sprintf("corrupt batch in slot %d:", base); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("DecidedPrefix error = %v, want prefix %q", err, want)
		}
		return
	}
}

// TestCompactionWithPipelinedBatches keeps several group commits in flight
// while checkpoints truncate the decided prefix underneath them: an
// in-flight pipelined batch whose claimed slot crosses the truncation
// frontier must either commit normally or wait out a window extension —
// never fail or corrupt the fold.
func TestCompactionWithPipelinedBatches(t *testing.T) {
	c := newCompactCluster(t, func(o *Options) {
		o.Batch = BatchOptions{MaxOps: 4, Window: time.Millisecond, Pipeline: 4}
	})
	defer c.stop()
	ctx := ctxSec(t, 120)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := c.kvs[w%2].Set(ctx, fmt.Sprintf("w%d", w), fmt.Sprintf("v%d", i)); err != nil {
					errs <- fmt.Errorf("writer %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := c.kvs[1].Sync(ctx); err != nil {
		t.Fatalf("sync: %v", err)
	}
	for w := 0; w < 4; w++ {
		v, ok, err := c.kvs[1].Get(ctx, fmt.Sprintf("w%d", w))
		if err != nil || !ok || v != "v29" {
			t.Fatalf("writer %d final read = %q/%v/%v", w, v, ok, err)
		}
	}
	if m := c.kvs[0].CompactionMetrics(); m.Truncations == 0 {
		t.Fatalf("no truncation with batches in flight: %+v", m)
	}
}

// TestCompactionAckTimeoutInstallsLaggard crashes a replica so it stops
// announcing checkpoints: truncation must proceed via the ack-timeout
// instead of blocking on the dead peer, and the healed replica — still
// running slots below the live base — must be caught up by a
// snapshot-install, not a decs replay.
func TestCompactionAckTimeoutInstallsLaggard(t *testing.T) {
	c := newCompactCluster(t, nil)
	defer c.stop()
	ctx := ctxSec(t, 120)

	c.net.Crash(3)
	const writes = 40
	for i := 0; i < writes; i++ {
		if _, err := c.kvs[0].Set(ctx, "key", fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("write %d with p3 down: %v", i, err)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for c.kvs[0].CompactionMetrics().SlotsFreed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ack-timeout never truncated with a dead replica")
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.net.Restart(3)
	for c.kvs[3].CompactionMetrics().InstallsReceived == 0 {
		if time.Now().After(deadline) {
			t.Fatal("healed replica never received a snapshot-install")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := c.kvs[3].Sync(ctx); err != nil {
		t.Fatalf("sync at healed replica: %v", err)
	}
	v, ok, err := c.kvs[3].Get(ctx, "key")
	if err != nil || !ok || v != fmt.Sprintf("v%d", writes-1) {
		t.Fatalf("healed read = %q/%v/%v, want v%d", v, ok, err, writes-1)
	}
}

// TestSnapshotInstallRacesConcurrentAppends heals a crashed replica while
// writers keep pipelined batches in flight: the install (which jumps the
// healed replica's prefix and truncates its stale window) must commute with
// concurrent appends on both sides, and the healed replica must converge on
// the writers' latest values.
func TestSnapshotInstallRacesConcurrentAppends(t *testing.T) {
	c := newCompactCluster(t, func(o *Options) {
		o.Batch = BatchOptions{MaxOps: 4, Window: time.Millisecond, Pipeline: 2}
	})
	defer c.stop()
	ctx := ctxSec(t, 120)

	c.net.Crash(3)
	for i := 0; i < 20; i++ {
		if _, err := c.kvs[0].Set(ctx, "warm", fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("warm-up write %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for c.kvs[0].CompactionMetrics().SlotsFreed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ack-timeout never truncated with a dead replica")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Heal p3 with appends still streaming from two live processes.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.kvs[w].Set(ctx, fmt.Sprintf("live%d", w), fmt.Sprintf("v%d", i)); err != nil {
					errs <- fmt.Errorf("live writer %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	c.net.Restart(3)
	for c.kvs[3].CompactionMetrics().InstallsReceived == 0 {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatal("healed replica never received a snapshot-install under load")
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The healed replica serves the writers' final values after a barrier.
	if err := c.kvs[3].Sync(ctx); err != nil {
		t.Fatalf("sync at healed replica: %v", err)
	}
	for w := 0; w < 2; w++ {
		want, ok, err := c.kvs[0].Get(ctx, fmt.Sprintf("live%d", w))
		if err != nil || !ok {
			t.Fatalf("reference read live%d = %v/%v", w, ok, err)
		}
		got, ok, err := c.kvs[3].Get(ctx, fmt.Sprintf("live%d", w))
		if err != nil || !ok || got != want {
			t.Fatalf("healed live%d = %q/%v/%v, want %q", w, got, ok, err, want)
		}
	}
}

// countingSnapshotter counts Snapshot calls on a plain Log; its state is
// empty and its restores are no-ops.
type countingSnapshotter struct{ snapshots atomic.Int64 }

func (s *countingSnapshotter) Snapshot(int64) (string, error) {
	s.snapshots.Add(1)
	return "", nil
}

func (s *countingSnapshotter) Restore(string, int64) error { return nil }

// TestCheckpointsDoNotSnapshot crosses the checkpoint cadence several times
// on plain compacting logs: a checkpoint only records and announces its
// frontier, so Snapshot runs once per snapshot-install sent and for nothing
// else (a healthy cluster normally sends none).
func TestCheckpointsDoNotSnapshot(t *testing.T) {
	qs := quorum.Figure1()
	c := &smrCluster{net: transport.NewMem(4,
		transport.WithDelay(transport.UniformDelay{Min: 10 * time.Microsecond, Max: 300 * time.Microsecond}),
		transport.WithSeed(17))}
	defer c.stop()
	snaps := make([]*countingSnapshotter, 4)
	for i := range snaps {
		nd := node.New(failure.Proc(i), c.net)
		c.nodes = append(c.nodes, nd)
		snaps[i] = &countingSnapshotter{}
		c.logs = append(c.logs, New(nd, Options{
			Slots: 8, Reads: qs.Reads, Writes: qs.Writes, ViewC: 15 * time.Millisecond,
			Compaction:  CompactionOptions{Interval: 4, AckTimeout: 400 * time.Millisecond},
			Snapshotter: snaps[i],
		}))
	}
	ctx := ctxSec(t, 120)
	for i := 0; i < 20; i++ {
		if _, err := c.logs[0].Append(ctx, fmt.Sprintf("cmd-%d", i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if m := c.logs[0].CompactionMetrics(); m.Checkpoints < 4 || m.Truncations == 0 {
		t.Fatalf("cadence not crossed: %+v", m)
	}
	for i, s := range snaps {
		m := c.logs[i].CompactionMetrics()
		if n := s.snapshots.Load(); n != int64(m.InstallsSent) {
			t.Fatalf("p%d: %d Snapshot calls for %d installs sent, after %d checkpoints", i, n, m.InstallsSent, m.Checkpoints)
		}
	}
}

// loopState is one KV endpoint's loop-confined compaction and apply state.
type loopState struct {
	next, lastCkpt, cursor int64
	acks                   map[failure.Proc]int64
	applied                map[string]string
	metaSlot               int64
	meta                   string
}

func (c *smrCluster) loopState(p int) loopState {
	kv, l := c.kvs[p], c.kvs[p].log
	var s loopState
	c.nodes[p].Call(func() {
		s = loopState{
			next: l.next, lastCkpt: l.lastCkpt, cursor: kv.cursor,
			acks: maps.Clone(l.ackFrontier), applied: maps.Clone(kv.applied),
			metaSlot: kv.metaSlot, meta: kv.meta,
		}
	})
	return s
}

// healByInstall crashes p3, commits writes plus a meta entry at p0 until
// every live process's applied frontier sits strictly above its own latest
// checkpoint, waits for the ack-timeout to truncate past p3, and restarts
// it; it returns once p3 has adopted a snapshot-install. With no write in
// flight, every live process — whichever one donates the install — holds
// the same applied state at the same frontier, returned as want.
func healByInstall(t *testing.T, c *smrCluster) (want loopState) {
	t.Helper()
	ctx := ctxSec(t, 120)
	deadline := time.Now().Add(60 * time.Second)
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	c.net.Crash(3)
	for i := 0; i < 30; i++ {
		if _, err := c.kvs[0].Set(ctx, fmt.Sprintf("k%d", i%7), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("write %d with p3 down: %v", i, err)
		}
	}
	if _, err := c.kvs[0].AppendMeta(ctx, "grant-1"); err != nil {
		t.Fatalf("append meta: %v", err)
	}
	for i := 0; ; i++ {
		if _, err := c.kvs[0].Set(ctx, "tail", fmt.Sprintf("t%d", i)); err != nil {
			t.Fatalf("tail write %d: %v", i, err)
		}
		want = c.loopState(0)
		settled := func() bool {
			for p := 1; p < 3; p++ {
				if c.loopState(p).next != want.next {
					return false
				}
			}
			return true
		}
		waitFor("live processes to fold every write", settled)
		above := true
		for p := 0; p < 3; p++ {
			if s := c.loopState(p); s.lastCkpt >= s.next {
				above = false
			}
		}
		if above {
			break
		}
	}
	waitFor("ack-timeout truncation past p3", func() bool { return c.kvs[0].CompactionMetrics().SlotsFreed > 0 })
	c.net.Restart(3)
	waitFor("snapshot-install at p3", func() bool { return c.kvs[3].CompactionMetrics().InstallsReceived > 0 })
	return want
}

// TestInstalledStateEqualsDonorState heals a replica by snapshot-install and
// checks the install carried the donor's applied state at the install's
// frontier: the receiver's apply cursor lands exactly on the donors'
// frontier, with the same applied map and newest meta entry.
func TestInstalledStateEqualsDonorState(t *testing.T) {
	c := newCompactCluster(t, nil)
	defer c.stop()
	want := healByInstall(t, c)

	got := c.loopState(3)
	if got.cursor != want.next || got.next != want.next {
		t.Fatalf("p3 installed at cursor %d / next %d, donors' frontier %d", got.cursor, got.next, want.next)
	}
	if !maps.Equal(got.applied, want.applied) {
		t.Fatalf("p3 installed state %v, donor state %v", got.applied, want.applied)
	}
	if got.meta != "grant-1" || got.metaSlot != want.metaSlot {
		t.Fatalf("p3 installed meta %q@%d, donor %q@%d", got.meta, got.metaSlot, want.meta, want.metaSlot)
	}
}

// TestInstallAboveDonorCheckpointIsAdopted heals a replica from donors whose
// applied frontier is strictly above their latest checkpoint: the install
// ships the live state at the applied frontier, the receiver adopts that
// frontier as its own checkpoint, and every live process hears it
// announced.
func TestInstallAboveDonorCheckpointIsAdopted(t *testing.T) {
	c := newCompactCluster(t, nil)
	defer c.stop()
	want := healByInstall(t, c)
	if want.lastCkpt >= want.next {
		t.Fatalf("setup: donor checkpoint %d not below its frontier %d", want.lastCkpt, want.next)
	}

	if got := c.loopState(3); got.lastCkpt != want.next || got.acks[3] != want.next {
		t.Fatalf("p3 adopted checkpoint %d (self ack %d), want the install frontier %d", got.lastCkpt, got.acks[3], want.next)
	}
	deadline := time.Now().Add(30 * time.Second)
	for p := 0; p < 3; p++ {
		for c.loopState(p).acks[3] < want.next {
			if time.Now().After(deadline) {
				t.Fatalf("p%d never heard p3 announce frontier %d: acks %v", p, want.next, c.loopState(p).acks)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
