package smr

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/node"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/wire"
)

// proposeAt runs a consensus proposal for one slot of p's log directly, the
// way a leader's claim does, and returns the decided value.
func proposeAt(t *testing.T, ctx context.Context, l *Log, slot int64, val string) string {
	t.Helper()
	v, err := l.eng.Propose(ctx, slot, val)
	if err != nil {
		t.Fatalf("propose slot %d: %v", slot, err)
	}
	return v
}

// TestBatchOnlyLeaderClaims: in one long fault-free view, appends at all
// four processes are forwarded to the view's leader, which is the only
// process that claims slots.
func TestBatchOnlyLeaderClaims(t *testing.T) {
	qs := quorum.Figure1()
	c := &smrCluster{net: transport.NewMem(4,
		transport.WithDelay(transport.UniformDelay{Min: 10 * time.Microsecond, Max: 300 * time.Microsecond}),
		transport.WithSeed(71))}
	defer c.stop()
	for i := 0; i < 4; i++ {
		nd := node.New(failure.Proc(i), c.net)
		c.nodes = append(c.nodes, nd)
		c.logs = append(c.logs, New(nd, Options{
			Slots: 64, Reads: qs.Reads, Writes: qs.Writes,
			// View 1, led by process 0, outlasts the test.
			ViewC: time.Minute, Batch: BatchOptions{Window: time.Millisecond, MaxOps: 8},
		}))
	}
	ctx := ctxSec(t, 60)

	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		for i := 0; i < 5; i++ {
			wg.Add(1)
			go func(p, i int) {
				defer wg.Done()
				if _, err := c.logs[p].Append(ctx, fmt.Sprintf("p%d-%d", p, i)); err != nil {
					t.Errorf("append at p%d: %v", p, err)
				}
			}(p, i)
		}
	}
	wg.Wait()
	for p, l := range c.logs {
		var view int64
		var claimed uint64
		l.n.Call(func() { view, claimed = l.view, l.batch.claimed })
		if view != 1 {
			t.Fatalf("p%d left view 1 (view %d): the test needs one steady view", p, view)
		}
		switch {
		case p == 0 && claimed == 0:
			t.Fatal("the leader claimed no slot")
		case p != 0 && claimed != 0:
			t.Fatalf("non-leader p%d claimed %d slots", p, claimed)
		}
	}
}

// TestBatchDuplicateAppliedOnce: one sub-batch decided in two slots — its
// later copy decided first — changes the applied state once, at every
// replica, and its operation completes with the position of its first copy.
func TestBatchDuplicateAppliedOnce(t *testing.T) {
	qs := quorum.Figure1()
	c := &smrCluster{net: transport.NewMem(4,
		transport.WithDelay(transport.UniformDelay{Min: 10 * time.Microsecond, Max: 300 * time.Microsecond}),
		transport.WithSeed(72))}
	defer c.stop()
	applied := make([][]string, 4) // per process, loop-confined
	for i := 0; i < 4; i++ {
		i := i
		nd := node.New(failure.Proc(i), c.net)
		c.nodes = append(c.nodes, nd)
		c.logs = append(c.logs, New(nd, Options{
			// One long view: no view entry re-sends the hand-made sub-batch.
			Slots: 8, Reads: qs.Reads, Writes: qs.Writes, ViewC: time.Minute,
			Batch: BatchOptions{Window: time.Millisecond},
			OnCommit: func(_ int64, v string) {
				cmds, err := SlotCommands(v)
				if err != nil {
					t.Errorf("p%d: %v", i, err)
				}
				applied[i] = append(applied[i], cmds...)
			},
		}))
	}
	ctx := ctxSec(t, 60)

	// Once every process has entered view 1 (whose entry re-sends the
	// unapplied sub-batches), give process 1 an unapplied sub-batch (seq 1)
	// the way a cut does, without routing it anywhere.
	for _, l := range c.logs {
		for entered := false; !entered; {
			l.n.Call(func() { entered = l.view == 1 })
			time.Sleep(time.Millisecond)
		}
	}
	p1 := c.logs[1]
	done := make(chan AppendResult, 1)
	sub := wire.EncodeBatch(wire.SubBatch{Origin: 1, Seq: 1, Cmds: []string{"a"}})
	p1.n.Call(func() {
		p1.batch.seq = 1
		p1.batch.out[1] = &subBatch{seq: 1, ops: []pendingOp{{cmd: "a", done: done}}, val: sub}
	})
	other := wire.EncodeBatch(wire.SubBatch{Origin: 2, Seq: 1, Cmds: []string{"x"}})
	if v := proposeAt(t, ctx, c.logs[0], 1, sub); v != sub {
		t.Fatalf("slot 1 decided %q", v)
	}
	first := wire.JoinBatches([]string{other, sub})
	if v := proposeAt(t, ctx, c.logs[0], 0, first); v != first {
		t.Fatalf("slot 0 decided %q", v)
	}
	if r := <-done; r.Err != nil || r.Slot != 0 || r.Index != 1 {
		t.Fatalf("completion %+v, want slot 0 index 1 (the first copy)", r)
	}
	for p, l := range c.logs {
		if err := l.WaitPrefix(ctx, 1); err != nil {
			t.Fatal(err)
		}
		var got []string
		l.n.Call(func() { got = slices.Clone(applied[p]) })
		if !slices.Equal(got, []string{"x", "a"}) {
			t.Fatalf("p%d applied %q, want [x a]", p, got)
		}
		prefix, err := l.DecidedPrefix(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(prefix, []string{"x", "a"}) {
			t.Fatalf("p%d decided prefix %q, want [x a]", p, prefix)
		}
	}
	// Get still returns the decided value itself, duplicate included.
	if v, err := c.logs[2].Get(ctx, 1); err != nil || v != sub {
		t.Fatalf("get slot 1 = %q, %v", v, err)
	}
}

// TestInstallCarriesAppliedSubBatches: a replica restored by
// snapshot-install skips a duplicate whose first copy lies below the
// install frontier, exactly as its donors do.
func TestInstallCarriesAppliedSubBatches(t *testing.T) {
	c := newCompactCluster(t, func(o *Options) {
		o.Batch = BatchOptions{Window: time.Millisecond, MaxOps: 4}
	})
	defer c.stop()
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
	next := func(p int) int64 { return c.loopState(p).next }
	// A sub-batch from an origin no process uses, so no cut collides.
	dup := wire.EncodeBatch(wire.SubBatch{Origin: 9, Seq: 1, Cmds: []string{kvCommand{Key: "k", Val: "old"}.encode()}})

	c.net.Crash(3)
	if s := next(0); proposeAt(t, ctx, c.kvs[0].log, s, dup) != dup {
		t.Fatalf("slot %d did not take the sub-batch", s)
	}
	for i := 0; i < 30; i++ {
		if _, err := c.kvs[0].Set(ctx, fmt.Sprintf("w%d", i%5), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("write %d with p3 down: %v", i, err)
		}
	}
	if _, err := c.kvs[0].Set(ctx, "k", "new"); err != nil {
		t.Fatal(err)
	}
	waitFor("ack-timeout truncation past p3", func() bool { return c.kvs[0].CompactionMetrics().SlotsFreed > 0 })
	c.net.Restart(3)
	waitFor("snapshot-install at p3", func() bool { return c.kvs[3].CompactionMetrics().InstallsReceived > 0 })

	// The second copy commits above the install frontier.
	s := next(0)
	if proposeAt(t, ctx, c.kvs[0].log, s, dup) != dup {
		t.Fatalf("slot %d did not take the second copy", s)
	}
	if err := c.kvs[3].WaitApplied(ctx, s); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 3} {
		if err := c.kvs[p].WaitApplied(ctx, s); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := c.kvs[p].Get(ctx, "k"); err != nil || !ok || v != "new" {
			t.Fatalf("p%d reads k = %q/%v/%v, want new (the duplicate was applied again)", p, v, ok, err)
		}
	}
}

// TestBatchedLogUnderF1: under f1 (d crashed; only c→a, a→b and b→a up)
// batched appends at a and b keep committing across at least eight views —
// including those led by c and d, whose forwards are lost and re-sent at
// the next view entry — and each commits exactly once.
func TestBatchedLogUnderF1(t *testing.T) {
	qs := quorum.Figure1()
	c := newBatchedCluster(t, 512, BatchOptions{Window: time.Millisecond, MaxOps: 8, Pipeline: 2})
	defer c.stop()
	c.net.ApplyPattern(qs.F.Patterns[0]) // U_f1 = {a, b}
	ctx := ctxSec(t, 120)
	view := func() int64 {
		var v int64
		c.logs[0].n.Call(func() { v = c.logs[0].view })
		return v
	}

	start := view()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		sent = make([][]string, 2) // per origin
	)
	for _, p := range []int{0, 1} {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(p, w int) {
				defer wg.Done()
				for i := 0; view() < start+8; i++ {
					cmd := fmt.Sprintf("p%d-w%d-%d", p, w, i)
					if _, err := c.logs[p].Append(ctx, cmd); err != nil {
						t.Errorf("append %s under f1: %v", cmd, err)
						return
					}
					mu.Lock()
					sent[p] = append(sent[p], cmd)
					mu.Unlock()
				}
			}(p, w)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, p := range []int{0, 1} {
		prefix, err := c.logs[p].DecidedPrefix(ctx)
		if err != nil {
			t.Fatal(err)
		}
		count := map[string]int{}
		for _, cmd := range prefix {
			count[cmd]++
		}
		for origin, cmds := range sent {
			for _, cmd := range cmds {
				// An append returns once its origin applied it; the other
				// U_f member may still be catching up on the tail.
				if n := count[cmd]; n > 1 || (n == 0 && origin == p) {
					t.Fatalf("p%d applied %s %d times", p, cmd, n)
				}
			}
		}
	}
	if len(sent[0]) < 4 || len(sent[1]) < 4 {
		t.Fatalf("only %d and %d appends committed over eight views", len(sent[0]), len(sent[1]))
	}
}
