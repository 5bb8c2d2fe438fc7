package smr

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/failure"
	"repro/internal/node"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/wire"
)

// newBatchedCluster builds the Figure-1 log cluster with group-commit
// batching configured per bo; each of with then edits every process's
// options.
func newBatchedCluster(t *testing.T, slots int, bo BatchOptions, with ...func(*Options)) *smrCluster {
	t.Helper()
	qs := quorum.Figure1()
	c := &smrCluster{net: transport.NewMem(4,
		transport.WithDelay(transport.UniformDelay{Min: 10 * time.Microsecond, Max: 300 * time.Microsecond}),
		transport.WithSeed(63))}
	for i := 0; i < 4; i++ {
		nd := node.New(failure.Proc(i), c.net)
		c.nodes = append(c.nodes, nd)
		opts := Options{
			Slots: slots, Reads: qs.Reads, Writes: qs.Writes,
			ViewC: 15 * time.Millisecond, Batch: bo,
		}
		for _, f := range with {
			f(&opts)
		}
		c.logs = append(c.logs, New(nd, opts))
	}
	return c
}

// TestBatchWindowCoalesces: commands arriving within the window share one
// slot (one consensus decision covered them all) and complete with their
// in-batch indices. A fake clock expires the window, so the commands land
// inside it however slowly they are submitted.
func TestBatchWindowCoalesces(t *testing.T) {
	fc := clock.NewFake()
	c := newBatchedCluster(t, 8, BatchOptions{Window: 250 * time.Millisecond, MaxOps: 16},
		func(o *Options) { o.Clock = fc })
	defer c.stop()
	ctx := ctxSec(t, 60)

	const n = 5
	chans := make([]<-chan AppendResult, n)
	for i := 0; i < n; i++ {
		chans[i] = c.logs[0].AppendAsync(ctx, fmt.Sprintf("win-%d", i))
	}
	// The first command armed the window. Every command reached the
	// mailbox before the expiry can, so all of them are buffered by then.
	fc.BlockUntil(1)
	fc.Advance(250 * time.Millisecond)
	results := make([]AppendResult, n)
	for i, ch := range chans {
		results[i] = <-ch
		if results[i].Err != nil {
			t.Fatalf("append %d: %v", i, results[i].Err)
		}
	}
	for i, r := range results {
		if r.Slot != results[0].Slot {
			t.Fatalf("append %d landed in slot %d, want shared slot %d", i, r.Slot, results[0].Slot)
		}
		if r.Index != i {
			t.Fatalf("append %d got batch index %d", i, r.Index)
		}
	}
	// The flattened prefix preserves per-command order.
	prefix, err := c.logs[0].DecidedPrefix(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(prefix) != n {
		t.Fatalf("prefix %v, want %d commands", prefix, n)
	}
	for i, cmd := range prefix {
		if cmd != fmt.Sprintf("win-%d", i) {
			t.Fatalf("prefix[%d] = %q", i, cmd)
		}
	}
}

// TestGatedCompletionFreesPipelinePlace: a completion held by the append
// gate does not hold a pipeline place. With Pipeline 1, append A's
// sub-batch leaves the pipeline when it is applied, before its gate
// returns, so append B is cut and decided while A's gate still blocks.
func TestGatedCompletionFreesPipelinePlace(t *testing.T) {
	c := newBatchedCluster(t, 8, BatchOptions{MaxOps: 1, Pipeline: 1})
	defer c.stop()
	ctx := ctxSec(t, 60)

	entered, release := make(chan int64, 2), make(chan struct{})
	c.logs[0].SetGate(func(slot int64) {
		entered <- slot
		<-release
	})
	decidedAt := func(p int, want []string) bool {
		got, err := c.logs[p].DecidedPrefix(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return slices.Equal(got, want)
	}
	waitDecided := func(want []string, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for p := range c.logs {
			for !decidedAt(p, want) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: p%d never decided %q", what, p, want)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}

	a := c.logs[0].AppendAsync(ctx, "a")
	waitDecided([]string{"a"}, "append A")
	<-entered // A's completion waits in the gate
	b := c.logs[0].AppendAsync(ctx, "b")
	waitDecided([]string{"a", "b"}, "append B behind A's gated completion")
	select {
	case r := <-a:
		t.Fatalf("append A completed with %+v while its gate blocked", r)
	default:
	}
	close(release)
	for i, ch := range []<-chan AppendResult{a, b} {
		if r := <-ch; r.Err != nil {
			t.Fatalf("append %d: %v", i, r.Err)
		}
	}
}

// TestAppendAfterNodeStopFails: an append to a log whose node stopped
// first cannot reach the loop, so it fails at once instead of waiting
// forever.
func TestAppendAfterNodeStopFails(t *testing.T) {
	c := newBatchedCluster(t, 8, BatchOptions{})
	defer c.stop()
	c.nodes[0].Stop()
	select {
	case r := <-c.logs[0].AppendAsync(context.Background(), "late"):
		if !errors.Is(r.Err, ErrStopped) {
			t.Fatalf("append after node Stop completed with %+v, want ErrStopped", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("append after node Stop never completed")
	}
}

// TestBatchCountCapFlushesEarly: a full buffer flushes immediately instead
// of waiting out a (deliberately enormous) window.
func TestBatchCountCapFlushesEarly(t *testing.T) {
	c := newBatchedCluster(t, 8, BatchOptions{Window: time.Hour, MaxOps: 3})
	defer c.stop()
	ctx := ctxSec(t, 60)

	start := time.Now()
	var wg sync.WaitGroup
	slots := make([]int64, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := c.logs[0].Append(ctx, fmt.Sprintf("cap-%d", i))
			if err != nil {
				t.Errorf("append %d: %v", i, err)
			}
			slots[i] = s
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("count-capped batch took %v (window wait leaked in)", elapsed)
	}
	if slots[0] != slots[1] || slots[1] != slots[2] {
		t.Fatalf("count-capped batch split across slots %v", slots)
	}
}

// TestBatchByteCapFlushesEarly: the byte cap flushes a buffer whose
// commands are large before the count cap or window would.
func TestBatchByteCapFlushesEarly(t *testing.T) {
	c := newBatchedCluster(t, 8, BatchOptions{Window: time.Hour, MaxOps: 64, MaxBytes: 64})
	defer c.stop()
	ctx := ctxSec(t, 60)

	big := make([]byte, 48)
	for i := range big {
		big[i] = 'x'
	}
	start := time.Now()
	ch1 := c.logs[0].AppendAsync(ctx, "b1-"+string(big))
	ch2 := c.logs[0].AppendAsync(ctx, "b2-"+string(big))
	for i, ch := range []<-chan AppendResult{ch1, ch2} {
		if r := <-ch; r.Err != nil {
			t.Fatalf("append %d: %v", i, r.Err)
		}
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("byte-capped batch took %v (window wait leaked in)", elapsed)
	}
}

// TestBatchCloseDrains: commands still buffered (window far away) get their
// commit attempt when the log stops — the close-time drain.
func TestBatchCloseDrains(t *testing.T) {
	c := newBatchedCluster(t, 8, BatchOptions{Window: time.Hour, MaxOps: 64})
	defer c.stop()
	ctx := ctxSec(t, 60)

	ch1 := c.logs[0].AppendAsync(ctx, "drain-0")
	ch2 := c.logs[0].AppendAsync(ctx, "drain-1")
	time.Sleep(20 * time.Millisecond) // let both enqueue before the drain
	c.logs[0].Stop()
	for i, ch := range []<-chan AppendResult{ch1, ch2} {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("drained append %d: %v", i, r.Err)
		}
	}
	// New appends after Stop are rejected.
	if _, err := c.logs[0].Append(context.Background(), "late"); !errors.Is(err, ErrStopped) {
		t.Fatalf("append after Stop: %v, want ErrStopped", err)
	}
}

// TestBatchPipelineDistinctSlots: with a batch size of one and an in-flight
// window, concurrent appends land in distinct slots whose rounds overlap —
// and every completion upholds the decided-prefix invariant: when an append
// returns, no slot at or below it is still undecided at this process.
// (Pipelined claims decide out of order; completions happen at first
// apply, and a forced next bump past a hole once voided exactly this check.)
func TestBatchPipelineDistinctSlots(t *testing.T) {
	c := newBatchedCluster(t, 64, BatchOptions{Window: time.Millisecond, MaxOps: 1, Pipeline: 8})
	defer c.stop()
	ctx := ctxSec(t, 60)

	const n = 24
	chans := make([]<-chan AppendResult, n)
	for i := 0; i < n; i++ {
		chans[i] = c.logs[0].AppendAsync(ctx, fmt.Sprintf("pipe-%d", i))
	}
	seen := map[int64]bool{}
	for i, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("append %d: %v", i, r.Err)
		}
		if seen[r.Slot] {
			t.Fatalf("slot %d double-assigned", r.Slot)
		}
		seen[r.Slot] = true
		hole := int64(-1)
		c.logs[0].n.Call(func() {
			// Slots below the live base are decided by construction:
			// truncation never passes the decided prefix.
			for s := c.logs[0].base; s <= r.Slot; s++ {
				if _, ok := c.logs[0].eng.Decision(s); !ok {
					hole = s
					break
				}
			}
		})
		if hole >= 0 {
			t.Fatalf("append %d completed at slot %d with undecided hole at slot %d", i, r.Slot, hole)
		}
	}
}

// TestBatchByteCapBoundsCut: commands accumulating behind a full in-flight
// window must be cut into byte-bounded batches, not fused into one
// oversized consensus value — every decided batch slot stays within the
// byte cap (one command crossing the cap alone is the documented allowance).
func TestBatchByteCapBoundsCut(t *testing.T) {
	const maxBytes = 200
	c := newBatchedCluster(t, 64, BatchOptions{Window: 20 * time.Millisecond, MaxOps: 64, MaxBytes: maxBytes, Pipeline: 1})
	defer c.stop()
	ctx := ctxSec(t, 60)

	// 16 commands of ~60 bytes each arrive within one window: one batch
	// would be ~1KB, so the cut must split them into >= 4 slots.
	const n = 16
	pad := make([]byte, 56)
	for i := range pad {
		pad[i] = 'p'
	}
	chans := make([]<-chan AppendResult, n)
	for i := 0; i < n; i++ {
		chans[i] = c.logs[0].AppendAsync(ctx, fmt.Sprintf("b%02d-%s", i, pad))
	}
	slots := map[int64]bool{}
	for i, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("append %d: %v", i, r.Err)
		}
		slots[r.Slot] = true
	}
	for s := range slots {
		v, err := c.logs[0].Get(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		// The crossing command may push one batch past the cap by less than
		// one command's length; anything bigger means the cut ignored bytes.
		if len(v) > maxBytes+64+16 {
			t.Fatalf("slot %d carries a %d-byte value, want <= ~%d (byte cap ignored by the cut)", s, len(v), maxBytes)
		}
	}
	if len(slots) < 4 {
		t.Fatalf("16 ~60B commands at a %dB cap landed in %d slots, want >= 4", maxBytes, len(slots))
	}
}

// TestDefaultLogOutlivesSlots: a log built without Compaction options
// still checkpoints and truncates, so one-per-slot appends run far past
// its slot window — the window slides, it is no lifetime budget.
func TestDefaultLogOutlivesSlots(t *testing.T) {
	const slots = 8
	c := newBatchedCluster(t, slots, BatchOptions{MaxOps: 1})
	defer c.stop()
	ctx := ctxSec(t, 60)

	for i := 0; i < 3*slots; i++ {
		if _, err := c.logs[0].Append(ctx, fmt.Sprintf("w%d", i)); err != nil {
			t.Fatalf("append %d through a %d-slot window: %v", i, slots, err)
		}
	}
	// Truncation waits for every process's checkpoint announcement (or the
	// ack timeout), which may trail the last append's completion.
	deadline := time.Now().Add(10 * time.Second)
	for c.logs[0].CompactionMetrics().Truncations == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no truncation after %d appends through a %d-slot window: %+v",
				3*slots, slots, c.logs[0].CompactionMetrics())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchAgreementAcrossProcesses: batched appends from every process
// commit, and all processes converge on the same flattened prefix.
func TestBatchAgreementAcrossProcesses(t *testing.T) {
	c := newBatchedCluster(t, 16, BatchOptions{Window: 2 * time.Millisecond, MaxOps: 8, Pipeline: 2})
	defer c.stop()
	ctx := ctxSec(t, 120)

	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(p, i int) {
				defer wg.Done()
				if _, err := c.logs[p].Append(ctx, fmt.Sprintf("p%d-%d", p, i)); err != nil {
					t.Errorf("append p%d-%d: %v", p, i, err)
				}
			}(p, i)
		}
	}
	wg.Wait()
	// A batch completion only gates on ITS proposer's decided prefix, so
	// any single process (p0 included) may still be catching up on peers'
	// tail decisions; poll every process to the full 12 commands before
	// comparing the flattened prefixes pairwise.
	prefixes := make([][]string, 4)
	for p := 0; p < 4; p++ {
		deadline := time.Now().Add(30 * time.Second)
		for {
			got, err := c.logs[p].DecidedPrefix(ctx)
			if err != nil {
				t.Fatal(err)
			}
			prefixes[p] = got
			if len(got) >= 12 || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if len(prefixes[p]) != 12 {
			t.Fatalf("p%d prefix has %d commands, want 12: %v", p, len(prefixes[p]), prefixes[p])
		}
	}
	want := prefixes[0]
	for p := 1; p < 4; p++ {
		for i := range want {
			if prefixes[p][i] != want[i] {
				t.Fatalf("p%d prefix[%d] = %q, want %q", p, i, prefixes[p][i], want[i])
			}
		}
	}
}

// TestBatchCanceledAppendWithdraws: an Append whose context cancels while
// its command is still buffered (never cut into a batch) withdraws it — the
// command must NOT commit later, so the caller can safely retry without
// risking a double commit.
func TestBatchCanceledAppendWithdraws(t *testing.T) {
	c := newBatchedCluster(t, 8, BatchOptions{Window: 200 * time.Millisecond, MaxOps: 64})
	defer c.stop()
	ctx := ctxSec(t, 60)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.logs[0].Append(canceled, "withdrawn"); err == nil {
		t.Fatal("canceled append succeeded")
	}
	// The next append flushes on its own window; the withdrawn command must
	// not ride along.
	if _, err := c.logs[0].Append(ctx, "kept"); err != nil {
		t.Fatalf("append after withdrawal: %v", err)
	}
	prefix, err := c.logs[0].DecidedPrefix(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(prefix) != 1 || prefix[0] != "kept" {
		t.Fatalf("prefix = %v, want exactly [kept] (withdrawn command committed)", prefix)
	}
}

// TestAppendAsyncCanceledContextNeverCommits: AppendAsync with a context
// already done at the call submits nothing — its completion carries
// context.Canceled and the command never commits, so a retry is safe.
func TestAppendAsyncCanceledContextNeverCommits(t *testing.T) {
	c := newBatchedCluster(t, 8, BatchOptions{})
	defer c.stop()
	ctx := ctxSec(t, 60)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if r := <-c.logs[0].AppendAsync(canceled, "dropped"); !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("AppendAsync with a canceled ctx completed with %+v, want context.Canceled", r)
	}
	if _, err := c.logs[0].Append(ctx, "kept"); err != nil {
		t.Fatalf("append after the canceled one: %v", err)
	}
	prefix, err := c.logs[0].DecidedPrefix(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(prefix) != 1 || prefix[0] != "kept" {
		t.Fatalf("prefix = %v, want exactly [kept] (canceled command committed)", prefix)
	}
}

// TestAppendAcceptsMarkerByte: batch values length-prefix their commands,
// so a command opening with the batch marker byte — even one spelling a
// whole batch header — commits and reads back byte for byte. Only the empty
// command is rejected.
func TestAppendAcceptsMarkerByte(t *testing.T) {
	c := newSMRCluster(t, false)
	defer c.stop()
	ctx := ctxSec(t, 60)
	cmds := []string{"\x01evil", wire.EncodeBatch(wire.SubBatch{Origin: 3, Seq: 1, Cmds: []string{"inner"}})}
	for _, cmd := range cmds {
		if _, err := c.logs[0].Append(ctx, cmd); err != nil {
			t.Fatalf("append %q: %v", cmd, err)
		}
	}
	prefix, err := c.logs[0].DecidedPrefix(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(prefix, cmds) {
		t.Fatalf("prefix = %q, want %q", prefix, cmds)
	}
	if r := <-c.logs[0].AppendAsync(context.Background(), ""); r.Err == nil {
		t.Fatal("empty command accepted")
	}
}

// TestKVSetManyBatched: SetMany coalesces writes, reports per-pair slots in
// input order, and the store reads back the last value per key.
func TestKVSetManyBatched(t *testing.T) {
	qs := quorum.Figure1()
	c := &smrCluster{net: transport.NewMem(4,
		transport.WithDelay(transport.UniformDelay{Min: 10 * time.Microsecond, Max: 300 * time.Microsecond}),
		transport.WithSeed(63))}
	defer c.stop()
	for i := 0; i < 4; i++ {
		nd := node.New(failure.Proc(i), c.net)
		c.nodes = append(c.nodes, nd)
		c.kvs = append(c.kvs, NewKV(nd, Options{
			Slots: 8, Reads: qs.Reads, Writes: qs.Writes, ViewC: 15 * time.Millisecond,
			Batch: BatchOptions{Window: 250 * time.Millisecond, MaxOps: 16},
		}))
	}
	ctx := ctxSec(t, 120)

	pairs := []KVPair{{"a", "1"}, {"b", "2"}, {"a", "3"}}
	slots, err := c.kvs[0].SetMany(ctx, pairs)
	if err != nil {
		t.Fatalf("setmany: %v", err)
	}
	if len(slots) != 3 {
		t.Fatalf("got %d slots", len(slots))
	}
	if slots[0] != slots[1] || slots[1] != slots[2] {
		t.Fatalf("setmany split across slots %v, want one group commit", slots)
	}
	v, ok, err := c.kvs[0].Get(ctx, "a")
	if err != nil || !ok || v != "3" {
		t.Fatalf(`get "a" = %q/%v/%v, want "3" (batch order preserved)`, v, ok, err)
	}
	v, ok, err = c.kvs[0].Get(ctx, "b")
	if err != nil || !ok || v != "2" {
		t.Fatalf(`get "b" = %q/%v/%v`, v, ok, err)
	}
}
