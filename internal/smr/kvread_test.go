package smr

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestKVCommandEncoding: every command kind round-trips, none encodes
// empty (the log rejects empty commands), and a truncated or padded
// command is rejected. A decoded command's strings do not hold the slot
// value alive: applySlot stores a clone's.
func TestKVCommandEncoding(t *testing.T) {
	for _, c := range []kvCommand{
		{},                      // the Sync no-op
		{Key: "k", Val: "v"},    // a set
		{Key: "k"},              // a set to the empty value
		{Meta: "\x00\x01grant"}, // a meta entry
		{Key: strings.Repeat("k", 300), Val: "\xff"},
	} {
		raw := c.encode()
		if raw == "" {
			t.Fatalf("%+v encodes empty", c)
		}
		got, err := decodeKVCommand(raw)
		if err != nil || got != c {
			t.Fatalf("%+v decodes to %+v, %v", c, got, err)
		}
		for _, bad := range []string{raw[:len(raw)-1], raw + "\x00"} {
			if _, err := decodeKVCommand(bad); err == nil {
				t.Errorf("%+v: corrupt encoding %q accepted", c, bad)
			}
		}
	}
	if _, err := decodeKVCommand(`{"key":"k","val":"v"}`); err == nil {
		t.Error("a JSON command decoded")
	}
}

// TestKVAppliedStateIncremental exercises the applied-map read path: reads
// observe exactly the folded prefix, interleaved across keys, with no
// dependence on history length.
func TestKVAppliedStateIncremental(t *testing.T) {
	c := newSMRCluster(t, true)
	defer c.stop()
	ctx := ctxSec(t, 120)

	writes := []struct{ k, v string }{
		{"a", "1"}, {"b", "1"}, {"a", "2"}, {"c", "1"}, {"a", "3"},
	}
	for _, w := range writes {
		if _, err := c.kvs[0].Set(ctx, w.k, w.v); err != nil {
			t.Fatalf("set %s=%s: %v", w.k, w.v, err)
		}
	}
	want := map[string]string{"a": "3", "b": "1", "c": "1"}
	for k, v := range want {
		got, ok, err := c.kvs[0].Get(ctx, k)
		if err != nil || !ok || got != v {
			t.Fatalf("get %s = %q/%v/%v, want %q", k, got, ok, err, v)
		}
	}
}

// TestKVMetaEntries checks that AppendMeta entries ride the log's total
// order without touching KV state, and are delivered in commit order to the
// observer at a remote process.
func TestKVMetaEntries(t *testing.T) {
	c := newSMRCluster(t, true)
	defer c.stop()
	ctx := ctxSec(t, 120)

	var (
		mu    sync.Mutex
		seen  []string
		slots []int64
	)
	c.kvs[1].SetMetaObserver(func(slot int64, meta string) {
		mu.Lock()
		seen = append(seen, meta)
		slots = append(slots, slot)
		mu.Unlock()
	})

	if _, err := c.kvs[0].Set(ctx, "k", "v"); err != nil {
		t.Fatalf("set: %v", err)
	}
	for _, m := range []string{"grant-1", "grant-2"} {
		if _, err := c.kvs[0].AppendMeta(ctx, m); err != nil {
			t.Fatalf("append meta %q: %v", m, err)
		}
	}
	// A barrier at the observing process forces its prefix past the metas.
	if err := c.kvs[1].Sync(ctx); err != nil {
		t.Fatalf("sync: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[0] != "grant-1" || seen[1] != "grant-2" {
		t.Fatalf("observer saw %v, want [grant-1 grant-2]", seen)
	}
	if slots[0] >= slots[1] {
		t.Fatalf("meta slots out of commit order: %v", slots)
	}
	// Meta entries mutate no KV state.
	if _, ok, err := c.kvs[1].Get(ctx, ""); err != nil || ok {
		t.Fatalf("empty key visible after meta entries: %v/%v", ok, err)
	}
}

// TestKVGetIf checks the guarded read: the predicate decides served-ness in
// the same critical section as the lookup, which never waits for the node
// loop, and a canceled or stopped read serves nothing.
func TestKVGetIf(t *testing.T) {
	c := newSMRCluster(t, true)
	defer c.stop()
	ctx := ctxSec(t, 120)

	if _, err := c.kvs[0].Set(ctx, "color", "red"); err != nil {
		t.Fatalf("set: %v", err)
	}
	v, found, served, err := c.kvs[0].GetIf(ctx, "color", func() bool { return true })
	if err != nil || !served || !found || v != "red" {
		t.Fatalf("GetIf(true) = %q/%v/%v/%v", v, found, served, err)
	}
	_, found, served, err = c.kvs[0].GetIf(ctx, "color", func() bool { return false })
	if err != nil || served || found {
		t.Fatalf("GetIf(false) served=%v found=%v err=%v, want unserved", served, found, err)
	}
	m, served, err := c.kvs[0].GetManyIf(ctx, []string{"color", "missing"}, func() bool { return true })
	if err != nil || !served || len(m) != 1 || m["color"] != "red" {
		t.Fatalf("GetManyIf = %v/%v/%v", m, served, err)
	}

	// A read runs on the caller's goroutine: with the node loop blocked, a
	// guarded read still serves the applied value, well inside its context.
	release := make(chan struct{})
	c.nodes[0].Do(func() { <-release })
	blocked, cancel := context.WithTimeout(ctx, time.Second)
	v, found, served, err = c.kvs[0].GetIf(blocked, "color", func() bool { return true })
	cancel()
	close(release)
	if err != nil || !served || !found || v != "red" {
		t.Fatalf("GetIf with the loop blocked = %q/%v/%v/%v, want red served", v, found, served, err)
	}

	// A done context fails every read with ctx.Err(), a stopped store with
	// ErrStopped; neither serves.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	c.kvs[1].Stop()
	always := func() bool { return true }
	for _, tc := range []struct {
		name string
		kv   *KV
		ctx  context.Context
		want error
	}{
		{"canceled", c.kvs[0], canceled, context.Canceled},
		{"stopped", c.kvs[1], ctx, ErrStopped},
	} {
		if v, found, err := tc.kv.Get(tc.ctx, "color"); !errors.Is(err, tc.want) || found || v != "" {
			t.Errorf("%s: Get = %q/%v/%v, want %v", tc.name, v, found, err, tc.want)
		}
		if _, _, served, err := tc.kv.GetIf(tc.ctx, "color", always); !errors.Is(err, tc.want) || served {
			t.Errorf("%s: GetIf served=%v err=%v, want unserved %v", tc.name, served, err, tc.want)
		}
		if m, served, err := tc.kv.GetManyIf(tc.ctx, []string{"color"}, always); !errors.Is(err, tc.want) || served || m != nil {
			t.Errorf("%s: GetManyIf = %v/%v/%v, want unserved %v", tc.name, m, served, err, tc.want)
		}
	}
}

// TestKVReadsSeeWholeSlots: reads off the loop never observe a slot half
// applied. The loop applies two-command slots that set x and y to the same
// value, with one checkpoint Restore (x == y) in between, while readers
// hammer GetManyIf([x y]) from their own goroutines. Run it under -race.
func TestKVReadsSeeWholeSlots(t *testing.T) {
	c := newSMRCluster(t, true)
	defer c.stop()
	ctx := ctxSec(t, 120)
	kv, nd := c.kvs[0], c.nodes[0]

	// The slots are hand-made and far above any the idle log decides.
	const slots, readers, base = 2000, 8, 1 << 20
	var (
		stop  = make(chan struct{})
		wg    sync.WaitGroup
		reads atomic.Int64
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m, served, err := kv.GetManyIf(ctx, []string{"x", "y"}, func() bool { return true })
				if err != nil || !served {
					t.Errorf("GetManyIf: served=%v err=%v", served, err)
					return
				}
				if m["x"] != m["y"] {
					t.Errorf("torn slot: x=%q y=%q", m["x"], m["y"])
					return
				}
				reads.Add(1)
			}
		}()
	}
	for i := 0; i < slots; i++ {
		slot, val := int64(base+i), strconv.Itoa(i)
		if i == slots/2 {
			ckpt, err := wire.EncodeCheckpoint(wire.Checkpoint{
				Frontier: slot, State: map[string]string{"x": "restored", "y": "restored"},
			})
			if err != nil {
				t.Fatal(err)
			}
			nd.Do(func() {
				if err := kv.Restore(ckpt, slot); err != nil {
					t.Errorf("restore: %v", err)
				}
			})
		}
		v := wire.EncodeBatch(wire.SubBatch{Origin: 1, Seq: uint64(i + 1), Cmds: []string{
			kvCommand{Key: "x", Val: val}.encode(), kvCommand{Key: "y", Val: val}.encode(),
		}})
		nd.Do(func() { kv.applySlot(slot, v) })
	}
	nd.Call(func() {}) // every slot above has applied
	close(stop)
	wg.Wait()
	if x, _, err := kv.Get(ctx, "x"); err != nil || x != strconv.Itoa(slots-1) {
		t.Fatalf("final x = %q (%v), want %d", x, err, slots-1)
	}
	if reads.Load() == 0 {
		t.Fatal("no read ran concurrently with apply")
	}
}

// TestKVWaitApplied checks the holder-side visibility wait: it resolves once
// the applied state covers the slot and honors cancellation for slots that
// never decide.
func TestKVWaitApplied(t *testing.T) {
	c := newSMRCluster(t, true)
	defer c.stop()
	ctx := ctxSec(t, 120)

	slot, err := c.kvs[0].Set(ctx, "k", "v")
	if err != nil {
		t.Fatalf("set: %v", err)
	}
	if err := c.kvs[0].WaitApplied(ctx, slot); err != nil {
		t.Fatalf("WaitApplied(%d) at writer: %v", slot, err)
	}
	// A remote process converges on the same prefix (propagation-driven).
	if err := c.kvs[1].Sync(ctx); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := c.kvs[1].WaitApplied(ctx, slot); err != nil {
		t.Fatalf("WaitApplied(%d) at remote: %v", slot, err)
	}
	// An undecided slot blocks until the context gives up.
	shortCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := c.kvs[0].WaitApplied(shortCtx, 6); err == nil {
		t.Fatal("WaitApplied on undecided slot returned nil")
	}
}

// TestKVGateRunsOnAppendCompletion checks the append-completion hook: every
// committed append (Set, Sync, AppendMeta) runs the gate with its slot after
// the local prefix covers it.
func TestKVGateRunsOnAppendCompletion(t *testing.T) {
	c := newSMRCluster(t, true)
	defer c.stop()
	ctx := ctxSec(t, 120)

	var (
		mu    sync.Mutex
		gated []int64
	)
	c.kvs[2].SetGate(func(slot int64) {
		mu.Lock()
		gated = append(gated, slot)
		mu.Unlock()
	})

	slot, err := c.kvs[2].Set(ctx, "k", "v")
	if err != nil {
		t.Fatalf("set: %v", err)
	}
	if err := c.kvs[2].Sync(ctx); err != nil {
		t.Fatalf("sync: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(gated) != 2 || gated[0] != slot {
		t.Fatalf("gate saw %v, want [%d <sync slot>]", gated, slot)
	}
}
