package smr

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
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
// the same loop step as the lookup.
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
