package smr

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/node"
	"repro/internal/quorum"
	"repro/internal/transport"
)

// newSMRClusterSlots is newSMRCluster with a configurable log capacity.
func newSMRClusterSlots(t *testing.T, slots int) *smrCluster {
	t.Helper()
	qs := quorum.Figure1()
	c := &smrCluster{net: transport.NewMem(4,
		transport.WithDelay(transport.UniformDelay{Min: 10 * time.Microsecond, Max: 300 * time.Microsecond}),
		transport.WithSeed(64))}
	for i := 0; i < 4; i++ {
		nd := node.New(failure.Proc(i), c.net)
		c.nodes = append(c.nodes, nd)
		c.logs = append(c.logs, New(nd, Options{
			Slots: slots, Reads: qs.Reads, Writes: qs.Writes, ViewC: 15 * time.Millisecond,
		}))
	}
	return c
}

// TestIdleLogViewTraffic: an idle log must not emit one message per slot
// per view entry. With activity-gated view participation, each process
// sends a single batched default-1B message per view — the seed sent
// `slots` messages (64 here), which is what capped log capacity.
func TestIdleLogViewTraffic(t *testing.T) {
	c := newSMRClusterSlots(t, 64)
	defer c.stop()

	// Let view timing reach steady state, then count sends across a window
	// of several views (ViewC 15ms; views grow v*C, so entries come slower
	// over time — bound views generously from above instead of exactly).
	time.Sleep(200 * time.Millisecond)
	before := c.net.Stats().Sent
	time.Sleep(600 * time.Millisecond)
	sent := c.net.Stats().Sent - before

	// 600ms of growing views is at most ~8 view entries across 4 processes.
	// One range message per process per view entry, so ~32 plus slack; one
	// message per idle slot would be 64x that.
	const limit = 120
	if sent > limit {
		t.Fatalf("idle log sent %d messages in 600ms (want <= %d: one batch per process per view, not one per slot)", sent, limit)
	}
}

// TestDecidedSlotsGoSilent: once slots are decided everywhere, they stop
// participating in views entirely; steady-state traffic returns to the one
// idle batch per process per view.
func TestDecidedSlotsGoSilent(t *testing.T) {
	c := newSMRClusterSlots(t, 16)
	defer c.stop()
	ctx := ctxSec(t, 60)

	for i := 0; i < 4; i++ {
		if _, err := c.logs[0].Append(ctx, fmt.Sprintf("quiet-%d", i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// Wait for decisions to spread, then measure steady-state traffic.
	time.Sleep(300 * time.Millisecond)
	before := c.net.Stats().Sent
	time.Sleep(600 * time.Millisecond)
	sent := c.net.Stats().Sent - before
	const limit = 120
	if sent > limit {
		t.Fatalf("log with 4 decided slots sent %d messages in 600ms steady state (want <= %d)", sent, limit)
	}
	// And every process still converged on the same decided prefix.
	for p := 0; p < 4; p++ {
		prefix, err := c.logs[p].DecidedPrefix(ctx)
		if err != nil {
			t.Fatalf("prefix at %d: %v", p, err)
		}
		if len(prefix) != 4 {
			t.Fatalf("process %d decided prefix %v, want 4 commands", p, prefix)
		}
	}
}
