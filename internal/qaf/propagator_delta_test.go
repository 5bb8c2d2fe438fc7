package qaf

import (
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/node"
	"repro/internal/quorum"
	"repro/internal/transport"
)

// settleNet waits until the network's send rate drops to the idle liveness
// trickle (ping/pong probes only) and fails the test if it never does.
func settleNet(t *testing.T, net *transport.MemNetwork, perWindow int64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		before := net.Stats().Sent
		time.Sleep(100 * time.Millisecond)
		delta := net.Stats().Sent - before
		if delta <= perWindow {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never settled: still %d sends per 100ms", delta)
		}
	}
}

// TestPropagatorQuiescence: after traffic settles, a fully idle cluster's
// propagation layer sends ~0 messages per tick — no per-tick state
// re-broadcasts, only the node-level liveness probes (a ping/pong pair per
// peer pair per 100ms, independent of instance count). Asserted via the
// transport message counters, per the acceptance criterion.
func TestPropagatorQuiescence(t *testing.T) {
	const k = 8
	c := newPropCluster(t, 4, k)
	defer c.stop()
	ctx := ctxSec(t, 30)

	for j := 0; j < k; j++ {
		if err := c.accs[j%4][j].Set(ctx, enc(int64(100+j))); err != nil {
			t.Fatalf("Set obj%d: %v", j, err)
		}
	}
	settleNet(t, c.net, 30)
	// Steady state: measure one second. The seed's propagation floor was 4
	// full-state broadcasts per 2ms tick (2000/s, each k entries); the
	// liveness trickle is bounded by 6 peer pairs * <=4 probe messages per
	// 100ms = 240/s worst case, with no state payload. Assert well under
	// the seed floor and independent of k.
	before := c.net.Stats().Sent
	time.Sleep(time.Second)
	sent := c.net.Stats().Sent - before
	if sent > 300 {
		t.Fatalf("idle cluster sent %d messages/s (want probe trickle only, <= 300)", sent)
	}
}

// TestPropagatorDeltaTrafficScalesWithActivity: with k instances per node,
// touching one instance must not re-broadcast the other k-1. The message
// cost of a settled cluster doing one Set is independent of k.
func TestPropagatorDeltaTrafficScalesWithActivity(t *testing.T) {
	measure := func(k int) int64 {
		c := newPropCluster(t, 4, k)
		defer c.stop()
		ctx := ctxSec(t, 30)
		if err := c.accs[0][0].Set(ctx, enc(1)); err != nil {
			t.Fatal(err)
		}
		// Settle, then measure the cost of one Set plus its propagation
		// (the idle probe trickle rides along equally in both runs).
		settleNet(t, c.net, 30)
		before := c.net.Stats().Sent
		if err := c.accs[0][0].Set(ctx, enc(99)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond) // let propagation and acks drain
		return c.net.Stats().Sent - before
	}
	small, large := measure(2), measure(64)
	// Identical op on clusters hosting 2 vs 64 instances: allow scheduling
	// jitter and probe noise, but nothing near the 32x of full-state
	// re-broadcasts.
	if large > 3*small+16 {
		t.Fatalf("per-op traffic grew with instance count: k=2 cost %d, k=64 cost %d", small, large)
	}
}

// TestPropagatorCatchUpAfterHealMem: a replica partitioned during writes
// converges after the partition heals, through the targeted full-snapshot
// fallback: its next read observes the value written while it was away.
func TestPropagatorCatchUpAfterHealMem(t *testing.T) {
	c := newPropCluster(t, 4, 2)
	defer c.stop()
	ctx := ctxSec(t, 30)

	if err := c.accs[0][0].Set(ctx, enc(7)); err != nil {
		t.Fatalf("pre-partition Set: %v", err)
	}
	const victim = 3
	c.net.Isolate(victim)
	// Writes proceed while the victim is away: quorums among {0,1,2}
	// suffice (W1={0,1}, R1={0,2}).
	for i := int64(8); i <= 12; i++ {
		if err := c.accs[0][0].Set(ctx, enc(i)); err != nil {
			t.Fatalf("Set during partition: %v", err)
		}
	}
	c.net.Rejoin(victim)

	// The healed replica's next Get must complete (its stale observations
	// are refreshed by catch-up snapshots) and observe the latest value.
	states, _, err := c.accs[victim][0].Get(ctx)
	if err != nil {
		t.Fatalf("Get at healed replica: %v", err)
	}
	if got := maxState(t, states); got != 12 {
		t.Fatalf("healed replica observed %d, want 12", got)
	}
}

// TestPropagatorCatchUpAfterHealTCP is the same scenario over real TCP
// sockets, partitioned with the transport's block hook.
func TestPropagatorCatchUpAfterHealTCP(t *testing.T) {
	const n = 4
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	nets := make([]*transport.TCPNetwork, n)
	for i := range nets {
		tn, err := transport.NewTCP(failure.Proc(i), addrs)
		if err != nil {
			t.Fatalf("NewTCP(%d): %v", i, err)
		}
		nets[i] = tn
		defer tn.Close()
	}
	for i := range nets {
		for j := range nets {
			nets[j].SetPeerAddr(failure.Proc(i), nets[i].Addr())
		}
	}

	qs := quorum.Figure1()
	var nodes []*node.Node
	var props []*Propagator
	var accs []*Generalized
	for i := 0; i < n; i++ {
		nd := node.New(failure.Proc(i), nets[i])
		nodes = append(nodes, nd)
		prop := NewPropagator(nd, 2*time.Millisecond)
		props = append(props, prop)
		accs = append(accs, NewGeneralized(nd, GeneralizedConfig{
			Name: "obj", SM: &maxSM{},
			Reads: qs.Reads, Writes: qs.Writes,
			Propagator: prop,
		}))
	}
	defer func() {
		for _, a := range accs {
			a.Stop()
		}
		for _, p := range props {
			p.Stop()
		}
		for _, nd := range nodes {
			nd.Stop()
		}
	}()

	ctx := ctxSec(t, 60)
	if err := accs[0].Set(ctx, enc(7)); err != nil {
		t.Fatalf("pre-partition Set: %v", err)
	}
	const victim = 3
	setPartitionedTCP(nets, victim, true)
	for i := int64(8); i <= 12; i++ {
		if err := accs[0].Set(ctx, enc(i)); err != nil {
			t.Fatalf("Set during partition: %v", err)
		}
	}
	setPartitionedTCP(nets, victim, false)

	states, _, err := accs[victim].Get(ctx)
	if err != nil {
		t.Fatalf("Get at healed replica: %v", err)
	}
	if got := maxState(t, states); got != 12 {
		t.Fatalf("healed replica observed %d, want 12", got)
	}
}

// setPartitionedTCP blocks (or unblocks) all traffic between the victim and
// every other endpoint, on both sides.
func setPartitionedTCP(nets []*transport.TCPNetwork, victim int, on bool) {
	for i := range nets {
		if i == victim {
			continue
		}
		nets[i].SetPartitioned(failure.Proc(victim), on)
		nets[victim].SetPartitioned(failure.Proc(i), on)
	}
}

// TestPropagatorNudgeCompletesDivergedClocks: when one process's clock is
// far ahead (long unacked free-run), a Get whose cutoff lands on that clock
// must still complete promptly — the nudge path jumps laggards straight to
// the cutoff instead of ticking out the difference (+5000 at one tick each
// would take ~10s here).
func TestPropagatorNudgeCompletesDivergedClocks(t *testing.T) {
	c := newPropCluster(t, 4, 1)
	defer c.stop()
	ctx := ctxSec(t, 30)

	if err := c.accs[0][0].Set(ctx, enc(1)); err != nil {
		t.Fatal(err)
	}
	// Diverge process 2's clock directly (the deterministic equivalent of a
	// long asymmetric free-run), then crash process 0 so the Get's cutoff
	// must come from a write quorum containing process 2: W1={0,1} can no
	// longer answer, W2={1,2} carries the inflated clock.
	g2 := c.accs[2][0]
	c.nodes[2].Call(func() { g2.clock += 5000 })
	c.net.Crash(0)

	t0 := time.Now()
	states, _, err := c.accs[1][0].Get(ctx)
	if err != nil {
		t.Fatalf("Get with diverged clocks: %v", err)
	}
	if got := maxState(t, states); got != 1 {
		t.Fatalf("observed %d, want 1", got)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("diverged-clock Get took %v (nudge jump not working?)", elapsed)
	}
}
