package qaf

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/quorum"
	"repro/internal/transport"
)

// maxSM is a toy top-level protocol state: a monotonically growing int64.
// The update descriptor is a JSON int64; Apply keeps the maximum. Because
// updates commute and are idempotent, Validity is easy to check: any
// returned state must equal the max of some subset of issued updates.
type maxSM struct {
	v int64
}

func (s *maxSM) Snapshot() []byte {
	b, _ := json.Marshal(s.v)
	return b
}

func (s *maxSM) Apply(update []byte) error {
	var u int64
	if err := json.Unmarshal(update, &u); err != nil {
		return err
	}
	if u > s.v {
		s.v = u
	}
	return nil
}

// Covers orders states by value: a larger maximum holds every smaller one.
func (s *maxSM) Covers(a, b []byte) bool {
	var x, y int64
	return json.Unmarshal(a, &x) == nil && json.Unmarshal(b, &y) == nil && x >= y
}

func enc(v int64) []byte {
	b, _ := json.Marshal(v)
	return b
}

func dec(t *testing.T, b []byte) int64 {
	t.Helper()
	var v int64
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("bad state %q: %v", b, err)
	}
	return v
}

func maxState(t *testing.T, states [][]byte) int64 {
	t.Helper()
	var m int64
	for _, s := range states {
		if v := dec(t, s); v > m {
			m = v
		}
	}
	return m
}

func fastDelay() transport.MemOption {
	return transport.WithDelay(transport.UniformDelay{
		Min: 10 * time.Microsecond, Max: 300 * time.Microsecond,
	})
}

type cluster struct {
	net   *transport.MemNetwork
	nodes []*node.Node
	accs  []Accessor
	sms   []*maxSM
}

func (c *cluster) stop() {
	for _, a := range c.accs {
		if a != nil {
			a.Stop()
		}
	}
	for _, n := range c.nodes {
		if n != nil {
			n.Stop()
		}
	}
	c.net.Close()
}

func newClassicalCluster(t *testing.T, n int, reads, writes []graph.BitSet) *cluster {
	t.Helper()
	c := &cluster{net: transport.NewMem(n, fastDelay(), transport.WithSeed(42))}
	for i := 0; i < n; i++ {
		nd := node.New(failure.Proc(i), c.net)
		sm := &maxSM{}
		c.nodes = append(c.nodes, nd)
		c.sms = append(c.sms, sm)
		c.accs = append(c.accs, NewClassical(nd, "t", sm, reads, writes))
	}
	return c
}

func newGeneralizedCluster(t *testing.T, n int, reads, writes []graph.BitSet, opts ...transport.MemOption) *cluster {
	t.Helper()
	opts = append([]transport.MemOption{fastDelay(), transport.WithSeed(42)}, opts...)
	c := &cluster{net: transport.NewMem(n, opts...)}
	for i := 0; i < n; i++ {
		nd := node.New(failure.Proc(i), c.net)
		sm := &maxSM{}
		c.nodes = append(c.nodes, nd)
		c.sms = append(c.sms, sm)
		c.accs = append(c.accs, NewGeneralized(nd, GeneralizedConfig{
			Name: "t", SM: sm, Reads: reads, Writes: writes,
			Tick: 2 * time.Millisecond,
		}))
	}
	return c
}

func ctxSec(t *testing.T, s int) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(s)*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestClassicalGetSetRoundTrip(t *testing.T) {
	qs := quorum.Majority(3, 1)
	c := newClassicalCluster(t, 3, qs.Reads, qs.Writes)
	defer c.stop()

	ctx := ctxSec(t, 10)
	if err := c.accs[0].Set(ctx, enc(7)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	states, _, err := c.accs[1].Get(ctx)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	// Real-time ordering: at least one returned state incorporates 7.
	if got := maxState(t, states); got != 7 {
		t.Fatalf("max state = %d, want 7", got)
	}
}

func TestClassicalLivenessUnderMinorityCrash(t *testing.T) {
	qs := quorum.Majority(3, 1)
	c := newClassicalCluster(t, 3, qs.Reads, qs.Writes)
	defer c.stop()

	c.net.Crash(2)
	ctx := ctxSec(t, 10)
	if err := c.accs[0].Set(ctx, enc(3)); err != nil {
		t.Fatalf("Set under crash: %v", err)
	}
	states, _, err := c.accs[1].Get(ctx)
	if err != nil {
		t.Fatalf("Get under crash: %v", err)
	}
	if got := maxState(t, states); got != 3 {
		t.Fatalf("max state = %d, want 3", got)
	}
}

func TestClassicalBlocksWithoutQuorum(t *testing.T) {
	qs := quorum.Majority(3, 1)
	c := newClassicalCluster(t, 3, qs.Reads, qs.Writes)
	defer c.stop()

	// Crash a majority: no write quorum of correct processes remains
	// reachable... write quorums have size 2, and only one process is alive.
	c.net.Crash(1)
	c.net.Crash(2)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := c.accs[0].Set(ctx, enc(1)); err == nil {
		t.Fatal("Set completed without a live write quorum")
	}
}

func TestGeneralizedFailureFree(t *testing.T) {
	qs := quorum.Figure1()
	c := newGeneralizedCluster(t, 4, qs.Reads, qs.Writes)
	defer c.stop()

	ctx := ctxSec(t, 10)
	if err := c.accs[0].Set(ctx, enc(11)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	states, _, err := c.accs[1].Get(ctx)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got := maxState(t, states); got != 11 {
		t.Fatalf("max state = %d, want 11", got)
	}
}

// TestGeneralizedUnderEachFigure1Pattern is the operational core of
// Theorem 4 (Liveness) and Theorem 3 (Real-time ordering): under every
// failure pattern f_i of Figure 1, Set at one member of U_f followed by Get
// at another member of U_f completes and observes the update — even though
// read-quorum members cannot be queried directly.
func TestGeneralizedUnderEachFigure1Pattern(t *testing.T) {
	qs := quorum.Figure1()
	g := quorum.Network(4)
	for i, f := range qs.F.Patterns {
		f := f
		uf := qs.Uf(g, f).Elems()
		t.Run(f.Name, func(t *testing.T) {
			c := newGeneralizedCluster(t, 4, qs.Reads, qs.Writes)
			defer c.stop()
			c.net.ApplyPattern(f)

			setter := c.accs[uf[0]]
			getter := c.accs[uf[1]]
			ctx := ctxSec(t, 20)
			want := int64(100 + i)
			if err := setter.Set(ctx, enc(want)); err != nil {
				t.Fatalf("Set at %d under %s: %v", uf[0], f.Name, err)
			}
			states, _, err := getter.Get(ctx)
			if err != nil {
				t.Fatalf("Get at %d under %s: %v", uf[1], f.Name, err)
			}
			if got := maxState(t, states); got != want {
				t.Fatalf("max state = %d, want %d", got, want)
			}
		})
	}
}

// TestGeneralizedRealTimeOrderingSequence drives a chain of Set/Get pairs
// across different U_f members, checking every Get observes the latest
// completed Set (Theorem 3).
func TestGeneralizedRealTimeOrderingSequence(t *testing.T) {
	qs := quorum.Figure1()
	c := newGeneralizedCluster(t, 4, qs.Reads, qs.Writes)
	defer c.stop()
	f1 := qs.F.Patterns[0]
	c.net.ApplyPattern(f1) // U_f1 = {a, b}

	ctx := ctxSec(t, 30)
	for i := int64(1); i <= 5; i++ {
		setter := c.accs[i%2]     // alternate a, b
		getter := c.accs[(i+1)%2] // the other one
		if err := setter.Set(ctx, enc(i*10)); err != nil {
			t.Fatalf("Set %d: %v", i, err)
		}
		states, _, err := getter.Get(ctx)
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if got := maxState(t, states); got < i*10 {
			t.Fatalf("Get %d observed %d, want >= %d (real-time ordering violated)", i, got, i*10)
		}
	}
}

// TestGeneralizedValidity checks that every state returned by Get is the
// result of applying a subset of the issued updates: with the max-register
// SM, any state must be 0 or one of the issued values.
func TestGeneralizedValidity(t *testing.T) {
	qs := quorum.Figure1()
	c := newGeneralizedCluster(t, 4, qs.Reads, qs.Writes)
	defer c.stop()

	ctx := ctxSec(t, 20)
	issued := map[int64]bool{0: true}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := int64(1); i <= 4; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			mu.Lock()
			issued[i*7] = true
			mu.Unlock()
			if err := c.accs[i%4].Set(ctx, enc(i*7)); err != nil {
				t.Errorf("Set: %v", err)
			}
		}(i)
	}
	wg.Wait()
	states, _, err := c.accs[0].Get(ctx)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	for _, s := range states {
		v := dec(t, s)
		if !issued[v] {
			t.Fatalf("state %d was never issued (validity violated)", v)
		}
	}
}

// TestGeneralizedGetTimesOutWhenUnavailable: if the whole write quorum side
// is gone (every process except one crashed), the cutoff phase cannot finish
// and Get must respect the context deadline.
func TestGeneralizedGetTimesOutWhenUnavailable(t *testing.T) {
	qs := quorum.Figure1()
	c := newGeneralizedCluster(t, 4, qs.Reads, qs.Writes)
	defer c.stop()
	c.net.Crash(1)
	c.net.Crash(2)
	c.net.Crash(3)

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, _, err := c.accs[0].Get(ctx); err == nil {
		t.Fatal("Get completed without any available quorum")
	}
}

func TestGeneralizedStopReleasesBlockedCalls(t *testing.T) {
	qs := quorum.Figure1()
	c := newGeneralizedCluster(t, 4, qs.Reads, qs.Writes)
	defer c.stop()
	c.net.Crash(1)
	c.net.Crash(2)
	c.net.Crash(3)

	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.accs[0].Get(context.Background())
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	c.accs[0].Stop()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("blocked Get returned nil after Stop")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Get not released by Stop")
	}
	// Subsequent calls fail fast.
	if _, _, err := c.accs[0].Get(context.Background()); err != ErrStopped {
		t.Fatalf("Get after Stop = %v, want ErrStopped", err)
	}
	if err := c.accs[0].Set(context.Background(), enc(1)); err != ErrStopped {
		t.Fatalf("Set after Stop = %v, want ErrStopped", err)
	}
}

func TestClassicalStopReleasesBlockedCalls(t *testing.T) {
	qs := quorum.Majority(3, 1)
	c := newClassicalCluster(t, 3, qs.Reads, qs.Writes)
	defer c.stop()
	c.net.Crash(1)
	c.net.Crash(2)

	errCh := make(chan error, 1)
	go func() {
		errCh <- c.accs[0].Set(context.Background(), enc(1))
	}()
	time.Sleep(50 * time.Millisecond)
	c.accs[0].Stop()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("blocked Set returned nil after Stop")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Set not released by Stop")
	}
}

// TestGeneralizedConcurrentMixedLoad hammers the accessor from several
// goroutines under f1 to shake out races (run with -race).
func TestGeneralizedConcurrentMixedLoad(t *testing.T) {
	qs := quorum.Figure1()
	c := newGeneralizedCluster(t, 4, qs.Reads, qs.Writes)
	defer c.stop()
	c.net.ApplyPattern(qs.F.Patterns[0]) // U_f1 = {a, b}

	ctx := ctxSec(t, 30)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := c.accs[w%2]
			for i := 0; i < 5; i++ {
				if err := acc.Set(ctx, enc(int64(w*100+i))); err != nil {
					t.Errorf("worker %d Set: %v", w, err)
					return
				}
				if _, _, err := acc.Get(ctx); err != nil {
					t.Errorf("worker %d Get: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestGeneralizedClockMonotone: the logical clock at a process never
// decreases and advances under periodic propagation.
func TestGeneralizedClockMonotone(t *testing.T) {
	qs := quorum.Figure1()
	c := newGeneralizedCluster(t, 4, qs.Reads, qs.Writes)
	defer c.stop()
	g, ok := c.accs[0].(*Generalized)
	if !ok {
		t.Fatal("accessor is not *Generalized")
	}
	prev := g.Clock()
	for i := 0; i < 5; i++ {
		time.Sleep(5 * time.Millisecond)
		cur := g.Clock()
		if cur < prev {
			t.Fatalf("clock went backwards: %d -> %d", prev, cur)
		}
		prev = cur
	}
	if prev == 0 {
		t.Fatal("clock never advanced")
	}
}

func TestMetricsCount(t *testing.T) {
	qs := quorum.Figure1()
	c := newGeneralizedCluster(t, 4, qs.Reads, qs.Writes)
	defer c.stop()
	ctx := ctxSec(t, 10)
	g := c.accs[0].(*Generalized)
	if err := g.Set(ctx, enc(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Get(ctx); err != nil {
		t.Fatal(err)
	}
	m := g.Metrics()
	if m.Gets != 1 || m.Sets != 1 {
		t.Fatalf("metrics = %+v, want 1/1", m)
	}
}

func TestQuorumContaining(t *testing.T) {
	family := []graph.BitSet{
		graph.BitSetOf(4, 0, 1),
		graph.BitSetOf(4, 2, 3),
	}
	if got := quorumContaining(family, graph.BitSetOf(4, 0, 1, 2)); got != 0 {
		t.Fatalf("got %d, want 0", got)
	}
	if got := quorumContaining(family, graph.BitSetOf(4, 2, 3)); got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
	if got := quorumContaining(family, graph.BitSetOf(4, 0, 2)); got != -1 {
		t.Fatalf("got %d, want -1", got)
	}
}

// Ensure test names referencing sub-benchmarks compile cleanly.
var _ = fmt.Sprintf
