package qaf

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/node"
	"repro/internal/quorum"
	"repro/internal/transport"
)

// propCluster builds n nodes each hosting k generalized accessors that all
// share one batched propagator per node.
type propCluster struct {
	net   *transport.MemNetwork
	nodes []*node.Node
	props []*Propagator
	// accs[i][j] = instance j at process i.
	accs [][]*Generalized
	sms  [][]*maxSM
}

func (c *propCluster) stop() {
	for _, row := range c.accs {
		for _, a := range row {
			a.Stop()
		}
	}
	for _, p := range c.props {
		p.Stop()
	}
	for _, n := range c.nodes {
		n.Stop()
	}
	c.net.Close()
}

func newPropCluster(t *testing.T, n, k int) *propCluster {
	t.Helper()
	qs := quorum.Figure1()
	c := &propCluster{net: transport.NewMem(n, fastDelay(), transport.WithSeed(77))}
	for i := 0; i < n; i++ {
		nd := node.New(failure.Proc(i), c.net)
		c.nodes = append(c.nodes, nd)
		prop := NewPropagator(nd, 2*time.Millisecond)
		c.props = append(c.props, prop)
		var row []*Generalized
		var smRow []*maxSM
		for j := 0; j < k; j++ {
			sm := &maxSM{}
			row = append(row, NewGeneralized(nd, GeneralizedConfig{
				Name:       fmt.Sprintf("obj%d", j),
				SM:         sm,
				Reads:      qs.Reads,
				Writes:     qs.Writes,
				Propagator: prop,
			}))
			smRow = append(smRow, sm)
		}
		c.accs = append(c.accs, row)
		c.sms = append(c.sms, smRow)
	}
	return c
}

// TestPropagatorBatchesMultipleInstances: several objects sharing a
// propagator all make progress and stay isolated from each other.
func TestPropagatorBatchesMultipleInstances(t *testing.T) {
	const k = 3
	c := newPropCluster(t, 4, k)
	defer c.stop()

	ctx := ctxSec(t, 20)
	for j := 0; j < k; j++ {
		want := int64(100 + j)
		if err := c.accs[0][j].Set(ctx, enc(want)); err != nil {
			t.Fatalf("Set obj%d: %v", j, err)
		}
	}
	for j := 0; j < k; j++ {
		states, _, err := c.accs[1][j].Get(ctx)
		if err != nil {
			t.Fatalf("Get obj%d: %v", j, err)
		}
		want := int64(100 + j)
		if got := maxState(t, states); got != want {
			t.Fatalf("obj%d: max state %d, want %d (cross-object contamination?)", j, got, want)
		}
	}
}

// TestPropagatorUnderF1: batched propagation preserves liveness within U_f.
func TestPropagatorUnderF1(t *testing.T) {
	qs := quorum.Figure1()
	c := newPropCluster(t, 4, 2)
	defer c.stop()
	c.net.ApplyPattern(qs.F.Patterns[0]) // U_f1 = {a, b}

	ctx := ctxSec(t, 20)
	if err := c.accs[0][1].Set(ctx, enc(55)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	states, _, err := c.accs[1][1].Get(ctx)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got := maxState(t, states); got != 55 {
		t.Fatalf("max state = %d", got)
	}
}

// TestPropagatorDetachOnStop: a stopped accessor no longer appears in the
// batch, and remaining instances keep working.
func TestPropagatorDetachOnStop(t *testing.T) {
	c := newPropCluster(t, 4, 2)
	defer c.stop()
	ctx := ctxSec(t, 20)

	c.accs[0][0].Stop() // detach obj0 at process a only
	if err := c.accs[1][1].Set(ctx, enc(9)); err != nil {
		t.Fatalf("Set on surviving object: %v", err)
	}
	if _, _, err := c.accs[1][1].Get(ctx); err != nil {
		t.Fatalf("Get on surviving object: %v", err)
	}
	if _, _, err := c.accs[0][0].Get(ctx); err != ErrStopped {
		t.Fatalf("stopped accessor Get = %v, want ErrStopped", err)
	}
}

// TestPropagatorMessageEconomy: k objects over a shared propagator send far
// fewer messages than k private tickers would.
func TestPropagatorMessageEconomy(t *testing.T) {
	const k = 4
	runForMessages := func(shared bool) int64 {
		qs := quorum.Figure1()
		net := transport.NewMem(4, fastDelay(), transport.WithSeed(5))
		defer net.Close()
		var nodes []*node.Node
		var accs []*Generalized
		var props []*Propagator
		for i := 0; i < 4; i++ {
			nd := node.New(failure.Proc(i), net)
			nodes = append(nodes, nd)
			var prop *Propagator
			if shared {
				prop = NewPropagator(nd, 2*time.Millisecond)
				props = append(props, prop)
			}
			for j := 0; j < k; j++ {
				accs = append(accs, NewGeneralized(nd, GeneralizedConfig{
					Name: fmt.Sprintf("o%d", j), SM: &maxSM{},
					Reads: qs.Reads, Writes: qs.Writes,
					Tick: 2 * time.Millisecond, Propagator: prop,
				}))
			}
		}
		time.Sleep(100 * time.Millisecond)
		sent := net.Stats().Sent
		for _, a := range accs {
			a.Stop()
		}
		for _, p := range props {
			p.Stop()
		}
		for _, nd := range nodes {
			nd.Stop()
		}
		return sent
	}
	private := runForMessages(false)
	shared := runForMessages(true)
	if shared*2 > private {
		t.Fatalf("batching saved too little: shared=%d private=%d", shared, private)
	}
}

// rawBody sends its bytes as a message body, as they are.
type rawBody []byte

func (r rawBody) AppendWire(b []byte) []byte { return append(b, r...) }

// TestPropagatorIgnoresGarbage: malformed batch messages are dropped and
// the objects keep working.
func TestPropagatorIgnoresGarbage(t *testing.T) {
	c := newPropCluster(t, 4, 1)
	defer c.stop()
	// Inject a malformed body on the propagator topic from process 0.
	c.nodes[0].Broadcast("qaf/prop", rawBody(`{"not":"entries"}`))
	// A well-formed envelope whose body is not a propagation batch: decode
	// fails, message dropped.
	time.Sleep(10 * time.Millisecond)
	ctx := ctxSec(t, 20)
	if err := c.accs[0][0].Set(ctx, enc(3)); err != nil {
		t.Fatalf("Set after garbage: %v", err)
	}
	states, _, err := c.accs[1][0].Get(ctx)
	if err != nil {
		t.Fatalf("Get after garbage: %v", err)
	}
	if got := maxState(t, states); got != 3 {
		t.Fatalf("max state = %d", got)
	}
}
