package register

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/lincheck"
	"repro/internal/node"
	"repro/internal/qaf"
	"repro/internal/quorum"
	"repro/internal/transport"
)

func fastDelay() transport.MemOption {
	return transport.WithDelay(transport.UniformDelay{
		Min: 10 * time.Microsecond, Max: 300 * time.Microsecond,
	})
}

type regCluster struct {
	net   *transport.MemNetwork
	nodes []*node.Node
	props []*qaf.Propagator
	regs  []*Register
}

func (c *regCluster) stop() {
	for _, r := range c.regs {
		r.Stop()
	}
	for _, p := range c.props {
		p.Stop()
	}
	for _, n := range c.nodes {
		n.Stop()
	}
	c.net.Close()
}

// newRegCluster builds n register endpoints whose generalized access
// functions push state through the per-instance ticker.
func newRegCluster(t *testing.T, n int, opts Options, netOpts ...transport.MemOption) *regCluster {
	t.Helper()
	return newRegClusterWith(t, false, n, opts, netOpts...)
}

// newRegClusterWith is newRegCluster that, with propagate, gives every node
// a delta propagator instead, as core.Open does. Only then do the held
// state reports carry versions, so only then can a read skip its
// write-back.
func newRegClusterWith(t *testing.T, propagate bool, n int, opts Options, netOpts ...transport.MemOption) *regCluster {
	t.Helper()
	netOpts = append([]transport.MemOption{fastDelay(), transport.WithSeed(17)}, netOpts...)
	c := &regCluster{net: transport.NewMem(n, netOpts...)}
	if opts.Tick == 0 {
		opts.Tick = 2 * time.Millisecond
	}
	for i := 0; i < n; i++ {
		nd := node.New(failure.Proc(i), c.net)
		c.nodes = append(c.nodes, nd)
		o := opts
		if propagate {
			o.Propagator = qaf.NewPropagator(nd, opts.Tick)
			c.props = append(c.props, o.Propagator)
		}
		c.regs = append(c.regs, New(nd, o))
	}
	return c
}

// bothPropagations runs a test body once per way the generalized access
// functions propagate state: "ticker", where every read writes back, and
// "propagator", where reads skip a write-back the held reports prove
// redundant.
func bothPropagations(t *testing.T, body func(t *testing.T, propagate bool)) {
	for _, propagate := range []bool{false, true} {
		name := "ticker"
		if propagate {
			name = "propagator"
		}
		t.Run(name, func(t *testing.T) { body(t, propagate) })
	}
}

func ctxSec(t *testing.T, s int) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(s)*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestVersionOrdering(t *testing.T) {
	cases := []struct {
		a, b Version
		want bool
	}{
		{Version{1, 0}, Version{2, 0}, true},
		{Version{2, 0}, Version{1, 0}, false},
		{Version{1, 0}, Version{1, 1}, true},
		{Version{1, 1}, Version{1, 0}, false},
		{Version{1, 1}, Version{1, 1}, false},
	}
	sm := &stateMachine{}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		// A state covers another exactly when its version is not less.
		a := appendState(nil, State{Val: "a value", Ver: c.a})
		if got := sm.Covers(a, appendState(nil, State{Ver: c.b})); got != !c.want {
			t.Errorf("state at %v covers state at %v = %v, want %v", c.a, c.b, got, !c.want)
		}
	}
	if sm.Covers([]byte(`{garbage`), appendState(nil, State{})) {
		t.Error("an undecodable state covers the initial state")
	}
	if (Version{3, 1}).String() != "(3, 1)" {
		t.Error("Version.String broken")
	}
}

func TestStateMachineApply(t *testing.T) {
	sm := &stateMachine{}
	if err := sm.Apply(appendState(nil, State{Val: "a", Ver: Version{Num: 1}})); err != nil {
		t.Fatal(err)
	}
	if sm.cur.Val != "a" {
		t.Fatalf("val = %q", sm.cur.Val)
	}
	// Lower version must not overwrite.
	if err := sm.Apply(appendState(nil, State{Val: "old"})); err != nil {
		t.Fatal(err)
	}
	if sm.cur.Val != "a" {
		t.Fatal("lower version overwrote state")
	}
	// Garbage rejected.
	if err := sm.Apply([]byte(`{garbage`)); err == nil {
		t.Fatal("garbage update accepted")
	}
}

func TestWriteReadFailureFree(t *testing.T) {
	qs := quorum.Figure1()
	c := newRegCluster(t, 4, Options{Reads: qs.Reads, Writes: qs.Writes})
	defer c.stop()

	ctx := ctxSec(t, 15)
	v, err := c.regs[0].Write(ctx, "hello")
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if v.Num == 0 {
		t.Fatal("write version not assigned")
	}
	got, rv, err := c.regs[1].Read(ctx)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got != "hello" {
		t.Fatalf("Read = %q, want hello", got)
	}
	if rv != v {
		t.Fatalf("read version %v != write version %v", rv, v)
	}
}

func TestReadInitialValue(t *testing.T) {
	qs := quorum.Figure1()
	c := newRegCluster(t, 4, Options{Reads: qs.Reads, Writes: qs.Writes})
	defer c.stop()
	got, v, err := c.regs[2].Read(ctxSec(t, 15))
	if err != nil {
		t.Fatal(err)
	}
	if got != "" || v.Num != 0 {
		t.Fatalf("initial read = %q %v, want empty/zero", got, v)
	}
}

// TestWaitFreedomWithinUf is Theorem 1's liveness claim, validated
// operationally: under every pattern f_i of Figure 1, writes and reads
// invoked at both members of U_{f_i} terminate.
func TestWaitFreedomWithinUf(t *testing.T) {
	qs := quorum.Figure1()
	g := quorum.Network(4)
	for i, f := range qs.F.Patterns {
		f := f
		uf := qs.Uf(g, f).Elems()
		t.Run(f.Name, func(t *testing.T) {
			c := newRegCluster(t, 4, Options{Reads: qs.Reads, Writes: qs.Writes})
			defer c.stop()
			c.net.ApplyPattern(f)

			ctx := ctxSec(t, 30)
			for round := 0; round < 3; round++ {
				for _, p := range uf {
					val := fmt.Sprintf("%s-r%d-p%d", f.Name, round, p)
					if _, err := c.regs[p].Write(ctx, val); err != nil {
						t.Fatalf("Write at %d under %s: %v", p, f.Name, err)
					}
					got, _, err := c.regs[p].Read(ctx)
					if err != nil {
						t.Fatalf("Read at %d under %s: %v", p, f.Name, err)
					}
					if got != val {
						t.Fatalf("Read = %q, want %q (i=%d)", got, val, i)
					}
				}
			}
		})
	}
}

// TestLinearizableUnderF1 runs a concurrent workload at U_f1 = {a, b} under
// pattern f1 and verifies the recorded history with both the Wing-Gong
// search checker and the Appendix-B versioned checker.
func TestLinearizableUnderF1(t *testing.T) { bothPropagations(t, testLinearizableUnderF1) }

func testLinearizableUnderF1(t *testing.T, propagate bool) {
	qs := quorum.Figure1()
	c := newRegClusterWith(t, propagate, 4, Options{Reads: qs.Reads, Writes: qs.Writes})
	defer c.stop()
	c.net.ApplyPattern(qs.F.Patterns[0])

	h := lincheck.NewHistory()
	ctx := ctxSec(t, 60)
	var wg sync.WaitGroup
	for _, p := range []int{0, 1} { // U_f1 = {a, b}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if i%2 == 0 {
					val := fmt.Sprintf("p%d-%d", p, i)
					id := h.Begin(p, lincheck.KindWrite, val)
					v, err := c.regs[p].Write(ctx, val)
					if err != nil {
						t.Errorf("write: %v", err)
						h.Discard(id)
						return
					}
					h.End(id, "", v.Num, v.Proc)
				} else {
					id := h.Begin(p, lincheck.KindRead, "")
					out, v, err := c.regs[p].Read(ctx)
					if err != nil {
						t.Errorf("read: %v", err)
						h.Discard(id)
						return
					}
					h.End(id, out, v.Num, v.Proc)
				}
			}
		}(p)
	}
	wg.Wait()

	ops := h.Ops()
	if len(ops) != 12 {
		t.Fatalf("recorded %d ops, want 12", len(ops))
	}
	if err := lincheck.CheckVersioned(ops); err != nil {
		t.Fatalf("versioned linearizability check failed: %v\n%s", err, lincheck.FormatOps(ops))
	}
	ok, err := lincheck.CheckRegister(ops)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("history not linearizable:\n%s", lincheck.FormatOps(ops))
	}
}

// TestClassicalRegisterOnMajority exercises the classical (Figure 2)
// baseline on a crash-only majority system.
func TestClassicalRegisterOnMajority(t *testing.T) {
	qs := quorum.Majority(3, 1)
	c := newRegCluster(t, 3, Options{Reads: qs.Reads, Writes: qs.Writes, Classical: true})
	defer c.stop()
	c.net.Crash(2)

	ctx := ctxSec(t, 15)
	if _, err := c.regs[0].Write(ctx, "abd"); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, _, err := c.regs[1].Read(ctx)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got != "abd" {
		t.Fatalf("Read = %q", got)
	}
}

// TestClassicalStallsUnderF1 demonstrates the paper's motivation (§1,
// Example 3): the classical request/response pattern cannot make progress
// under pattern f1, because process c — a member of every read quorum that
// is available — cannot receive GET_REQ messages. The generalized register
// under the identical failure pattern completes (shown in other tests).
func TestClassicalStallsUnderF1(t *testing.T) {
	qs := quorum.Figure1()
	c := newRegCluster(t, 4, Options{Reads: qs.Reads, Writes: qs.Writes, Classical: true})
	defer c.stop()
	c.net.ApplyPattern(qs.F.Patterns[0])

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := c.regs[0].Write(ctx, "x"); err == nil {
		t.Fatal("classical register completed a write under f1; it must stall")
	}
}

// TestMWMRConcurrentWriters checks multi-writer behaviour: concurrent
// writers at distinct processes obtain distinct versions.
func TestMWMRConcurrentWriters(t *testing.T) {
	qs := quorum.Figure1()
	c := newRegCluster(t, 4, Options{Reads: qs.Reads, Writes: qs.Writes})
	defer c.stop()

	ctx := ctxSec(t, 30)
	var wg sync.WaitGroup
	vers := make([]Version, 4)
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			v, err := c.regs[p].Write(ctx, fmt.Sprintf("w%d", p))
			if err != nil {
				t.Errorf("write %d: %v", p, err)
				return
			}
			vers[p] = v
		}(p)
	}
	wg.Wait()
	seen := map[Version]bool{}
	for p, v := range vers {
		if v.Num == 0 {
			continue // write errored; already reported
		}
		if seen[v] {
			t.Fatalf("duplicate version %v at writer %d", v, p)
		}
		seen[v] = true
	}
	// A subsequent read returns one of the written values.
	got, _, err := c.regs[0].Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	valid := map[string]bool{"w0": true, "w1": true, "w2": true, "w3": true}
	if !valid[got] {
		t.Fatalf("read %q not among written values", got)
	}
}

// TestConcurrentWritesAtOneProcessGetDistinctVersions routes many
// concurrent writes through a single endpoint: their Get phases can all
// observe the same maximum version, and without per-process serialization
// of version numbers two of them would be acknowledged at one version with
// different values. Every write must get its own version, and a later read
// must return the value written at the highest one.
func TestConcurrentWritesAtOneProcessGetDistinctVersions(t *testing.T) {
	qs := quorum.Figure1()
	c := newRegCluster(t, 4, Options{Reads: qs.Reads, Writes: qs.Writes})
	defer c.stop()

	ctx := ctxSec(t, 60)
	const writers = 48
	var wg sync.WaitGroup
	vers := make([]Version, writers)
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			v, err := c.regs[0].Write(ctx, fmt.Sprintf("w%d", w))
			if err != nil {
				t.Errorf("write %d: %v", w, err)
				return
			}
			vers[w] = v
		}(w)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	byVer := map[Version]int{}
	top := 0
	for w, v := range vers {
		if prev, dup := byVer[v]; dup {
			t.Fatalf("writes %d and %d both acknowledged at version %v", prev, w, v)
		}
		byVer[v] = w
		if vers[top].Less(v) {
			top = w
		}
	}
	got, rv, err := c.regs[1].Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rv != vers[top] || got != fmt.Sprintf("w%d", top) {
		t.Fatalf("read %q at %v, want w%d at %v", got, rv, top, vers[top])
	}
}

func TestRegisterMetrics(t *testing.T) {
	qs := quorum.Figure1()
	c := newRegCluster(t, 4, Options{Reads: qs.Reads, Writes: qs.Writes})
	defer c.stop()
	ctx := ctxSec(t, 15)
	if _, err := c.regs[0].Write(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	m, ok := c.regs[0].Metrics()
	if !ok {
		t.Fatal("metrics unavailable")
	}
	if m.Gets != 1 || m.Sets != 1 {
		t.Fatalf("metrics = %+v, want one get and one set", m)
	}
}

// TestReadWriteBack: a read writes back unless its Get proved the value
// installed. Under delta propagation, once a write's state reports have
// reached the reader, its reads skip the write-back and still return the
// written value; over the per-instance ticker and the classical access
// functions every read writes back.
func TestReadWriteBack(t *testing.T) {
	qs := quorum.Figure1()
	for _, tc := range []struct {
		name           string
		propagate, cls bool
	}{{"propagator", true, false}, {"ticker", false, false}, {"classical", false, true}} {
		t.Run(tc.name, func(t *testing.T) {
			c := newRegClusterWith(t, tc.propagate, 4, Options{Reads: qs.Reads, Writes: qs.Writes, Classical: tc.cls})
			defer c.stop()
			ctx := ctxSec(t, 15)
			v, err := c.regs[1].Write(ctx, "x")
			if err != nil {
				t.Fatal(err)
			}
			// read reads at process 0 and reports whether it skipped the
			// write-back. Each read either is proven installed or writes
			// back, never both.
			read := func() bool {
				before, _ := c.regs[0].Metrics()
				got, rv, err := c.regs[0].Read(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if got != "x" || rv != v {
					t.Fatalf("read %q at %v, want x at %v", got, rv, v)
				}
				m, _ := c.regs[0].Metrics()
				installed, sets := m.Installed-before.Installed, m.Sets-before.Sets
				if installed+sets != 1 {
					t.Fatalf("read: %d proven installed, %d written back; want exactly one", installed, sets)
				}
				return installed == 1
			}
			if !tc.propagate {
				for i := 0; i < 5; i++ {
					if read() {
						t.Fatalf("read %d skipped its write-back", i)
					}
				}
				return
			}
			// Reads may write back until the write's pushes reach process
			// 0; from then on, with nothing new applied, none does.
			for i := 0; !read(); i++ {
				if i == 100 {
					t.Fatal("no read proven installed after 100 reads")
				}
				time.Sleep(5 * time.Millisecond)
			}
			for i := 0; i < 5; i++ {
				if !read() {
					t.Fatalf("read %d after an installed one wrote back", i)
				}
			}
		})
	}
}

func TestRegisterStopFailsFast(t *testing.T) {
	qs := quorum.Figure1()
	c := newRegCluster(t, 4, Options{Reads: qs.Reads, Writes: qs.Writes})
	defer c.stop()
	c.regs[0].Stop()
	if _, err := c.regs[0].Write(context.Background(), "x"); err == nil {
		t.Fatal("Write after Stop succeeded")
	}
}
