package qaf

import (
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/node"
	"repro/internal/quorum"
	"repro/internal/transport"
)

// ruleCluster is a Figure-1 cluster with one instance "obj" per process,
// sending over a sendTap so that a test can count the SET_REQs a read
// sends. Its kind picks the access functions: "propagator" (generalized,
// one delta propagator per node, so held reports carry versions), "ticker"
// (generalized, per-instance ticker, reports without versions) or
// "classical".
type ruleCluster struct {
	tap   *sendTap
	nodes []*node.Node
	props []*Propagator
	accs  []Accessor
	gens  []*Generalized // nil for "classical"
	set   string         // the SET_REQ topic
}

func newRuleCluster(t *testing.T, kind string) *ruleCluster {
	t.Helper()
	qs := quorum.Figure1()
	c := &ruleCluster{tap: &sendTap{MemNetwork: transport.NewMem(4, fastDelay(), transport.WithSeed(5))}, set: "obj/set_req"}
	for i := 0; i < 4; i++ {
		nd := node.New(failure.Proc(i), c.tap)
		c.nodes = append(c.nodes, nd)
		if kind == "classical" {
			c.accs = append(c.accs, NewClassical(nd, "obj", &maxSM{}, qs.Reads, qs.Writes))
			c.set = "obj/cset_req"
			continue
		}
		cfg := GeneralizedConfig{Name: "obj", SM: &maxSM{}, Reads: qs.Reads, Writes: qs.Writes, Tick: 2 * time.Millisecond}
		if kind == "propagator" {
			cfg.Propagator = NewPropagator(nd, 2*time.Millisecond)
			c.props = append(c.props, cfg.Propagator)
		}
		g := NewGeneralized(nd, cfg)
		c.accs = append(c.accs, g)
		c.gens = append(c.gens, g)
	}
	t.Cleanup(c.stop)
	return c
}

func (c *ruleCluster) stop() {
	for _, a := range c.accs {
		a.Stop()
	}
	for _, p := range c.props {
		p.Stop()
	}
	for _, n := range c.nodes {
		n.Stop()
	}
	c.tap.Close()
}

// read is Figure 4's read over the accessor of process p: a Get, then a
// write-back of the largest state unless the Get proved it installed. It
// returns the value read, whether the Get reported it installed, and how
// many SET_REQ broadcasts p sent meanwhile.
func (c *ruleCluster) read(t *testing.T, p failure.Proc) (val int64, installed bool, setReqs int) {
	t.Helper()
	ctx := ctxSec(t, 10)
	before := len(c.tap.of(c.set, p, p))
	states, installed, err := c.accs[p].Get(ctx)
	if err != nil {
		t.Fatalf("Get at %d: %v", p, err)
	}
	val = maxState(t, states)
	if !installed {
		if err := c.accs[p].Set(ctx, enc(val)); err != nil {
			t.Fatalf("write-back at %d: %v", p, err)
		}
	}
	return val, installed, len(c.tap.of(c.set, p, p)) - before
}

// settle writes v through process 1 and waits until process 0 holds a
// report of state v from every process, and then a little longer, so that
// no push to process 0 is left in flight.
func (c *ruleCluster) settle(t *testing.T, v int64) {
	t.Helper()
	if err := c.accs[1].Set(ctxSec(t, 10), enc(v)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if c.gens == nil {
		return
	}
	g := c.gens[0]
	for deadline := time.Now().Add(10 * time.Second); ; {
		var states [][]byte
		c.nodes[0].Call(func() {
			for _, ob := range g.latest {
				states = append(states, ob.state)
			}
		})
		held := 0
		for _, s := range states {
			if dec(t, s) == v {
				held++
			}
		}
		if held == len(c.nodes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("process 0 holds state %d from %d of %d processes", v, held, len(c.nodes))
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond)
}

// hold replaces reports process 0 holds with those reports(top) returns.
// top is a clock above every process's own, so a report at top or above
// passes any cutoff a get can compute.
func (c *ruleCluster) hold(t *testing.T, reports func(top int64) map[failure.Proc]observed) {
	t.Helper()
	var top int64
	for _, g := range c.gens {
		top = max(top, g.Clock())
	}
	top += 1000
	g := c.gens[0]
	c.nodes[0].Call(func() {
		for p, ob := range reports(top) {
			g.latest[p] = ob
		}
	})
}

// TestReadWriteBackRule drives Figure 4's read over each kind of access
// functions and checks whether it writes back. Processes 0..3 are a..d:
// read quorums {a,c} and {b,d}, write quorums {a,b}, {b,c}, {c,d} and
// {d,a}. The crafted cases replace process a's held reports after a write
// of 7 has settled, so that its Get completes at once on read quorum {b,d}
// (a's report is below any cutoff) and returns 7.
func TestReadWriteBackRule(t *testing.T) {
	a, b, cc, d := failure.Proc(0), failure.Proc(1), failure.Proc(2), failure.Proc(3)
	old := func() observed { return observed{state: enc(3)} }
	cases := []struct {
		name, kind string
		reports    func(top int64) map[failure.Proc]observed
		installed  bool
	}{
		// Every held report is current: every write quorum covers 7 and, on
		// Figure 1, a read quorum always reaches the least such quorum's
		// highest version.
		{name: "all reports current", kind: "propagator", installed: true},
		// a and c hold an older state, and every write quorum holds a or c.
		{name: "older member in every write quorum", kind: "propagator", reports: func(top int64) map[failure.Proc]observed {
			return map[failure.Proc]observed{
				a: old(), cc: old(),
				b: {state: enc(7), clock: top, ver: 1},
				d: {state: enc(7), clock: top, ver: 1},
			}
		}},
		// W0 = {b,c} or {c,d} covers 7 with m = c's version top+1000, but
		// each read quorum holds a clock below m: a's, and b's top. R's
		// own versions are 1, so m taken from R would wrongly pass.
		{name: "every read quorum below m", kind: "propagator", reports: func(top int64) map[failure.Proc]observed {
			return map[failure.Proc]observed{
				a:  old(),
				b:  {state: enc(7), clock: top, ver: 1},
				cc: {state: enc(7), clock: top + 1000, ver: top + 1000},
				d:  {state: enc(7), clock: top, ver: 1},
			}
		}},
		// As above, but read quorum {b,d} reports clocks beyond m.
		{name: "one read quorum at m", kind: "propagator", installed: true, reports: func(top int64) map[failure.Proc]observed {
			return map[failure.Proc]observed{
				a:  old(),
				b:  {state: enc(7), clock: top + 2000, ver: 1},
				cc: {state: enc(7), clock: top + 1000, ver: top + 1000},
				d:  {state: enc(7), clock: top + 2000, ver: 1},
			}
		}},
		// Ticker pushes carry no version (ver = -1): never installed.
		{name: "per-instance ticker", kind: "ticker"},
		{name: "classical", kind: "classical"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newRuleCluster(t, tc.kind)
			c.settle(t, 7)
			if tc.reports != nil {
				c.hold(t, tc.reports)
			}
			val, installed, setReqs := c.read(t, a)
			if val != 7 {
				t.Fatalf("read %d, want 7", val)
			}
			want := 1
			if tc.installed {
				want = 0
			}
			if installed != tc.installed || setReqs != want {
				t.Fatalf("installed = %v with %d SET_REQ broadcasts, want %v with %d", installed, setReqs, tc.installed, want)
			}
		})
	}
}

// TestInstalledMetric: a Get proven installed is counted in Metrics.
func TestInstalledMetric(t *testing.T) {
	c := newRuleCluster(t, "propagator")
	c.settle(t, 7)
	if _, installed, _ := c.read(t, 0); !installed {
		t.Fatal("read after a settled write not proven installed")
	}
	if m := c.gens[0].Metrics(); m.Gets != 1 || m.Sets != 0 || m.Installed != 1 {
		t.Fatalf("metrics = %+v, want one get, no set, one installed", m)
	}
}
