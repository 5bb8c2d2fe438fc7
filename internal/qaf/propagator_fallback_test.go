package qaf

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/wire"
)

// probe is one process hosting a Propagator whose ticker never fires, so a
// test drives it by delivering propagation bodies by hand. The other
// processes of the two-process network host nothing; tap logs what is sent.
type probe struct {
	net   *transport.MemNetwork
	tap   *sendTap
	nodes []*node.Node
	prop  *Propagator
	accs  map[string]*Generalized
}

// newProbe hosts one instance per name at process 0, with the single read
// and write quorum {0, 1}.
func newProbe(names ...string) *probe {
	all := graph.BitSetOf(2, 0, 1)
	pr := &probe{net: transport.NewMem(2, fastDelay(), transport.WithSeed(3)), accs: make(map[string]*Generalized)}
	pr.tap = &sendTap{MemNetwork: pr.net}
	for i := 0; i < 2; i++ {
		pr.nodes = append(pr.nodes, node.New(failure.Proc(i), pr.tap))
	}
	pr.prop = NewPropagator(pr.nodes[0], time.Hour)
	for _, name := range names {
		pr.accs[name] = NewGeneralized(pr.nodes[0], GeneralizedConfig{
			Name: name, SM: &maxSM{},
			Reads: []graph.BitSet{all}, Writes: []graph.BitSet{all},
			Propagator: pr.prop,
		})
	}
	pr.nodes[0].Call(func() {}) // the attaches have run
	return pr
}

func (pr *probe) stop() {
	for _, g := range pr.accs {
		g.Stop()
	}
	pr.prop.Stop()
	for _, n := range pr.nodes {
		n.Stop()
	}
	pr.net.Close()
}

// deliver hands a raw qaf/prop body from `from` to process 0's propagator.
func (pr *probe) deliver(from failure.Proc, body []byte) {
	pr.nodes[0].Call(func() { pr.prop.onProp(from, wire.Message{Topic: "qaf/prop", Body: body}) })
}

// push delivers propagation entries from `from`.
func (pr *probe) push(t *testing.T, from failure.Proc, entries ...wire.Prop) {
	t.Helper()
	pr.deliver(from, wire.Props(entries).AppendWire(nil))
}

// held returns the report process 0 holds from `from` for one instance.
func (pr *probe) held(name string, from failure.Proc) (ob observed, ok bool) {
	g := pr.accs[name]
	pr.nodes[0].Call(func() { ob, ok = g.latest[from] })
	return ob, ok
}

// TestClockOnlyPushNeedsMatchingVersion: a clock-only entry raises the held
// clock only when the held report is of the entry's version. One of another
// version leaves the report and a pending phase-2 Get untouched; the Get
// completes, with the new state, once the full entry arrives.
func TestClockOnlyPushNeedsMatchingVersion(t *testing.T) {
	pr := newProbe("obj")
	defer pr.stop()
	g := pr.accs["obj"]

	pr.push(t, 0, wire.Prop{Name: "obj", State: enc(0), Clock: 100})
	pr.push(t, 1, wire.Prop{Name: "obj", State: enc(1), Clock: 10, V: 7})
	var pg *genPendingGet
	pr.nodes[0].Call(func() {
		g.seq++
		pg = &genPendingGet{cGet: 50, phase: 2, done: make(chan [][]byte, 1)}
		g.gets[g.seq] = pg
	})
	pending := func(step string) {
		t.Helper()
		select {
		case states := <-pg.done:
			t.Fatalf("%s: Get completed with %q", step, states)
		default:
		}
	}

	pr.push(t, 1, wire.Prop{Name: "obj", Clock: 40, V: 7})
	if ob, _ := pr.held("obj", 1); ob.clock != 40 {
		t.Fatalf("clock-only entry of the held version: held clock %d, want 40", ob.clock)
	}
	pending("matching version below the cutoff")

	pr.push(t, 1, wire.Prop{Name: "obj", Clock: 60, V: 8})
	if ob, _ := pr.held("obj", 1); ob.clock != 40 || ob.ver != 7 {
		t.Fatalf("clock-only entry of another version moved the report to clock %d version %d", ob.clock, ob.ver)
	}
	pending("version mismatch")

	pr.push(t, 1, wire.Prop{Name: "obj", State: enc(2), Clock: 60, V: 8})
	select {
	case states := <-pg.done:
		if got := maxState(t, states); got != 2 {
			t.Fatalf("Get returned max state %d, want the new state 2", got)
		}
	default:
		t.Fatal("Get still pending after the full entry")
	}
}

// TestFallbackClocksFollowWallClock: under f1 every live process has a
// silent peer, so its instances' clocks are floored by the wall clock — a
// jump of the propagators' clock shows up in every live clock within a few
// ticks.
func TestFallbackClocksFollowWallClock(t *testing.T) {
	c := newPropCluster(t, 4, 2)
	defer c.stop()
	fake := clock.NewFake()
	for i, p := range c.props {
		c.nodes[i].Call(func() { p.clk = fake })
	}
	c.net.ApplyPattern(quorum.Figure1().F.Patterns[0]) // d crashed
	live := c.accs[:3]
	reach := func(min int64, within time.Duration) {
		t.Helper()
		deadline := time.Now().Add(within)
		for _, row := range live {
			for _, g := range row {
				for g.Clock() < min {
					if time.Now().After(deadline) {
						t.Fatalf("clock %d still below the wall-clock floor %d after %v", g.Clock(), min, within)
					}
					time.Sleep(time.Millisecond)
				}
			}
		}
	}
	// The fallback engages once a peer has been silent for downTicks.
	reach(fake.Now().UnixMicro(), 10*time.Second)
	fake.Advance(time.Hour)
	reach(fake.Now().UnixMicro(), time.Second)
}

// TestF1LatencyDoesNotGrow: under f1, c hears nobody, so a read quorum
// {a, c} waits for c's spontaneously advancing clock to pass cutoffs set by
// the write quorum {a, b}, whose clocks also move on every applied update.
// The wall-clock floor keeps that gap bounded: latency late in a sequence
// of operations stays close to latency early in it.
func TestF1LatencyDoesNotGrow(t *testing.T) {
	c := newPropCluster(t, 4, 16)
	defer c.stop()
	c.net.ApplyPattern(quorum.Figure1().F.Patterns[0])
	ctx := ctxSec(t, 120)
	acc := c.accs[0][0]
	pair := func(v int64) time.Duration {
		t0 := time.Now()
		if err := acc.Set(ctx, enc(v)); err != nil {
			t.Fatalf("Set %d: %v", v, err)
		}
		states, _, err := acc.Get(ctx)
		if err != nil {
			t.Fatalf("Get after Set %d: %v", v, err)
		}
		if got := maxState(t, states); got != v {
			t.Fatalf("Get after Set %d returned %d", v, got)
		}
		return time.Since(t0)
	}
	pair(1) // waits out the fallback's engagement
	var lat []time.Duration
	for i := int64(0); i < 60; i++ {
		lat = append(lat, pair(i+2))
	}
	median := func(d []time.Duration) time.Duration {
		s := slices.Clone(d)
		slices.Sort(s)
		return s[len(s)/2]
	}
	first, last := median(lat[:10]), median(lat[50:])
	if last > 3*first+10*time.Millisecond {
		t.Fatalf("latency grows with operations: median of the first 10 pairs %v, of the last 10 %v", first, last)
	}
}

// FuzzPropagatorEntries delivers arbitrary bytes as a qaf/prop body. It must
// never panic, and the held reports must change exactly as the entries
// allow: a full entry replaces an older report, and a clock-only entry
// raises the clock only of a report whose version equals the entry's V.
func FuzzPropagatorEntries(f *testing.F) {
	full := wire.Prop{Name: "a", State: []byte("3"), Clock: 5, V: 3}
	for _, seed := range [][]byte{
		wire.Props{full}.AppendWire(nil),
		wire.Props{{Name: "a", Clock: 9, V: 3}}.AppendWire(nil),
		wire.Props{{Name: "a", Clock: 9, V: 4}}.AppendWire(nil),
		wire.Props{full, {Name: "a", Clock: 9, V: 3}, {Name: "b", Clock: 2}}.AppendWire(nil),
		wire.Props{{Name: "b", State: []byte{}, Clock: 7}}.AppendWire(nil),
		wire.Props{{Name: "zz", State: []byte("3"), Clock: 1}}.AppendWire(nil),
		{2, 1, 'a', 1, '3', 10, 6}, // two entries announced, the second missing
		[]byte(`{"not":"entries"}`),
		[]byte(`null`),
		{1},
		{},
	} {
		f.Add(seed)
	}
	names := []string{"a", "b"}
	pr := newProbe(names...)
	f.Cleanup(pr.stop)
	const from = failure.Proc(1)

	f.Fuzz(func(t *testing.T, body []byte) {
		want := make(map[string]observed)
		for _, name := range names {
			if ob, ok := pr.held(name, from); ok {
				want[name] = ob
			}
		}
		var entries wire.Props
		if entries.DecodeWire(body) == nil {
			for _, e := range entries {
				if !slices.Contains(names, e.Name) {
					continue
				}
				cur, ok := want[e.Name]
				switch {
				case len(e.State) > 0:
					if !ok || e.Clock > cur.clock {
						want[e.Name] = observed{state: e.State, clock: e.Clock, ver: e.V}
					}
				case ok && cur.ver == e.V && e.Clock > cur.clock:
					cur.clock = e.Clock
					want[e.Name] = cur
				}
			}
		}
		pr.deliver(from, body)
		for _, name := range names {
			got, ok := pr.held(name, from)
			w, wok := want[name]
			if ok != wok || got.clock != w.clock || got.ver != w.ver || !bytes.Equal(got.state, w.state) {
				t.Fatalf("instance %s: held (%v, clock %d, version %d, state %q), want (%v, clock %d, version %d, state %q)",
					name, ok, got.clock, got.ver, got.state, wok, w.clock, w.ver, w.state)
			}
		}
	})
}
