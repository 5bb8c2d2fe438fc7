package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
)

// collector records delivered payloads for one process.
type collector struct {
	mu   sync.Mutex
	msgs []string
	ch   chan string
}

func newCollector() *collector {
	return &collector{ch: make(chan string, 1024)}
}

func (c *collector) handler(from failure.Proc, payload []byte) {
	s := fmt.Sprintf("%d:%s", from, payload)
	c.mu.Lock()
	c.msgs = append(c.msgs, s)
	c.mu.Unlock()
	select {
	case c.ch <- s:
	default:
	}
}

func (c *collector) waitFor(t *testing.T, want string, d time.Duration) {
	t.Helper()
	deadline := time.After(d)
	for {
		c.mu.Lock()
		for _, m := range c.msgs {
			if m == want {
				c.mu.Unlock()
				return
			}
		}
		c.mu.Unlock()
		select {
		case <-c.ch:
		case <-deadline:
			t.Fatalf("timed out waiting for %q; got %v", want, c.snapshot())
		}
	}
}

func (c *collector) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.msgs))
	copy(out, c.msgs)
	return out
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func fastDelay() MemOption {
	return WithDelay(UniformDelay{Min: 10 * time.Microsecond, Max: 200 * time.Microsecond})
}

func TestMemDirectDelivery(t *testing.T) {
	m := NewMem(3, fastDelay())
	defer m.Close()
	c := newCollector()
	m.Register(1, c.handler)
	m.Send(0, 1, []byte("hello"))
	c.waitFor(t, "0:hello", 2*time.Second)
}

func TestMemSelfDelivery(t *testing.T) {
	m := NewMem(2, fastDelay())
	defer m.Close()
	c := newCollector()
	m.Register(0, c.handler)
	m.Send(0, 0, []byte("me"))
	c.waitFor(t, "0:me", time.Second)
}

func TestMemForwardingAroundDeadDirectChannel(t *testing.T) {
	// Disconnect the direct channel (0,1); forwarding must route 0 -> 2 -> 1.
	m := NewMem(3, fastDelay(), WithSeed(5))
	defer m.Close()
	c := newCollector()
	m.Register(1, c.handler)
	m.Disconnect(failure.Channel{From: 0, To: 1})
	m.Send(0, 1, []byte("via-relay"))
	c.waitFor(t, "0:via-relay", 2*time.Second)
}

func TestMemNoForwardingRespectsDisconnect(t *testing.T) {
	m := NewMem(3, fastDelay(), WithMode(ModeDirect))
	defer m.Close()
	c := newCollector()
	m.Register(1, c.handler)
	m.Disconnect(failure.Channel{From: 0, To: 1})
	m.Send(0, 1, []byte("lost"))
	time.Sleep(50 * time.Millisecond)
	if c.count() != 0 {
		t.Fatalf("message delivered over a disconnected channel without forwarding: %v", c.snapshot())
	}
	st := m.Stats()
	if st.Dropped == 0 {
		t.Error("expected a dropped count")
	}
}

func TestMemCrashSilencesProcess(t *testing.T) {
	m := NewMem(3, fastDelay())
	defer m.Close()
	c := newCollector()
	m.Register(1, c.handler)
	m.Crash(0)
	m.Send(0, 1, []byte("from-crashed"))
	m.Crash(1)
	m.Send(2, 1, []byte("to-crashed"))
	time.Sleep(50 * time.Millisecond)
	if c.count() != 0 {
		t.Fatalf("crashed endpoints exchanged messages: %v", c.snapshot())
	}
}

func TestMemFigure1F1Connectivity(t *testing.T) {
	// Apply the worst case of pattern f1 (d crashed, only (c,a),(a,b),(b,a)
	// survive). Then: a<->b works, c->a works, but a->c must be impossible.
	m := NewMem(4, fastDelay(), WithSeed(7))
	defer m.Close()
	sys := failure.Figure1()
	m.ApplyPattern(sys.Patterns[0])

	ca := newCollector()
	cb := newCollector()
	cc := newCollector()
	m.Register(int4(failure.A), ca.handler)
	m.Register(int4(failure.B), cb.handler)
	m.Register(int4(failure.C), cc.handler)

	m.Send(failure.A, failure.B, []byte("ab"))
	m.Send(failure.B, failure.A, []byte("ba"))
	m.Send(failure.C, failure.A, []byte("ca"))
	cb.waitFor(t, "0:ab", 2*time.Second)
	ca.waitFor(t, "1:ba", 2*time.Second)
	ca.waitFor(t, "2:ca", 2*time.Second)

	m.Send(failure.A, failure.C, []byte("ac"))
	m.Send(failure.B, failure.C, []byte("bc"))
	time.Sleep(100 * time.Millisecond)
	if cc.count() != 0 {
		t.Fatalf("messages reached c despite all incoming channels failed: %v", cc.snapshot())
	}
}

func int4(p failure.Proc) failure.Proc { return p }

func TestMemDeliveryIsExactlyOnce(t *testing.T) {
	// Flooding creates many copies; the destination must see each message
	// exactly once.
	m := NewMem(5, fastDelay(), WithSeed(11))
	defer m.Close()
	c := newCollector()
	m.Register(4, c.handler)
	const total = 50
	for i := 0; i < total; i++ {
		m.Send(0, 4, []byte(fmt.Sprintf("m%02d", i)))
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.count() < total && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.count(); got != total {
		t.Fatalf("delivered %d messages, want exactly %d: %v", got, total, c.snapshot())
	}
}

func TestMemSendAfterClose(t *testing.T) {
	m := NewMem(2, fastDelay())
	m.Close()
	m.Close() // idempotent
	m.Send(0, 1, []byte("x"))
	// No panic, no delivery.
}

func TestMemOutOfRangeEndpoints(t *testing.T) {
	m := NewMem(2, fastDelay())
	defer m.Close()
	m.Send(-1, 0, []byte("x"))
	m.Send(0, 7, []byte("x"))
	m.Crash(-3)
	m.Register(9, func(failure.Proc, []byte) {})
	// No panics.
}

func TestUniformDelayBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := UniformDelay{Min: time.Millisecond, Max: 3 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		d := u.Delay(rng, 0)
		if d < u.Min || d >= u.Max {
			t.Fatalf("delay %v outside [%v, %v)", d, u.Min, u.Max)
		}
	}
	// Degenerate range returns Min.
	u = UniformDelay{Min: time.Millisecond, Max: time.Millisecond}
	if got := u.Delay(rng, 0); got != time.Millisecond {
		t.Fatalf("degenerate delay = %v", got)
	}
}

func TestPartialSyncDelay(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps := PartialSync{
		GST:    100 * time.Millisecond,
		Before: UniformDelay{Min: 50 * time.Millisecond, Max: 500 * time.Millisecond},
		Delta:  5 * time.Millisecond,
	}
	// After GST: bounded by Delta.
	for i := 0; i < 1000; i++ {
		d := ps.Delay(rng, 200*time.Millisecond)
		if d <= 0 || d > ps.Delta {
			t.Fatalf("post-GST delay %v outside (0, %v]", d, ps.Delta)
		}
	}
	// Before GST: total arrival time capped at GST + Delta.
	for i := 0; i < 1000; i++ {
		elapsed := time.Duration(rng.Int63n(int64(ps.GST)))
		d := ps.Delay(rng, elapsed)
		if elapsed+d > ps.GST+ps.Delta {
			t.Fatalf("pre-GST message arrives at %v, after GST+Delta", elapsed+d)
		}
	}
	// Delta = 0 degenerates to zero delay after GST.
	ps.Delta = 0
	if got := ps.Delay(rng, ps.GST); got != 0 {
		t.Fatalf("zero-Delta delay = %v", got)
	}
}

func TestMemStatsCounters(t *testing.T) {
	m := NewMem(3, fastDelay(), WithSeed(3))
	defer m.Close()
	c := newCollector()
	m.Register(2, c.handler)
	m.Send(0, 2, []byte("x"))
	c.waitFor(t, "0:x", 2*time.Second)
	st := m.Stats()
	if st.Sent != 1 {
		t.Errorf("Sent = %d, want 1", st.Sent)
	}
	if st.Delivered != 1 {
		t.Errorf("Delivered = %d, want 1", st.Delivered)
	}
}

func TestMemManyConcurrentSenders(t *testing.T) {
	m := NewMem(4, fastDelay(), WithSeed(13))
	defer m.Close()
	c := newCollector()
	m.Register(3, c.handler)
	var wg sync.WaitGroup
	const perSender = 20
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				m.Send(failure.Proc(s), 3, []byte(fmt.Sprintf("s%d-%d", s, i)))
			}
		}(s)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for c.count() < 3*perSender && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.count(); got != 3*perSender {
		t.Fatalf("delivered %d, want %d", got, 3*perSender)
	}
}
