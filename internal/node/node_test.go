package node

import (
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/transport"
	"repro/internal/wire"
)

func fastNet(n int) *transport.MemNetwork {
	return transport.NewMem(n, transport.WithDelay(transport.UniformDelay{
		Min: 10 * time.Microsecond, Max: 200 * time.Microsecond,
	}))
}

type echoBody struct {
	X int
}

func (e echoBody) AppendWire(b []byte) []byte { return wire.AppendVarint(b, int64(e.X)) }

func (e *echoBody) DecodeWire(b []byte) error {
	r := wire.NewReader(b)
	e.X = r.Int()
	return r.Done()
}

func TestSendAndHandle(t *testing.T) {
	net := fastNet(2)
	defer net.Close()
	a := New(0, net)
	b := New(1, net)
	defer a.Stop()
	defer b.Stop()

	got := make(chan int, 1)
	b.Handle("echo", func(from failure.Proc, m wire.Message) {
		var body echoBody
		if err := wire.Decode(m, &body); err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		if from != 0 {
			t.Errorf("from = %d, want 0", from)
		}
		got <- body.X
	})
	a.Send(1, "echo", echoBody{X: 42})
	select {
	case x := <-got:
		if x != 42 {
			t.Fatalf("x = %d, want 42", x)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
}

func TestBroadcastIncludesSelf(t *testing.T) {
	net := fastNet(3)
	defer net.Close()
	nodes := make([]*Node, 3)
	var mu sync.Mutex
	received := map[failure.Proc]int{}
	var wg sync.WaitGroup
	wg.Add(3)
	for i := range nodes {
		nodes[i] = New(failure.Proc(i), net)
		id := failure.Proc(i)
		nodes[i].Handle("ping", func(from failure.Proc, m wire.Message) {
			mu.Lock()
			received[id]++
			if received[id] == 1 {
				wg.Done()
			}
			mu.Unlock()
		})
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	nodes[0].Broadcast("ping", nil)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("broadcast not delivered everywhere: %v", received)
	}
}

// TestMulticastReachesListedOnly: a multicast reaches exactly the listed
// processes, each once, and an empty list sends nothing.
func TestMulticastReachesListedOnly(t *testing.T) {
	net := fastNet(3)
	defer net.Close()
	nodes := make([]*Node, 3)
	got := make(chan failure.Proc, 8)
	for i := range nodes {
		nodes[i] = New(failure.Proc(i), net)
		id := failure.Proc(i)
		nodes[i].Handle("m", func(from failure.Proc, m wire.Message) {
			var body echoBody
			if err := wire.Decode(m, &body); err != nil || body.X != 7 {
				t.Errorf("process %d: body %s (%v)", id, m.Body, err)
			}
			got <- id
		})
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	nodes[0].Multicast(nil, "m", echoBody{X: 7})
	nodes[0].Multicast([]failure.Proc{0, 2}, "m", echoBody{X: 7})
	seen := map[failure.Proc]int{}
	for len(seen) < 2 {
		select {
		case id := <-got:
			seen[id]++
		case <-time.After(2 * time.Second):
			t.Fatalf("multicast not delivered to every listed process: %v", seen)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if len(got) != 0 || seen[0] != 1 || seen[2] != 1 {
		t.Fatalf("deliveries %v plus %d more, want processes 0 and 2 once each", seen, len(got))
	}
}

func TestEventLoopSerializesState(t *testing.T) {
	net := fastNet(1)
	defer net.Close()
	n := New(0, net)
	defer n.Stop()

	// Unsynchronized counter mutated only on the loop: the race detector
	// verifies single-threaded execution.
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.Call(func() { counter++ })
		}()
	}
	wg.Wait()
	n.Call(func() {
		if counter != 50 {
			t.Errorf("counter = %d, want 50", counter)
		}
	})
}

func TestEvery(t *testing.T) {
	net := fastNet(1)
	defer net.Close()
	n := New(0, net)
	defer n.Stop()

	ticks := make(chan struct{}, 100)
	cancel := n.Every(2*time.Millisecond, func() { ticks <- struct{}{} })
	// Wait for at least 3 ticks.
	for i := 0; i < 3; i++ {
		select {
		case <-ticks:
		case <-time.After(2 * time.Second):
			t.Fatal("ticker did not fire")
		}
	}
	cancel()
	cancel() // idempotent
	// Drain then confirm no new tick arrives well after cancellation.
	time.Sleep(10 * time.Millisecond)
	for len(ticks) > 0 {
		<-ticks
	}
	select {
	case <-ticks:
		t.Fatal("tick after cancel")
	case <-time.After(20 * time.Millisecond):
	}
}

func TestAfter(t *testing.T) {
	net := fastNet(1)
	defer net.Close()
	n := New(0, net)
	defer n.Stop()

	fired := make(chan struct{}, 1)
	n.After(5*time.Millisecond, func() { fired <- struct{}{} })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("After did not fire")
	}

	cancelled := make(chan struct{}, 1)
	cancel := n.After(50*time.Millisecond, func() { cancelled <- struct{}{} })
	cancel()
	select {
	case <-cancelled:
		t.Fatal("cancelled After fired")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestStopIdempotentAndReleasesCall(t *testing.T) {
	net := fastNet(1)
	defer net.Close()
	n := New(0, net)
	n.Stop()
	n.Stop()
	if n.Do(func() {}) {
		t.Fatal("Do after Stop reported its closure queued")
	}
	// Call after stop must not hang.
	done := make(chan struct{})
	go func() {
		n.Call(func() {})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Call after Stop hung")
	}
}

func TestUnknownTopicDropped(t *testing.T) {
	net := fastNet(2)
	defer net.Close()
	a := New(0, net)
	b := New(1, net)
	defer a.Stop()
	defer b.Stop()
	a.Send(1, "no-such-topic", echoBody{X: 1})
	time.Sleep(20 * time.Millisecond) // must not panic or wedge the loop
	ok := make(chan struct{}, 1)
	b.Handle("live", func(failure.Proc, wire.Message) { ok <- struct{}{} })
	a.Send(1, "live", nil)
	select {
	case <-ok:
	case <-time.After(2 * time.Second):
		t.Fatal("loop wedged after unknown topic")
	}
}

func TestWireRoundTrip(t *testing.T) {
	payload, err := wire.Marshal("topic", echoBody{X: 9})
	if err != nil {
		t.Fatal(err)
	}
	m, err := wire.Unmarshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if m.Topic != "topic" {
		t.Fatalf("topic = %q", m.Topic)
	}
	var body echoBody
	if err := wire.Decode(m, &body); err != nil {
		t.Fatal(err)
	}
	if body.X != 9 {
		t.Fatalf("x = %d", body.X)
	}
	if _, err := wire.Unmarshal([]byte("{garbage")); err == nil {
		t.Error("malformed payload accepted")
	}
	if _, err := wire.Marshal(`t"`, echoBody{}); err == nil {
		t.Error("unmarshalable topic accepted")
	}
}
