package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
)

func TestRestartResumesDelivery(t *testing.T) {
	m := NewMem(2, fastDelay())
	defer m.Close()
	c := newCollector()
	m.Register(1, c.handler)

	m.Crash(1)
	m.Send(0, 1, []byte("lost"))
	time.Sleep(5 * time.Millisecond)
	if got := c.count(); got != 0 {
		t.Fatalf("crashed process received %d messages", got)
	}

	m.Restart(1)
	m.Send(0, 1, []byte("back"))
	c.waitFor(t, "0:back", 2*time.Second)
	for _, msg := range c.snapshot() {
		if msg == "0:lost" {
			t.Fatal("message sent during the crash window was delivered after restart")
		}
	}
}

func TestSetLinkFlap(t *testing.T) {
	m := NewMem(2, fastDelay(), WithMode(ModeDirect))
	defer m.Close()
	c := newCollector()
	m.Register(1, c.handler)

	m.SetLink(failure.Channel{From: 0, To: 1}, false)
	m.Send(0, 1, []byte("down"))
	time.Sleep(5 * time.Millisecond)
	if got := c.count(); got != 0 {
		t.Fatalf("message crossed a downed link (%d delivered)", got)
	}

	m.SetLink(failure.Channel{From: 0, To: 1}, true)
	m.Send(0, 1, []byte("up"))
	c.waitFor(t, "0:up", 2*time.Second)
}

func TestLinkFaultDropsAndClears(t *testing.T) {
	m := NewMem(2, fastDelay())
	defer m.Close()
	c := newCollector()
	m.Register(1, c.handler)

	ch := failure.Channel{From: 0, To: 1}
	m.SetLinkFault(ch, LinkFault{Drop: 1})
	before := m.Stats().Dropped
	for i := 0; i < 5; i++ {
		m.Send(0, 1, []byte("lossy"))
	}
	time.Sleep(5 * time.Millisecond)
	if got := c.count(); got != 0 {
		t.Fatalf("fully lossy link delivered %d messages", got)
	}
	if got := m.Stats().Dropped - before; got != 5 {
		t.Fatalf("Dropped advanced by %d, want 5", got)
	}

	m.SetLinkFault(ch, LinkFault{}) // zero value removes the overlay
	m.Send(0, 1, []byte("healed"))
	c.waitFor(t, "0:healed", 2*time.Second)
}

func TestLinkFaultAddsDelay(t *testing.T) {
	m := NewMem(2, fastDelay())
	defer m.Close()
	c := newCollector()
	m.Register(1, c.handler)

	const extra = 40 * time.Millisecond
	m.SetLinkFault(failure.Channel{From: 0, To: 1}, LinkFault{Delay: extra})
	start := time.Now()
	m.Send(0, 1, []byte("slow"))
	c.waitFor(t, "0:slow", 2*time.Second)
	if elapsed := time.Since(start); elapsed < extra {
		t.Fatalf("gray link delivered in %v, want at least %v", elapsed, extra)
	}
}

func TestLinkFaultAppliesOnIntermediateHop(t *testing.T) {
	// With 0->1 disconnected, route mode forwards 0's messages to 1 via 2
	// (shortest surviving path 0->2->1). A fully lossy overlay on the 2->1
	// hop must therefore kill the forwarded copy even though neither
	// endpoint channel of the overlay is the message's origin link.
	m := NewMem(3, fastDelay())
	defer m.Close()
	c := newCollector()
	m.Register(1, c.handler)

	m.Disconnect(failure.Channel{From: 0, To: 1})
	m.SetLinkFault(failure.Channel{From: 2, To: 1}, LinkFault{Drop: 1})
	m.Send(0, 1, []byte("via-2"))
	time.Sleep(5 * time.Millisecond)
	if got := c.count(); got != 0 {
		t.Fatalf("message survived a fully lossy intermediate hop (%d delivered)", got)
	}

	m.SetLinkFault(failure.Channel{From: 2, To: 1}, LinkFault{})
	m.Send(0, 1, []byte("healed"))
	c.waitFor(t, "0:healed", 2*time.Second)
}

// TestHealAPIsRaceConcurrentTraffic exercises the heal and fault APIs —
// Reconnect, Isolate, Rejoin, Restart, SetLink, SetLinkFault — while Send
// and SendAll traffic is in flight from every process, under -race. The
// assertions are deliberately weak (no panic, no race, network functional
// after healing); the scheduler interleavings are the test.
func TestHealAPIsRaceConcurrentTraffic(t *testing.T) {
	const n = 4
	m := NewMem(n, fastDelay())
	defer m.Close()
	cols := make([]*collector, n)
	for i := range cols {
		cols[i] = newCollector()
		m.Register(failure.Proc(i), cols[i].handler)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p failure.Proc) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%3 == 0 {
					m.SendAll(p, []byte(fmt.Sprintf("b%d", i)))
				} else {
					m.Send(p, failure.Proc((int(p)+1)%n), []byte(fmt.Sprintf("u%d", i)))
				}
			}
		}(failure.Proc(p))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		chans := []failure.Channel{{From: 0, To: 1}, {From: 1, To: 0}, {From: 2, To: 3}}
		for i := 0; i < 200; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c := chans[i%len(chans)]
			switch i % 7 {
			case 0:
				m.Disconnect(c)
			case 1:
				m.Reconnect(c)
			case 2:
				m.Isolate(failure.Proc(i % n))
			case 3:
				m.Rejoin(failure.Proc((i - 1) % n))
			case 4:
				m.Crash(failure.Proc(i % n))
			case 5:
				m.Restart(failure.Proc((i - 1) % n))
			case 6:
				m.SetLinkFault(c, LinkFault{Delay: time.Microsecond, Jitter: time.Microsecond, Drop: 0.5})
				m.SetLinkFault(c, LinkFault{})
			}
			m.SetLink(c, i%2 == 0)
		}
	}()

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Heal everything and confirm the network still delivers.
	for p := 0; p < n; p++ {
		m.Restart(failure.Proc(p))
		m.Rejoin(failure.Proc(p))
	}
	m.Send(0, 1, []byte("final"))
	cols[1].waitFor(t, "0:final", 2*time.Second)
}
