package node

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/transport"
	"repro/internal/wire"
)

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestMailboxOrderUnderChurn drives enough work through the mailbox to force
// ring growth and many wraparounds, checking strict FIFO execution.
func TestMailboxOrderUnderChurn(t *testing.T) {
	net := transport.NewMem(1)
	defer net.Close()
	n := New(0, net)
	defer n.Stop()

	const total = 10000
	var mu sync.Mutex
	var got []int
	for i := 0; i < total; i++ {
		i := i
		n.Do(func() {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
		})
		if i%97 == 0 {
			// Let the loop drain partially so head moves and the ring wraps.
			n.Call(func() {})
		}
	}
	n.Call(func() {})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != total {
		t.Fatalf("executed %d of %d", len(got), total)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: got %d", i, v)
		}
	}
}

// TestHandleConcurrentWithDispatch re-installs a handler from another
// goroutine while messages are being dispatched: the registry must never
// lose an installed handler nor race with lookups.
func TestHandleConcurrentWithDispatch(t *testing.T) {
	net := transport.NewMem(2)
	defer net.Close()
	a := New(0, net)
	defer a.Stop()
	b := New(1, net)
	defer b.Stop()

	var delivered atomic.Int64
	b.Handle("t/first", func(failure.Proc, wire.Message) { delivered.Add(1) })

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b.Handle("t/first", func(failure.Proc, wire.Message) { delivered.Add(1) })
		}
	}()
	for i := 0; i < 2000; i++ {
		a.Send(1, "t/first", echoBody{X: i})
	}
	close(stop)
	wg.Wait()
	// Drain both loops; mem delivery is async but local and fast.
	waitFor(t, func() bool { return delivered.Load() == 2000 })
}
