package transport_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The node package imports transport, so the tests that run a node loop
// over TCP live in this external test package.

// openTCP brings up n TCP endpoints on ephemeral loopback ports that know
// each other's addresses.
func openTCP(t *testing.T, n int) []*transport.TCPNetwork {
	t.Helper()
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
		t.Cleanup(tn.Close)
	}
	for i := range nets {
		for j := range nets {
			nets[j].SetPeerAddr(failure.Proc(i), nets[i].Addr())
		}
	}
	return nets
}

// collect registers a handler on endpoint p that hands every payload to the
// returned channel, buffered past any test's frame count so that the
// handler never blocks the read loop.
func collect(nets []*transport.TCPNetwork, p failure.Proc) <-chan []byte {
	got := make(chan []byte, 1024)
	nets[p].Register(p, func(_ failure.Proc, payload []byte) { got <- payload })
	return got
}

// expect reads want from got, in order, and fails on anything else.
func expect(t *testing.T, got <-chan []byte, want ...[]byte) {
	t.Helper()
	for i, w := range want {
		select {
		case p := <-got:
			if !bytes.Equal(p, w) {
				t.Fatalf("frame %d: got %d bytes %.16q, want %d bytes %.16q", i, len(p), p, len(w), w)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d frames arrived", i, len(want))
		}
	}
}

// quiet fails if anything arrives on got within d.
func quiet(t *testing.T, got <-chan []byte, d time.Duration) {
	t.Helper()
	select {
	case p := <-got:
		t.Fatalf("unexpected frame %.16q", p)
	case <-time.After(d):
	}
}

// TestTCPCorkedFramesArriveInOrder: frames sent between Cork and Flush are
// held, then arrive complete and in send order; a held buffer that grows
// past the flush bound is written without waiting for Flush.
func TestTCPCorkedFramesArriveInOrder(t *testing.T) {
	nets := openTCP(t, 2)
	got := collect(nets, 1)

	var want [][]byte
	nets[0].Cork(0)
	for i := 0; i < 100; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 1+i*7)
		want = append(want, p)
		nets[0].Send(0, 1, p)
	}
	quiet(t, got, 50*time.Millisecond)
	nets[0].Flush(0)
	expect(t, got, want...)

	// A frame past the flush bound writes what is held at once.
	nets[0].Cork(0)
	small, big := []byte("small"), bytes.Repeat([]byte("B"), 1<<17)
	nets[0].Send(0, 1, small)
	nets[0].Send(0, 1, big)
	expect(t, got, small, big)
	nets[0].Flush(0)

	// Uncorked, a Send writes at once.
	nets[0].Send(0, 1, []byte("direct"))
	expect(t, got, []byte("direct"))
}

// TestTCPCorkPartitionRule: partitioning is decided at Send time. A frame
// held before SetPartitioned is written at Flush; one sent while the peer
// is partitioned is dropped even if the partition heals before Flush.
func TestTCPCorkPartitionRule(t *testing.T) {
	nets := openTCP(t, 2)
	got := collect(nets, 1)

	nets[0].Cork(0)
	nets[0].Send(0, 1, []byte("before"))
	nets[0].SetPartitioned(1, true)
	nets[0].Send(0, 1, []byte("during"))
	nets[0].SetPartitioned(1, false)
	nets[0].Send(0, 1, []byte("after"))
	nets[0].Flush(0)
	expect(t, got, []byte("before"), []byte("after"))
	quiet(t, got, 50*time.Millisecond)
}

// TestTCPCorkConcurrentSenders: senders on other goroutines interleave with
// a corking loop; every frame arrives intact and each sender's frames
// arrive in its order.
func TestTCPCorkConcurrentSenders(t *testing.T) {
	const senders, frames = 4, 200
	nets := openTCP(t, 2)
	got := collect(nets, 1)

	var wg sync.WaitGroup
	stop, toggled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(toggled)
		for {
			select {
			case <-stop:
				nets[0].Flush(0)
				return
			default:
				nets[0].Cork(0)
				time.Sleep(100 * time.Microsecond)
				nets[0].Flush(0)
			}
		}
	}()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				nets[0].Send(0, 1, []byte(fmt.Sprintf("%d:%d", s, i)))
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-toggled

	next := make([]int, senders)
	for n := 0; n < senders*frames; n++ {
		select {
		case p := <-got:
			var s, i int
			if _, err := fmt.Sscanf(string(p), "%d:%d", &s, &i); err != nil || s < 0 || s >= senders {
				t.Fatalf("corrupt frame %q", p)
			}
			if i != next[s] {
				t.Fatalf("sender %d: frame %d arrived, want %d", s, i, next[s])
			}
			next[s]++
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d frames arrived", n, senders*frames)
		}
	}
}

// rawBody sends its bytes as a message body, as they are.
type rawBody []byte

func (r rawBody) AppendWire(b []byte) []byte { return append(b, r...) }

// nodeReceiver runs a node on endpoint p whose handler for topic "t" hands
// every body to the returned channel, buffered like collect's.
func nodeReceiver(t *testing.T, nets []*transport.TCPNetwork, p failure.Proc) <-chan []byte {
	got := make(chan []byte, 1024)
	nd := node.New(p, nets[p])
	nd.Handle("t", func(_ failure.Proc, m wire.Message) { got <- m.Body })
	t.Cleanup(nd.Stop)
	return got
}

// TestNodeSendOffLoopWhileIdle: a Send from a goroutine other than the loop,
// while the loop is idle, is written at once: nothing else runs on the loop
// to flush it.
func TestNodeSendOffLoopWhileIdle(t *testing.T) {
	nets := openTCP(t, 2)
	got := nodeReceiver(t, nets, 1)
	nd := node.New(0, nets[0])
	defer nd.Stop()
	nd.Call(func() {}) // one busy period, then the loop idles

	nd.Send(1, "t", rawBody("off-loop"))
	expect(t, got, []byte("off-loop"))
}

// TestNodeBusyPeriodFlushedAtStop: frames held in the loop's last busy
// period before Stop are written before the loop exits.
func TestNodeBusyPeriodFlushedAtStop(t *testing.T) {
	nets := openTCP(t, 2)
	got := nodeReceiver(t, nets, 1)
	nd := node.New(0, nets[0])

	var want [][]byte
	for i := 0; i < 50; i++ {
		want = append(want, []byte(fmt.Sprintf("held-%d", i)))
	}
	// Hold the loop in one busy period until Stop has begun, so the sends
	// queued behind it run in the loop's last busy period.
	release := make(chan struct{})
	nd.Do(func() { <-release })
	for _, w := range want {
		nd.Do(func() { nd.Send(1, "t", rawBody(w)) })
	}
	stopped := make(chan struct{})
	go func() {
		nd.Stop()
		close(stopped)
	}()
	for nd.Do(func() {}) { // Do refuses work once Stop has begun
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-stopped
	expect(t, got, want...)
}

// TestNodeLongBusyPeriodStillSends: a busy period that does not end still
// writes what it sent, a bounded number of mailbox entries later, so a
// mailbox that never drains cannot hold frames for good.
func TestNodeLongBusyPeriodStillSends(t *testing.T) {
	const sends = 200
	nets := openTCP(t, 2)
	got := nodeReceiver(t, nets, 1)
	nd := node.New(0, nets[0])
	defer nd.Stop()

	var want [][]byte
	for i := 0; i < sends; i++ {
		want = append(want, []byte(fmt.Sprintf("busy-%d", i)))
	}
	start, block := make(chan struct{}), make(chan struct{})
	defer close(block)
	nd.Do(func() { <-start })
	for _, w := range want {
		nd.Do(func() { nd.Send(1, "t", rawBody(w)) })
	}
	nd.Do(func() { <-block }) // the loop never drains while the test runs
	close(start)
	// Every send but the last few ran more than one flush bound before the
	// blocked entry, so their frames arrive while the loop is still busy.
	expect(t, got, want[:sends/2]...)
}
