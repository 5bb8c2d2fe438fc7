package node

import (
	"testing"

	"repro/internal/failure"
	"repro/internal/transport"
	"repro/internal/wire"
)

// BenchmarkNodeDispatch measures the node rung: an encoded message handed
// to the node's transport callback, queued in the mailbox, unmarshaled on
// the event loop and dispatched to the one handler of its topic. No
// transport hop is timed. Messages go in windows of 256, each drained
// before the next is sent, so the mailbox stays at its steady-state size.
// One op is one message handled.
func BenchmarkNodeDispatch(b *testing.B) {
	const window = 256
	net := transport.NewMem(1)
	defer net.Close()
	n := New(0, net)
	defer n.Stop()
	drained := make(chan struct{}, 1)
	handled := 0 // loop-confined
	n.Handle("bench/dispatch", func(_ failure.Proc, m wire.Message) {
		handled++
		if handled%window == 0 || handled == b.N {
			drained <- struct{}{}
		}
	})
	payload, err := wire.Marshal("bench/dispatch", echoBody{X: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; {
		k := min(window, b.N-sent)
		for i := 0; i < k; i++ {
			n.onMessage(0, payload)
		}
		sent += k
		<-drained
	}
}
