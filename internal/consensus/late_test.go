package consensus

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/node"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestConsensusLate2BAnsweredOnlyAfterLearn: a decided instance that
// announced its decision stays silent on a late 2B (the announcement already
// went to the sender), while one decided through Learn, which announces
// nothing, answers it with the decision. A second instance, decided through
// Learn, answers a 1B sent after the 2B: on a zero-delay network both the
// requests and the replies stay in order, so its reply marks the point by
// which any answer to the 2B has arrived.
func TestConsensusLate2BAnsweredOnlyAfterLearn(t *testing.T) {
	// Either way the peer ends up holding exactly one decision of x: the
	// announcement, or the answer to its 2B.
	for _, tc := range []struct {
		name     string
		announce bool
	}{
		{name: "announced", announce: true},
		{name: "learned", announce: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewMem(2, transport.WithDelay(transport.UniformDelay{}))
			defer net.Close()
			n0, n1 := node.New(0, net), node.New(1, net)
			defer n0.Stop()
			defer n1.Stop()
			x := New(n0, Options{Name: "x", NoSync: true})
			y := New(n0, Options{Name: "y", NoSync: true})
			defer x.Stop()
			defer y.Stop()

			decs := make(chan string, 8)
			marker := make(chan struct{}, 1)
			n1.Handle("x/dec", func(_ failure.Proc, m wire.Message) {
				var d wire.Decision
				if wire.Decode(m, &d) == nil {
					decs <- d.Val
				}
			})
			n1.Handle("y/dec", func(failure.Proc, wire.Message) { marker <- struct{}{} })

			n0.Call(func() { y.Learn("m") })
			if tc.announce {
				// A peer's decision makes x decide and announce in turn.
				n1.Send(0, "x/dec", wire.Decision{Val: "v"})
				if v := <-decs; v != "v" {
					t.Fatalf("announcement carried %q", v)
				}
			} else {
				n0.Call(func() { x.Learn("v") })
			}
			n1.Send(0, "x/2b", wire.Accept{View: 1, Val: "v"})
			n1.Send(0, "y/1b", wire.OneB{View: 1})
			select {
			case <-marker:
			case <-time.After(10 * time.Second):
				t.Fatal("marker decision never arrived")
			}
			got := len(decs)
			if tc.announce {
				got++ // the announcement, already drained
			}
			if got != 1 {
				t.Fatalf("peer holds %d decisions of x, want 1", got)
			}
		})
	}
}

// BenchmarkConsensusDecide times one single-shot decision on the Figure-1
// quorum system over a zero-delay network, from the leader's proposal to
// its decision. Each iteration runs a fresh instance at all four processes;
// creating and stopping them is not timed.
func BenchmarkConsensusDecide(b *testing.B) {
	qs := quorum.Figure1()
	net := transport.NewMem(4, transport.WithDelay(transport.UniformDelay{}))
	defer net.Close()
	nodes := make([]*node.Node, 4)
	for i := range nodes {
		nodes[i] = node.New(failure.Proc(i), net)
		defer nodes[i].Stop()
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		insts := make([]*Consensus, 4)
		for p, nd := range nodes {
			// A long first view keeps process 0 the leader throughout.
			insts[p] = New(nd, Options{Name: fmt.Sprintf("bench%d", i), Reads: qs.Reads, Writes: qs.Writes, C: time.Minute})
		}
		b.StartTimer()
		if _, err := insts[0].Propose(ctx, "value"); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, c := range insts {
			c.Stop()
		}
		b.StartTimer()
	}
}
