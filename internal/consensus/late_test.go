package consensus

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/node"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestConsensusLate2BAnsweredOnlyAfterLearn: a decided slot whose decision
// this process announced stays silent on a late 2B (the announcement
// already went to the sender), while one decided through Learn, which
// announces nothing, answers it with the decision. A second slot of the
// same engine, decided through Learn, answers a 1B sent after the 2B: on a
// zero-delay network both the requests and the replies stay in order, so
// its reply marks the point by which any answer to the 2B has arrived.
func TestConsensusLate2BAnsweredOnlyAfterLearn(t *testing.T) {
	// Either way the peer ends up holding exactly one decision of slot 0:
	// the announcement, or the answer to its 2B.
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
			e := NewEngine(n0, EngineOptions{Name: "x", Slots: 2})
			defer e.Stop()

			decs := make(chan string, 8)
			marker := make(chan struct{}, 1)
			n1.Handle("x/dec", func(_ failure.Proc, m wire.Message) {
				var d wire.Decision
				switch {
				case wire.Decode(m, &d) != nil:
				case d.Slot == 0:
					decs <- d.Val
				case d.Slot == 1:
					marker <- struct{}{}
				}
			})

			n0.Call(func() { e.Learn(1, "m") })
			if tc.announce {
				// A peer's decision makes slot 0 decide and announce in turn.
				n1.Send(0, "x/dec", wire.Decision{Slot: 0, Val: "v"})
				if v := <-decs; v != "v" {
					t.Fatalf("announcement carried %q", v)
				}
			} else {
				n0.Call(func() { e.Learn(0, "v") })
			}
			n1.Send(0, "x/2b", wire.Accept{Slot: 0, View: 1, Val: "v"})
			n1.Send(0, "x/1b", wire.OneB{View: 1, Slots: []wire.Slot1B{{Slot: 1}}})
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
				t.Fatalf("peer holds %d decisions of slot 0, want 1", got)
			}
		})
	}
}

// TestConsensusEarly2AAcceptedOnViewEntry: a 2A for a view this process
// has not entered yet is parked, not dropped. Process 1 receives view 1's
// 2A while still in view 0; on entering view 1 it first reports the slot
// in its 1B as it stood before the view (no value accepted in view 1), and
// then accepts the parked 2A, broadcasting the view's 2B.
func TestConsensusEarly2AAcceptedOnViewEntry(t *testing.T) {
	net := transport.NewMem(2, transport.WithDelay(transport.UniformDelay{}))
	defer net.Close()
	n0, n1 := node.New(0, net), node.New(1, net)
	defer n0.Stop()
	defer n1.Stop()
	e := NewEngine(n1, EngineOptions{Name: "x", Slots: 1})
	defer e.Stop()

	twoBs := make(chan wire.Accept, 8)
	oneBs := make(chan wire.OneB, 8)
	n0.Handle("x/2b", func(_ failure.Proc, m wire.Message) {
		var a wire.Accept
		if wire.Decode(m, &a) == nil {
			twoBs <- a
		}
	})
	n0.Handle("x/1b", func(_ failure.Proc, m wire.Message) {
		var b wire.OneB
		if wire.Decode(m, &b) == nil {
			oneBs <- b
		}
	})

	// Process 0 leads view 1 and sends its 2A before process 1 enters it.
	n0.Send(1, "x/2a", wire.Accept{Slot: 0, View: 1, Val: "v"})
	for seen := false; !seen; {
		n1.Call(func() { seen = e.lookup(0) != nil })
	}
	n1.Call(func() { e.EnterView(1) })

	select {
	case b := <-oneBs:
		for _, s := range b.Slots {
			if s.Slot == 0 && s.HasVal && s.AView >= 1 {
				t.Fatalf("view-1 1B reports slot 0 accepted in view %d", s.AView)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no 1B on entering view 1")
	}
	select {
	case a := <-twoBs:
		if a.Slot != 0 || a.View != 1 || a.Val != "v" {
			t.Fatalf("2B = %+v, want slot 0, view 1, value v", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the 2A parked in view 0 was never accepted in view 1")
	}
}

// BenchmarkConsensusDecide times one single-shot decision on the Figure-1
// quorum system over a zero-delay network, from the leader's proposal to
// its decision. Each iteration runs a fresh instance at all four processes;
// creating them, waiting until each has entered view 1, and stopping them
// is not timed. Without that wait the leader could propose on read quorum
// {a, c} before b and d entered view 1; they drop the view's 2A, {a, c} is
// no write quorum, and the decision waited a whole minute-long view. Each
// decision has a deadline, so a stall fails the benchmark, naming its
// iteration, instead of averaging into ns/op.
func BenchmarkConsensusDecide(b *testing.B) {
	const deadline = 5 * time.Second
	qs := quorum.Figure1()
	net := transport.NewMem(4, transport.WithDelay(transport.UniformDelay{}))
	defer net.Close()
	nodes := make([]*node.Node, 4)
	for i := range nodes {
		nodes[i] = node.New(failure.Proc(i), net)
		defer nodes[i].Stop()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		insts := make([]*Consensus, 4)
		for p, nd := range nodes {
			// A long first view keeps process 0 the leader throughout.
			insts[p] = New(nd, Options{Name: fmt.Sprintf("bench%d", i), Reads: qs.Reads, Writes: qs.Writes, C: time.Minute})
		}
		for _, c := range insts {
			for c.View() < 1 {
				runtime.Gosched()
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		b.StartTimer()
		_, err := insts[0].Propose(ctx, "value")
		b.StopTimer()
		cancel()
		if err != nil {
			b.Fatalf("iteration %d: no decision within %v: %v", i, deadline, err)
		}
		for _, c := range insts {
			c.Stop()
		}
		b.StartTimer()
	}
}
