package qaf

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/failure"
	"repro/internal/transport"
	"repro/internal/wire"
)

// sendTap hands every message to the network below and logs each copy it
// sends: sender, receiver and decoded message.
type sendTap struct {
	*transport.MemNetwork
	mu   sync.Mutex
	sent []sentMsg
}

type sentMsg struct {
	from, to failure.Proc
	m        wire.Message
}

func (s *sendTap) log(from, to failure.Proc, payload []byte) {
	m, err := wire.Unmarshal(payload)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.sent = append(s.sent, sentMsg{from: from, to: to, m: m})
	s.mu.Unlock()
}

func (s *sendTap) Send(from, to failure.Proc, payload []byte) {
	s.log(from, to, payload)
	s.MemNetwork.Send(from, to, payload)
}

func (s *sendTap) SendAll(from failure.Proc, payload []byte) {
	for to := 0; to < s.N(); to++ {
		s.log(from, failure.Proc(to), payload)
	}
	s.MemNetwork.SendAll(from, payload)
}

// of returns the messages on topic sent from `from` to `to`, oldest first.
func (s *sendTap) of(topic string, from, to failure.Proc) []wire.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []wire.Message
	for _, e := range s.sent {
		if e.m.Topic == topic && e.from == from && e.to == to {
			out = append(out, e.m)
		}
	}
	return out
}

// TestPropagatorAckWindow: acks leave once per ack window, one message per
// peer carrying the highest clock pushed in the window, however many pushes
// arrived; a push that is never acked is re-offered resendTicks after it
// went out, and an ack stops the re-offers. The ticks are driven by hand.
func TestPropagatorAckWindow(t *testing.T) {
	if ackTicks <= 0 || ackTicks >= resendTicks {
		t.Fatalf("ackTicks = %d: an ack must land before the re-offer at resendTicks = %d", ackTicks, resendTicks)
	}
	pr := newProbe("obj")
	defer pr.stop()
	p, g := pr.prop, pr.accs["obj"]
	tick := func() (no int64) {
		pr.nodes[0].Call(func() { p.tick(); no = p.tickNo })
		return no
	}

	// A burst: process 1 pushes four new states per tick for three windows.
	var clk int64
	for w := 0; w < 3; w++ {
		for i := 0; i < ackTicks; i++ {
			for j := 0; j < 4; j++ {
				clk++
				pr.push(t, 1, wire.Prop{Name: "obj", State: enc(clk), Clock: clk, V: clk})
			}
			before := len(pr.tap.of("qaf/ack", 0, 1))
			no := tick()
			want := before
			if no%ackTicks == 0 {
				want++
			}
			if got := len(pr.tap.of("qaf/ack", 0, 1)); got != want {
				t.Fatalf("tick %d: %d acks sent to process 1, want %d", no, got, want)
			}
		}
	}
	acks := pr.tap.of("qaf/ack", 0, 1)
	var last wire.Clocks
	if err := wire.Decode(acks[len(acks)-1], &last); err != nil {
		t.Fatal(err)
	}
	if want := (wire.Clocks{{Name: "obj", Clock: clk}}); !slices.Equal(last, want) {
		t.Fatalf("last ack %v, want %v", last, want)
	}

	// Process 0's state changes and its push to process 1 is lost (process
	// 1 hosts nothing, so it never acks).
	pr.nodes[0].Call(func() {
		g.onSetReq(1, wire.Message{Topic: "obj/set_req", Body: wire.SeqData{Seq: 1, Data: enc(99)}.AppendWire(nil)})
	})
	var sentAt, ver int64
	pr.nodes[0].Call(func() { sentAt, ver = p.tickNo, g.ver }) // behind the queued flush
	pushes := len(pr.tap.of("qaf/prop", 0, 1))
	if pushes == 0 {
		t.Fatal("the state change was not pushed")
	}
	for {
		no := tick()
		props := pr.tap.of("qaf/prop", 0, 1)
		if no < sentAt+resendTicks {
			if len(props) != pushes {
				t.Fatalf("tick %d: re-offered before resendTicks", no)
			}
			continue
		}
		if len(props) != pushes+1 {
			t.Fatalf("tick %d: %d pushes to process 1, want the re-offer", no, len(props)-pushes)
		}
		var offer wire.Props
		if err := wire.Decode(props[len(props)-1], &offer); err != nil {
			t.Fatal(err)
		}
		if len(offer) != 1 || offer[0].Name != "obj" || offer[0].V != ver || dec(t, offer[0].State) != 99 {
			t.Fatalf("re-offer %+v, want obj's state 99 at version %d", offer, ver)
		}
		break
	}

	// Process 1's ack of the re-offer stops further re-offers.
	pr.nodes[0].Call(func() {
		p.onAck(1, wire.Message{Topic: "qaf/ack", Body: wire.Clocks{{Name: "obj", Clock: ver}}.AppendWire(nil)})
	})
	pushes = len(pr.tap.of("qaf/prop", 0, 1))
	for i := 0; i < 2*resendTicks; i++ {
		tick()
	}
	if extra := len(pr.tap.of("qaf/prop", 0, 1)) - pushes; extra != 0 {
		t.Fatalf("%d pushes to process 1 after it acked", extra)
	}
}
