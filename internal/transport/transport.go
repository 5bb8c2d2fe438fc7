// Package transport provides the message-passing substrate of the paper's
// system model (§2): an asynchronous network of n processes connected by
// unidirectional channels, where processes may crash and channels may
// disconnect (drop all messages sent after some point).
//
// Two implementations are provided: an in-memory simulated network with
// seeded random delays, fault injection and an optional partial-synchrony
// mode (GST + δ, §7); and a TCP loopback network for running the protocols
// over real sockets.
package transport

import (
	"math/rand"
	"time"

	"repro/internal/failure"
)

// Handler receives a message payload. From identifies the original sender
// (not the last forwarder). Handlers must not block: implementations invoke
// them from internal dispatch goroutines.
type Handler func(from failure.Proc, payload []byte)

// Network is a best-effort asynchronous message network.
type Network interface {
	// N returns the number of processes.
	N() int
	// Register installs the message handler for process p. It must be called
	// before any message can be delivered to p.
	Register(p failure.Proc, h Handler)
	// Send transmits payload from process `from` to process `to`
	// asynchronously. Messages to self are delivered reliably and locally.
	Send(from, to failure.Proc, payload []byte)
	// SendAll transmits payload from `from` to every process including
	// itself ("send to all" in the paper's pseudocode). Implementations may
	// optimize it over n separate Sends (the in-memory network floods a
	// single envelope instead of n).
	SendAll(from failure.Proc, payload []byte)
	// Close shuts the network down, dropping undelivered messages and
	// releasing all internal goroutines.
	Close()
}

// Corker is implemented by networks that can coalesce a burst of sends into
// fewer writes. Between Cork(from) and Flush(from) the network may hold the
// messages `from` sends; Flush hands every held message on. A node's event
// loop corks when it picks up work and flushes when its mailbox drains, so
// a message waits at most for the rest of the loop's busy period. Networks
// without it send each message at once.
type Corker interface {
	Cork(from failure.Proc)
	Flush(from failure.Proc)
}

// FaultInjector is implemented by networks that support failure injection.
type FaultInjector interface {
	// Crash stops process p: no further messages are delivered to or sent
	// by it.
	Crash(p failure.Proc)
	// Disconnect fails the channel c: messages sent through it from now on
	// are dropped. Disconnection is permanent (the paper's failure mode).
	Disconnect(c failure.Channel)
	// ApplyPattern makes every failure allowed by the pattern actually
	// happen: all processes in f.P crash and all channels in f.C disconnect.
	ApplyPattern(f failure.Pattern)
}

// Stats are message-level counters maintained by the in-memory network.
type Stats struct {
	Sent      int64 // application-level Send calls
	Forwarded int64 // relay hops performed by transitive forwarding
	Delivered int64 // payloads handed to handlers
	Dropped   int64 // copies dropped by crashes or disconnected channels
}

// DelayModel determines per-hop message delays. Elapsed is the time since
// the network started; it lets models implement partial synchrony.
type DelayModel interface {
	Delay(rng *rand.Rand, elapsed time.Duration) time.Duration
}

// UniformDelay delays each hop uniformly in [Min, Max].
type UniformDelay struct {
	Min, Max time.Duration
}

// Delay implements DelayModel.
func (u UniformDelay) Delay(rng *rand.Rand, _ time.Duration) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(rng.Int63n(int64(u.Max-u.Min)))
}

// PartialSync is the partial-synchrony delay model of §7: before GST delays
// follow the Before model (arbitrary, possibly huge); after GST every hop
// takes at most Delta.
type PartialSync struct {
	GST    time.Duration
	Before DelayModel
	Delta  time.Duration
}

// Delay implements DelayModel.
func (p PartialSync) Delay(rng *rand.Rand, elapsed time.Duration) time.Duration {
	if elapsed < p.GST {
		d := p.Before.Delay(rng, elapsed)
		// A pre-GST message must still be delivered by GST + Delta at the
		// latest once the network stabilizes: the standard DLS convention is
		// that messages sent before GST are received by GST + Delta. Cap the
		// total delay accordingly.
		if elapsed+d > p.GST+p.Delta {
			return p.GST + p.Delta - elapsed
		}
		return d
	}
	if p.Delta <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(p.Delta))) + 1
}

var (
	_ DelayModel = UniformDelay{}
	_ DelayModel = PartialSync{}
)
