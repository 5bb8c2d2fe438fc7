// Package register implements the paper's multi-writer multi-reader atomic
// register (Figure 4) on top of quorum access functions. The protocol is an
// ABD-style two-phase algorithm: both read and write first collect a read
// quorum's states (Get phase), then store back through a write quorum (Set
// phase). The novelty is entirely inside the quorum access functions, which
// make the protocol live on generalized quorum systems (Theorem 1).
package register

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/qaf"
	"repro/internal/wire"
)

// Version tags a written value: a monotonically increasing number paired
// with the writer's process id, ordered lexicographically (§5).
type Version struct {
	Num  uint64
	Proc int
}

// Less reports whether v precedes w in the lexicographic version order.
func (v Version) Less(w Version) bool {
	if v.Num != w.Num {
		return v.Num < w.Num
	}
	return v.Proc < w.Proc
}

// String renders the version as "(num, proc)".
func (v Version) String() string { return fmt.Sprintf("(%d, %d)", v.Num, v.Proc) }

// State is the register state stored at each process: the most recent value
// written at this process and its version. It doubles as the update
// descriptor shipped through quorum_set: the update function of Figure 4
// (lines 6 and 11) is "overwrite if the incoming version is higher", which
// is fully described by the (value, version) pair itself.
type State struct {
	Val string
	Ver Version
}

// appendState encodes a state as its value, version number and writer
// (see package wire). The encoding is never empty, as qaf.StateMachine
// requires of a snapshot.
func appendState(b []byte, s State) []byte {
	b = wire.AppendUvarint(wire.AppendString(b, s.Val), s.Ver.Num)
	return wire.AppendVarint(b, int64(s.Ver.Proc))
}

// decodeState decodes one state written by appendState. The value is a
// copy: a state outlives the message it arrived in.
func decodeState(b []byte) (State, error) {
	r := wire.NewReader(b)
	s := State{Val: r.String(), Ver: Version{Num: r.Uvarint(), Proc: r.Int()}}
	return s, r.Done()
}

// stateMachine adapts State to qaf.StateMachine. It lives on the node event
// loop and needs no locking.
type stateMachine struct {
	cur State
}

var _ qaf.StateMachine = (*stateMachine)(nil)

func (s *stateMachine) Snapshot() []byte { return appendState(nil, s.cur) }

func (s *stateMachine) Apply(update []byte) error {
	u, err := decodeState(update)
	if err != nil {
		return fmt.Errorf("register update: %w", err)
	}
	// Figure 4, line 6/11: if t > s.ver then (x, t) else s.
	if s.cur.Ver.Less(u.Ver) {
		s.cur = u
	}
	return nil
}

// Register is one process's endpoint of the replicated MWMR atomic register.
type Register struct {
	id  int
	acc qaf.Accessor
	sm  *stateMachine
	// lastNum is the highest version number this endpoint has assigned to
	// a write. Concurrent writes at one process can read the same quorum
	// maximum; drawing each number past lastNum keeps the versions they
	// pick distinct (see nextVersion).
	lastNum atomic.Uint64
}

// Options configures a register endpoint.
type Options struct {
	// Name scopes wire topics; endpoints of the same register across
	// processes must use the same name. Defaults to "reg".
	Name string
	// Reads and Writes are the quorum families of the generalized quorum
	// system.
	Reads, Writes []graph.BitSet
	// Tick is the periodic propagation interval of the underlying quorum
	// access functions.
	Tick time.Duration
	// Classical selects the Figure-2 access functions instead of the
	// generalized ones — the baseline that requires bidirectional quorum
	// connectivity.
	Classical bool
	// Propagator optionally batches periodic state propagation with other
	// accessors on the node (ignored for the classical baseline).
	Propagator *qaf.Propagator
}

// New installs a register endpoint on the node.
func New(n *node.Node, opts Options) *Register {
	if opts.Name == "" {
		opts.Name = "reg"
	}
	sm := &stateMachine{}
	var acc qaf.Accessor
	if opts.Classical {
		acc = qaf.NewClassical(n, opts.Name, sm, opts.Reads, opts.Writes)
	} else {
		acc = qaf.NewGeneralized(n, qaf.GeneralizedConfig{
			Name:       opts.Name,
			SM:         sm,
			Reads:      opts.Reads,
			Writes:     opts.Writes,
			Tick:       opts.Tick,
			Propagator: opts.Propagator,
		})
	}
	return &Register{id: int(n.ID()), acc: acc, sm: sm}
}

// decodeStates parses the opaque states returned by quorum_get.
func decodeStates(raw [][]byte) ([]State, error) {
	out := make([]State, 0, len(raw))
	for _, b := range raw {
		s, err := decodeState(b)
		if err != nil {
			return nil, fmt.Errorf("register state: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}

func maxVersion(states []State) State {
	var best State
	for _, s := range states {
		if best.Ver.Less(s.Ver) {
			best = s
		}
	}
	return best
}

// Write implements write(x) (Figure 4, lines 2-7): collect versions from a
// read quorum, pick a unique higher version, and store (x, t) at a write
// quorum. It returns the version assigned to the write.
func (r *Register) Write(ctx context.Context, val string) (Version, error) {
	// Get phase.
	raw, err := r.acc.Get(ctx)
	if err != nil {
		return Version{}, fmt.Errorf("write get phase: %w", err)
	}
	states, err := decodeStates(raw)
	if err != nil {
		return Version{}, err
	}
	// Lines 4-5: t = (k+1, i) with k the largest version number seen.
	t := r.nextVersion(maxVersion(states).Ver.Num)
	// Set phase (line 7).
	if err := r.acc.Set(ctx, appendState(nil, State{Val: val, Ver: t})); err != nil {
		return Version{}, fmt.Errorf("write set phase: %w", err)
	}
	return t, nil
}

// nextVersion picks the version of a write whose Get phase saw version
// number seen at most: (max(seen, lastNum)+1, i). It exceeds every version
// the write read, as Figure 4's line 5 requires, and it is unique at this
// process even when concurrent writes saw the same maximum — the paper's
// (k+1, i) assumes one write at a time per process.
func (r *Register) nextVersion(seen uint64) Version {
	for {
		last := r.lastNum.Load()
		n := max(seen, last) + 1
		if r.lastNum.CompareAndSwap(last, n) {
			return Version{Num: n, Proc: r.id}
		}
	}
}

// Read implements read() (Figure 4, lines 8-13): collect states from a read
// quorum, pick the one with the largest version, write it back so any later
// operation observes it, and return its value. It also returns the version
// of the value read (useful for white-box linearizability checking).
func (r *Register) Read(ctx context.Context) (string, Version, error) {
	// Get phase.
	raw, err := r.acc.Get(ctx)
	if err != nil {
		return "", Version{}, fmt.Errorf("read get phase: %w", err)
	}
	states, err := decodeStates(raw)
	if err != nil {
		return "", Version{}, err
	}
	// Line 10: s' = state with the largest version.
	best := maxVersion(states)
	// Set phase (line 12): write back before returning.
	if err := r.acc.Set(ctx, appendState(nil, best)); err != nil {
		return "", Version{}, fmt.Errorf("read set phase: %w", err)
	}
	return best.Val, best.Ver, nil
}

// Stop releases the underlying quorum accessor.
func (r *Register) Stop() { r.acc.Stop() }

// Metrics exposes the underlying accessor's counters when available.
func (r *Register) Metrics() (qaf.Metrics, bool) {
	switch a := r.acc.(type) {
	case *qaf.Generalized:
		return a.Metrics(), true
	case *qaf.Classical:
		return a.Metrics(), true
	default:
		return qaf.Metrics{}, false
	}
}
