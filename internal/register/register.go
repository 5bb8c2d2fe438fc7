// Package register implements the paper's multi-writer multi-reader atomic
// register (Figure 4) on top of quorum access functions. The protocol is an
// ABD-style two-phase algorithm: both read and write first collect a read
// quorum's states (Get phase), then store back through a write quorum (Set
// phase). The novelty is entirely inside the quorum access functions, which
// make the protocol live on generalized quorum systems (Theorem 1).
//
// # Reads without write-back
//
// A read's Set phase (Figure 4, line 12) writes back the value it read only
// so that every later operation sees a version at least as new. A read
// skips it when the generalized access functions prove that this already
// holds — the ABD fast read (Attiya, Bar-Noy, Dolev 1995; Dutta et al.,
// PODC 2004), restated over Figure 3's clocks — so Figure 4's write-back
// runs only when it is needed. The proof is made on the node loop at the
// instant the read's quorum_get completes, over the state reports the
// process holds: each is a state, the sender's clock when it sent it, and
// the state's version ver, the sender's clock at its last applied update.
// Let best be the largest state the get returns. The get reports it
// installed iff
//
//   - some write quorum W0 has, for every member q, a held report with
//     ver_q >= 0 whose state covers best (its version is at least best's),
//     and
//   - with m the largest ver_q over W0, some read quorum R* has, for every
//     member, a held report with clock >= m.
//
// Otherwise the read writes back as Figure 4 says. Why skipping is safe:
//
//   - q's state covers best at every clock from ver_q on: clocks strictly
//     increase on apply, ver_q is q's clock at its last apply, and states
//     only grow.
//   - Take any get that starts after the read returns, with cutoff write
//     quorum W'. W' meets R*, whose members reached clock m before the
//     read returned, and a process's clock never falls, so the cutoff is
//     at least m, hence at least every ver_q.
//   - Its read quorum R' reports clocks at or beyond that cutoff and meets
//     W0, so some member of R' reports a state that covers best.
//
// That is the postcondition the write-back would have established
// (Theorem 3's argument with c_set := m). Reports pushed by the
// per-instance ticker (qaf.GeneralizedConfig without a Propagator) carry
// no version (ver = -1) and never qualify, and the classical access
// functions never report a result installed, so those reads always write
// back. Writes always run their Set phase.
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

// Covers implements qaf.StateMachine: a state holds every update another
// holds when its version is at least the other's. Only the versions are
// decoded; a state that does not decode covers nothing and is covered by
// nothing.
func (s *stateMachine) Covers(a, b []byte) bool {
	va, errA := decodeVersion(a)
	vb, errB := decodeVersion(b)
	return errA == nil && errB == nil && !va.Less(vb)
}

// decodeVersion decodes the version of a state written by appendState,
// skipping its value.
func decodeVersion(b []byte) (Version, error) {
	r := wire.NewReader(b)
	r.Skip()
	v := Version{Num: r.Uvarint(), Proc: r.Int()}
	return v, r.Done()
}

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
	// accessors on the node (ignored for the classical baseline). Only its
	// reports carry state versions, so only with it can a read skip its
	// write-back (see the package doc).
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
	raw, _, err := r.acc.Get(ctx)
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
// operation observes it — unless the get proved it already installed (see
// the package doc) — and return its value. It also returns the version of
// the value read (useful for white-box linearizability checking).
func (r *Register) Read(ctx context.Context) (string, Version, error) {
	// Get phase.
	raw, installed, err := r.acc.Get(ctx)
	if err != nil {
		return "", Version{}, fmt.Errorf("read get phase: %w", err)
	}
	states, err := decodeStates(raw)
	if err != nil {
		return "", Version{}, err
	}
	// Line 10: s' = state with the largest version.
	best := maxVersion(states)
	// Set phase (line 12): write back before returning, unless best is
	// already installed.
	if !installed {
		if err := r.acc.Set(ctx, appendState(nil, best)); err != nil {
			return "", Version{}, fmt.Errorf("read set phase: %w", err)
		}
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
