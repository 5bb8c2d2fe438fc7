// Package qaf implements the paper's quorum access functions (§5): the
// classical request/response implementation of Figure 2, which requires
// bidirectional connectivity to read quorums, and the generalized
// implementation of Figure 3, which uses novel logical clocks to obtain
// up-to-date read-quorum state over unidirectional connectivity only.
//
// Both implementations provide the same interface:
//
//	Get  — returns the states of all members of some read quorum, and
//	       whether the largest is provably installed already (the
//	       generalized implementation only);
//	Set  — applies an update to the states of all members of some write
//	       quorum.
//
// and satisfy the paper's Validity, Real-time ordering and Liveness
// properties (the classical one only on networks without channel failures).
package qaf

import (
	"context"
	"errors"

	"repro/internal/graph"
)

// ErrStopped is returned by Get/Set after the accessor has been stopped.
var ErrStopped = errors.New("quorum accessor stopped")

// StateMachine is the opaque state S of the top-level protocol (e.g. the
// register implementation). The access functions only manipulate it through
// snapshots and update descriptors; the descriptor semantics belong to the
// protocol (§5: "its structure is opaque to this implementation").
//
// Implementations are only invoked from the hosting node's event loop and
// therefore need no internal synchronization.
type StateMachine interface {
	// Snapshot returns an encoding of the current state. It must not be
	// empty: the Propagator sends clock-only entries as entries without
	// state.
	Snapshot() []byte
	// Apply applies an update descriptor u to the state, implementing
	// state <- u(state).
	Apply(update []byte) error
	// Covers reports whether snapshot s holds every update snapshot t
	// holds, so that applying t's updates to s would change nothing. It
	// must be a preorder that Apply respects: a state only ever grows
	// under it. Generalized uses it to prove a Get's result already
	// installed (see Accessor.Get); false is always safe.
	Covers(s, t []byte) bool
}

// Accessor is the common interface of the two implementations.
type Accessor interface {
	// Get returns the states of all members of some read quorum (Validity
	// and Real-time ordering per §5), and whether the largest of them is
	// already installed: every Get that starts after this one returns
	// returns some state that covers it, just as if it had been Set
	// (Theorem 3's postcondition). A reader may then skip Figure 4's
	// write-back. Generalized proves it from the clock reports it holds
	// (package register has the rule and its safety argument); Classical
	// always reports false.
	Get(ctx context.Context) ([][]byte, bool, error)
	// Set applies the update descriptor to the states of all members of
	// some write quorum and, in the generalized implementation, delays
	// completion until the update is observable by any later Get.
	Set(ctx context.Context, update []byte) error
	// Stop cancels periodic tasks and releases any blocked invocations.
	Stop()
}

// quorumContaining returns the index of the first quorum in family that is
// fully contained in responders, or -1.
func quorumContaining(family []graph.BitSet, responders graph.BitSet) int {
	for i, q := range family {
		if q.SubsetOf(responders) {
			return i
		}
	}
	return -1
}

// Metrics counts accessor operations, for benchmarks and experiments.
// Installed counts the Gets whose result was proven already installed.
type Metrics struct {
	Gets      int64
	Sets      int64
	Installed int64
}
