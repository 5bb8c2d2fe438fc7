// Package qaf implements the paper's quorum access functions (§5): the
// classical request/response implementation of Figure 2, which requires
// bidirectional connectivity to read quorums, and the generalized
// implementation of Figure 3, which uses novel logical clocks to obtain
// up-to-date read-quorum state over unidirectional connectivity only.
//
// Both implementations provide the same interface:
//
//	Get  — returns the states of all members of some read quorum;
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
}

// Accessor is the common interface of the two implementations.
type Accessor interface {
	// Get returns the states of all members of some read quorum (Validity
	// and Real-time ordering per §5).
	Get(ctx context.Context) ([][]byte, error)
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
type Metrics struct {
	Gets int64
	Sets int64
}
