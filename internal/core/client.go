package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/failure"
	"repro/internal/lattice"
	"repro/internal/lease"
	"repro/internal/register"
	"repro/internal/smr"
	"repro/internal/snapshot"
)

// Object kinds provisioned by a Cluster.
const (
	KindRegister  = "register"
	KindSnapshot  = "snapshot"
	KindLattice   = "lattice"
	KindConsensus = "consensus"
	KindLog       = "log"
	KindKV        = "kv"
)

// ErrClientClosed is returned by operations on a closed client.
var ErrClientClosed = errors.New("client closed")

// Object is the uniform lifecycle every provisioned client implements:
// identification plus an idempotent, concurrency-safe Close.
type Object interface {
	// Kind is one of the Kind* constants.
	Kind() string
	// Name is the object's cluster-unique name within its kind.
	Name() string
	// Close stops the object's endpoints at every process. It is idempotent;
	// operations after Close fail with ErrClientClosed. The object stays in
	// the cluster registry, so re-provisioning the name returns the closed
	// client rather than recreating wire topics.
	Close() error
}

// ClientMetrics is a point-in-time snapshot of one client's operation
// counters.
type ClientMetrics struct {
	// Ops is the number of operations issued through the client.
	Ops uint64
	// Successes and Failures partition completed operations.
	Successes, Failures uint64
	// Failovers counts operations that succeeded only after at least one
	// candidate process failed.
	Failovers uint64
	// MeanLatency averages the latency of successful operations.
	MeanLatency time.Duration
}

// client is the shared substrate of every typed client: identity, routing
// policy, metrics and close-once lifecycle.
type client struct {
	c    *Cluster
	kind string
	name string

	mu     sync.Mutex
	policy Policy
	stop   func()

	closed atomic.Bool

	ops, succs, fails, failovers atomic.Uint64
	latNanos                     atomic.Int64
}

func (o *client) init(c *Cluster, kind, name string, stop func()) {
	o.c = c
	o.kind = kind
	o.name = name
	o.policy = RoundRobin()
	o.stop = stop
}

// Kind implements Object.
func (o *client) Kind() string { return o.kind }

// Name implements Object.
func (o *client) Name() string { return o.name }

// Cluster returns the cluster the client belongs to.
func (o *client) Cluster() *Cluster { return o.c }

// SetPolicy installs the routing policy (default RoundRobin). Safe to call
// concurrently with operations; nil resets to RoundRobin.
func (o *client) SetPolicy(p Policy) {
	if p == nil {
		p = RoundRobin()
	}
	o.mu.Lock()
	o.policy = p
	o.mu.Unlock()
}

func (o *client) currentPolicy() Policy {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.policy
}

// Metrics returns a snapshot of the client's operation counters.
func (o *client) Metrics() ClientMetrics {
	m := ClientMetrics{
		Ops:       o.ops.Load(),
		Successes: o.succs.Load(),
		Failures:  o.fails.Load(),
		Failovers: o.failovers.Load(),
	}
	if m.Successes > 0 {
		m.MeanLatency = time.Duration(o.latNanos.Load() / int64(m.Successes))
	}
	return m
}

// Close implements Object.
func (o *client) Close() error {
	if o.closed.CompareAndSwap(false, true) {
		o.stop()
	}
	return nil
}

// do routes one operation: it asks the policy for candidate processes and
// tries them in order until one succeeds (automatic failover) or candidates
// run out. When the operation's context has a deadline, the remaining
// budget is split evenly across the remaining candidates so a stalled
// candidate (e.g. a crashed process outside U_f) cannot consume it all and
// leave nothing for failover; the last candidate gets everything left.
// Without a deadline an unresponsive candidate blocks until the context is
// canceled — callers wanting failover should set one (or route with
// HealthyUf, which excludes non-wait-free processes up front).
func (o *client) do(ctx context.Context, op func(ctx context.Context, p int) error) error {
	return o.route(ctx, true, op)
}

// doNoFailover routes to the policy's first candidate only, for operations
// that are unsafe to re-submit elsewhere (see LogClient.Append).
func (o *client) doNoFailover(ctx context.Context, op func(ctx context.Context, p int) error) error {
	return o.route(ctx, false, op)
}

func (o *client) route(ctx context.Context, failover bool, op func(ctx context.Context, p int) error) error {
	if o.closed.Load() {
		return fmt.Errorf("%s %q: %w", o.kind, o.name, ErrClientClosed)
	}
	cands := o.currentPolicy().Candidates(o.c)
	if !failover && len(cands) > 1 {
		cands = cands[:1]
	}
	o.ops.Add(1)
	if len(cands) == 0 {
		o.fails.Add(1)
		return fmt.Errorf("%s %q: no routable process", o.kind, o.name)
	}
	// WithRetry grants failover-safe operations extra passes over the
	// candidate list; re-submittable harm rules out retrying the rest, the
	// same line doNoFailover draws.
	rounds := 1
	if failover && o.c.cfg.retryRounds > 0 {
		rounds += o.c.cfg.retryRounds
	}
	deadline, hasDeadline := ctx.Deadline()
	start := time.Now()
	var lastErr error
	for r := 0; r < rounds; r++ {
		if r > 0 {
			if err := o.backoff(ctx, r); err != nil {
				break
			}
			// Re-consult the policy: a healed replica or a re-injected
			// pattern between passes changes the candidate set.
			if next := o.currentPolicy().Candidates(o.c); len(next) > 0 {
				cands = next
			}
		}
		for i, p := range cands {
			if err := ctx.Err(); err != nil {
				if lastErr == nil {
					lastErr = err
				}
				o.fails.Add(1)
				return lastErr
			}
			if p < 0 || p >= o.c.N() {
				lastErr = fmt.Errorf("%s %q: policy routed to process %d out of range [0,%d)", o.kind, o.name, p, o.c.N())
				continue
			}
			attemptCtx := ctx
			cancel := context.CancelFunc(func() {})
			if hasDeadline && (i < len(cands)-1 || r < rounds-1) {
				// Split the remaining budget over the remaining candidates of
				// this pass (a stalled candidate cannot consume it all); keep
				// a share in reserve while retry passes remain.
				rest := len(cands) - i
				if r < rounds-1 {
					rest++
				}
				share := time.Until(deadline) / time.Duration(rest)
				attemptCtx, cancel = context.WithTimeout(ctx, share)
			}
			err := op(attemptCtx, p)
			cancel()
			if err == nil {
				if i > 0 || r > 0 {
					o.failovers.Add(1)
				}
				o.succs.Add(1)
				o.latNanos.Add(int64(time.Since(start)))
				return nil
			}
			lastErr = err
		}
	}
	o.fails.Add(1)
	return lastErr
}

// backoff sleeps the jittered exponential delay preceding retry pass r
// (r >= 1): a uniformly random duration in [base/2, base] doubled per
// pass, capped at a second. Returns ctx's error if it expires first.
func (o *client) backoff(ctx context.Context, r int) error {
	d := o.c.cfg.retryBackoff << uint(min(r-1, 16))
	if d > time.Second {
		d = time.Second
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// at bounds-checks an explicit process id for the At accessors.
func (o *client) at(p failure.Proc, n int) int {
	if int(p) < 0 || int(p) >= n {
		panic(fmt.Sprintf("%s %q: process %d out of range [0,%d)", o.kind, o.name, p, n))
	}
	return int(p)
}

// --- register ---

// RegisterClient operates a named MWMR atomic register through the cluster's
// routing policy.
type RegisterClient struct {
	client
	eps []*register.Register
}

// Write stores val and returns the version it was written at.
func (rc *RegisterClient) Write(ctx context.Context, val string) (register.Version, error) {
	var ver register.Version
	err := rc.do(ctx, func(ctx context.Context, p int) error {
		v, err := rc.eps[p].Write(ctx, val)
		if err == nil {
			ver = v
		}
		return err
	})
	return ver, err
}

// Read returns the register's value and version.
func (rc *RegisterClient) Read(ctx context.Context) (string, register.Version, error) {
	var (
		val string
		ver register.Version
	)
	err := rc.do(ctx, func(ctx context.Context, p int) error {
		v, w, err := rc.eps[p].Read(ctx)
		if err == nil {
			val, ver = v, w
		}
		return err
	})
	return val, ver, err
}

// At returns the raw endpoint of process p, bypassing routing (for
// process-pinned drivers and experiments).
func (rc *RegisterClient) At(p failure.Proc) *register.Register {
	return rc.eps[rc.at(p, len(rc.eps))]
}

// --- snapshot ---

// SnapshotClient operates a named SWMR atomic snapshot object. Note that a
// routed Update writes the segment of whichever process the policy picks;
// writers that own a fixed segment should pin with Fixed or At.
type SnapshotClient struct {
	client
	eps []*snapshot.Snapshot
}

// Update writes val into the routed process's segment.
func (sc *SnapshotClient) Update(ctx context.Context, val string) error {
	return sc.do(ctx, func(ctx context.Context, p int) error {
		return sc.eps[p].Update(ctx, val)
	})
}

// Scan returns an atomic view of all segments.
func (sc *SnapshotClient) Scan(ctx context.Context) ([]string, error) {
	var view []string
	err := sc.do(ctx, func(ctx context.Context, p int) error {
		v, err := sc.eps[p].Scan(ctx)
		if err == nil {
			view = v
		}
		return err
	})
	return view, err
}

// At returns the raw endpoint of process p, bypassing routing.
func (sc *SnapshotClient) At(p failure.Proc) *snapshot.Snapshot {
	return sc.eps[sc.at(p, len(sc.eps))]
}

// --- lattice agreement ---

// LatticeClient operates a named single-shot lattice agreement object.
// Lattice agreement is single-shot per process: each process may propose
// once, so a routed Propose consumes the shot of whichever process the
// policy picks.
type LatticeClient struct {
	client
	eps []*lattice.Agreement
}

// Propose submits v at the routed process and returns its output value.
func (lc *LatticeClient) Propose(ctx context.Context, v string) (string, error) {
	var out string
	err := lc.do(ctx, func(ctx context.Context, p int) error {
		o, err := lc.eps[p].Propose(ctx, v)
		if err == nil {
			out = o
		}
		return err
	})
	return out, err
}

// At returns the raw endpoint of process p, bypassing routing.
func (lc *LatticeClient) At(p failure.Proc) *lattice.Agreement {
	return lc.eps[lc.at(p, len(lc.eps))]
}

// --- consensus ---

// ConsensusClient operates a named single-shot consensus object.
type ConsensusClient struct {
	client
	eps []*consensus.Consensus
}

// Propose submits v at the routed process and returns the decided value.
func (cc *ConsensusClient) Propose(ctx context.Context, v string) (string, error) {
	var out string
	err := cc.do(ctx, func(ctx context.Context, p int) error {
		d, err := cc.eps[p].Propose(ctx, v)
		if err == nil {
			out = d
		}
		return err
	})
	return out, err
}

// At returns the raw endpoint of process p, bypassing routing.
func (cc *ConsensusClient) At(p failure.Proc) *consensus.Consensus {
	return cc.eps[cc.at(p, len(cc.eps))]
}

// --- replicated log ---

// LogClient operates a named replicated command log. The log compacts like
// every smr log: once every replica has checkpointed past a slot it is
// truncated, and Get on it fails with smr.ErrCompacted — a raw log keeps
// its decided values only within the live slot window.
type LogClient struct {
	client
	eps []*smr.Log
}

// Append commits cmd and returns the slot where it was first applied.
// Append never fails over: an attempt that errors mid-protocol may still
// commit later, and re-submitting the command at another process makes it
// a new sub-batch there, which would commit it twice (exactly-once client
// sessions would lift this).
func (lc *LogClient) Append(ctx context.Context, cmd string) (int64, error) {
	var slot int64
	err := lc.doNoFailover(ctx, func(ctx context.Context, p int) error {
		s, err := lc.eps[p].Append(ctx, cmd)
		if err == nil {
			slot = s
		}
		return err
	})
	return slot, err
}

// Get returns the decision of a slot, blocking until it is decided at the
// routed process. A slot's decision is a group-commit batch value carrying
// one or more commands; expand it with smr.SlotCommands (re-exported as
// gqs.SlotCommands). A sub-batch re-sent after a view change can appear in
// two slots' values; its later copy was skipped at apply.
func (lc *LogClient) Get(ctx context.Context, slot int64) (string, error) {
	var v string
	err := lc.do(ctx, func(ctx context.Context, p int) error {
		s, err := lc.eps[p].Get(ctx, slot)
		if err == nil {
			v = s
		}
		return err
	})
	return v, err
}

// At returns the raw endpoint of process p, bypassing routing.
func (lc *LogClient) At(p failure.Proc) *smr.Log {
	return lc.eps[lc.at(p, len(lc.eps))]
}

// --- replicated KV ---

// KVClient operates a named linearizable replicated key-value store. Its
// linearizable reads (Sync, SyncGet, SyncGetMany) take the fastest safe
// path available: a leased local read at the holder when the cluster was
// opened WithLease and the lease is valid, else a shared read barrier —
// concurrent barrier reads at one process coalesce onto a single Sync
// no-op commit. Both fall out of the lease package; see its doc for the
// linearizability argument.
type KVClient struct {
	client
	eps []*smr.KV
	// barriers coalesce concurrent barrier reads per process (always
	// present).
	barriers []*lease.Barrier
	// leases are the per-process lease managers; nil without WithLease.
	leases []*lease.Manager
	// holder indexes the lease-holding process (WithLeaseHolder).
	holder int
}

// LeaseManager returns the lease manager of process p, or nil when the
// cluster was opened without WithLease (for introspection: Holding,
// Metrics).
func (kc *KVClient) LeaseManager(p failure.Proc) *lease.Manager {
	if kc.leases == nil {
		return nil
	}
	return kc.leases[kc.at(p, len(kc.leases))]
}

// ReadBarrier returns the shared read-barrier coalescer of process p (for
// introspection and pinned drivers).
func (kc *KVClient) ReadBarrier(p failure.Proc) *lease.Barrier {
	return kc.barriers[kc.at(p, len(kc.barriers))]
}

// tryLeased attempts the leased local read at the holder. done=false — no
// lease configured, not currently valid at the read's linearization point,
// or the holder endpoint failed — routes the caller to the barrier path.
// Successful fast-path reads are recorded in the client metrics like any
// other operation.
func (kc *KVClient) tryLeased(ctx context.Context, key string) (val string, found, done bool) {
	if kc.leases == nil || kc.closed.Load() {
		return "", false, false
	}
	start := time.Now()
	v, ok, served, err := kc.leases[kc.holder].Read(ctx, key)
	if !served || err != nil {
		return "", false, false
	}
	kc.ops.Add(1)
	kc.succs.Add(1)
	kc.latNanos.Add(int64(time.Since(start)))
	return v, ok, true
}

// Set commits key=val and returns the log slot it occupies. Like
// LogClient.Append it never fails over: a timed-out attempt's proposal may
// still commit later, and a re-submitted Set could then be outrun by it —
// replaying the old value over newer writes of the key. (Sync and SyncGet
// do fail over: their barrier no-ops are harmless to duplicate.)
func (kc *KVClient) Set(ctx context.Context, key, val string) (int64, error) {
	var slot int64
	err := kc.doNoFailover(ctx, func(ctx context.Context, p int) error {
		s, err := kc.eps[p].Set(ctx, key, val)
		if err == nil {
			slot = s
		}
		return err
	})
	return slot, err
}

// SetMany commits every pair at one routed process and returns the slot of
// each pair, aligned with the input order. The pairs coalesce into as few
// group commits as the batch caps allow (WithBatch) — a k-write call costs
// ~1 consensus round instead of k.
// The pairs are concurrent writes: only pairs sharing one group commit are
// ordered among themselves (see smr.KV.SetMany for the ordering contract).
// Like Set it never fails over; the routed attempt's partial results are
// final (committed pairs keep their slots, failed pairs report slot -1,
// the first error is returned).
func (kc *KVClient) SetMany(ctx context.Context, pairs []smr.KVPair) ([]int64, error) {
	var slots []int64
	err := kc.doNoFailover(ctx, func(ctx context.Context, p int) error {
		s, err := kc.eps[p].SetMany(ctx, pairs)
		slots = s
		return err
	})
	return slots, err
}

// SetAsync submits key=val at the routed process and returns a channel
// receiving its completion — the write's slot AND its real index within
// that slot's group commit, so results pair with LogClient.Get +
// smr.SlotCommands. One client can keep several writes in flight
// (pipelined group commits) instead of serializing on each decision.
// Routing, metrics and the no-failover rule match Set; the channel is
// buffered, so abandoning it leaks nothing. (The routed client relays the
// endpoint's completion through one goroutine to record metrics; drivers
// pinning endpoints with At get the endpoint's adapter-free channel.)
func (kc *KVClient) SetAsync(ctx context.Context, key, val string) <-chan smr.SetResult {
	out := make(chan smr.SetResult, 1)
	go func() {
		var res smr.SetResult
		err := kc.doNoFailover(ctx, func(ctx context.Context, p int) error {
			res = <-kc.eps[p].SetAsync(ctx, key, val)
			return res.Err
		})
		if err != nil && res.Err == nil {
			res = smr.SetResult{Err: err} // routing failure before any attempt
		}
		out <- res
	}()
	return out
}

// Get returns key's value in the decided prefix at the routed process.
// Like the endpoint Get it is linearizable with respect to Sets observed at
// that process only — successive routed calls may land on different
// processes, so a Get right after a Set can miss it. For freshness across
// processes use SyncGet (barrier and read at one routed process) or pin
// with At.
func (kc *KVClient) Get(ctx context.Context, key string) (string, bool, error) {
	var (
		val   string
		found bool
	)
	err := kc.do(ctx, func(ctx context.Context, p int) error {
		v, ok, err := kc.eps[p].Get(ctx, key)
		if err == nil {
			val, found = v, ok
		}
		return err
	})
	return val, found, err
}

// Sync waits out a read barrier at the routed process: concurrent Syncs
// there share one no-op commit (see lease.Barrier); a lone Sync still
// commits exactly one barrier. Note that Sync and a following Get route
// independently; use SyncGet when the barrier must cover the read.
func (kc *KVClient) Sync(ctx context.Context) error {
	return kc.do(ctx, func(ctx context.Context, p int) error {
		return kc.barriers[p].Sync(ctx)
	})
}

// SyncGet performs a linearizable read. With a valid lease (WithLease) it
// is served locally from the holder's applied state, no consensus round;
// otherwise it routes to one process, waits out a shared read barrier
// there, and reads key from that process's decided prefix — which then
// includes every Set completed before SyncGet was invoked, regardless of
// where it was committed. Lease loss degrades to the barrier path
// transparently.
func (kc *KVClient) SyncGet(ctx context.Context, key string) (string, bool, error) {
	if v, ok, done := kc.tryLeased(ctx, key); done {
		return v, ok, nil
	}
	var (
		val   string
		found bool
	)
	err := kc.do(ctx, func(ctx context.Context, p int) error {
		if err := kc.barriers[p].Sync(ctx); err != nil {
			return err
		}
		v, ok, err := kc.eps[p].Get(ctx, key)
		if err == nil {
			val, found = v, ok
		}
		return err
	})
	return val, found, err
}

// SyncGetMany performs one linearizable multi-key read. With a valid lease
// it is one atomic multi-key lookup at the holder; otherwise it routes to a
// single process, waits out one shared read barrier there, and reads every
// key from that process's decided prefix — which then includes every Set
// completed before SyncGetMany was invoked. Missing keys are absent from
// the result. One barrier amortizes across all keys, so a k-key read costs
// at most one commit instead of k.
func (kc *KVClient) SyncGetMany(ctx context.Context, keys []string) (map[string]string, error) {
	if kc.leases != nil && !kc.closed.Load() {
		start := time.Now()
		if m, served, err := kc.leases[kc.holder].ReadMany(ctx, keys); served && err == nil {
			kc.ops.Add(1)
			kc.succs.Add(1)
			kc.latNanos.Add(int64(time.Since(start)))
			return m, nil
		}
	}
	var out map[string]string
	err := kc.do(ctx, func(ctx context.Context, p int) error {
		if err := kc.barriers[p].Sync(ctx); err != nil {
			return err
		}
		m := make(map[string]string, len(keys))
		for _, k := range keys {
			v, ok, err := kc.eps[p].Get(ctx, k)
			if err != nil {
				return err
			}
			if ok {
				m[k] = v
			}
		}
		out = m
		return nil
	})
	return out, err
}

// At returns the raw endpoint of process p, bypassing routing.
func (kc *KVClient) At(p failure.Proc) *smr.KV {
	return kc.eps[kc.at(p, len(kc.eps))]
}

// CompactionMetrics aggregates the compaction counters across every process
// endpoint: event counters sum (each process checkpoints and truncates
// independently), peak slot occupancy takes the cluster-wide maximum (the
// bound the window argument must hold at every process).
func (kc *KVClient) CompactionMetrics() smr.CompactionMetrics {
	var m smr.CompactionMetrics
	for _, ep := range kc.eps {
		em := ep.CompactionMetrics()
		m.Checkpoints += em.Checkpoints
		m.Truncations += em.Truncations
		m.SlotsFreed += em.SlotsFreed
		m.InstallsSent += em.InstallsSent
		m.InstallsReceived += em.InstallsReceived
		if em.PeakOccupancy > m.PeakOccupancy {
			m.PeakOccupancy = em.PeakOccupancy
		}
	}
	return m
}
