// Package core ties the library together into a deployable service: given a
// fail-prone system (the operator's failure assumptions), it derives or
// validates a generalized quorum system, provisions a cluster of process
// runtimes over a chosen transport, and hands out typed clients for every
// object the paper proves implementable — registers, snapshots, lattice
// agreement, consensus, and the replicated log / KV layer built on top.
//
// This is the "adoption surface" of the reproduction. Open a Cluster,
// provision named objects, and operate on them through their clients:
//
//	c, err := core.Open(failure.Figure1())
//	kv, err := c.KV("accounts")
//	kv.SetPolicy(core.HealthyUf())
//	slot, err := kv.Set(ctx, "alice", "100")
//
// Clients route each operation to a process chosen by a pluggable Policy
// (Fixed, RoundRobin, HealthyUf) and fail over between candidates. HealthyUf
// turns the paper's central theorem into an operational feature: after
// InjectPattern(f) it routes only to the termination component U_f — the
// exact set of processes the paper proves remain wait-free under f.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/consensus"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/lease"
	"repro/internal/node"
	"repro/internal/qaf"
	"repro/internal/quorum"
	"repro/internal/register"
	"repro/internal/smr"
	"repro/internal/snapshot"
	"repro/internal/transport"
)

// ErrNoGQS is returned when the fail-prone system admits no generalized
// quorum system — by Theorem 2 nothing in this library (nor anything else)
// can be implemented under it.
var ErrNoGQS = errors.New("fail-prone system admits no generalized quorum system (Theorem 2: unimplementable)")

// ErrClusterClosed is returned by provisioning calls after Close.
var ErrClusterClosed = errors.New("cluster closed")

// config collects the functional options of Open.
type config struct {
	reads, writes []graph.BitSet
	network       transport.Network
	tcp           bool
	tcpAddrs      []string
	memOpts       []transport.MemOption
	tick          time.Duration
	viewC         time.Duration
	slots         int
	batch         smr.BatchOptions
	compaction    smr.CompactionOptions
	lease         time.Duration
	leaseHolder   failure.Proc
	leaseClock    func(failure.Proc) clock.Clock
	retryRounds   int
	retryBackoff  time.Duration
}

// Option configures Open.
type Option func(*config)

// WithQuorums pins the quorum families instead of deriving them with the
// decision procedure. Open still validates that (F, R, W) is a generalized
// quorum system.
func WithQuorums(reads, writes []graph.BitSet) Option {
	return func(c *config) { c.reads, c.writes = reads, writes }
}

// WithNetwork supplies an externally owned transport. The cluster uses it
// but does not close it on Close.
func WithNetwork(net transport.Network) Option {
	return func(c *config) { c.network = net }
}

// WithMem configures the in-memory simulated network the cluster creates by
// default (seed, delay model, delivery mode, ...). Ignored when WithNetwork
// or WithTCP is used.
func WithMem(opts ...transport.MemOption) Option {
	return func(c *config) { c.memOpts = append(c.memOpts, opts...) }
}

// WithTCP runs the cluster over real TCP sockets, one endpoint per process.
// With no arguments every process listens on an ephemeral loopback port;
// otherwise exactly one address per process must be given. The TCP transport
// has no fault injection (InjectPattern fails on it).
func WithTCP(addrs ...string) Option {
	return func(c *config) { c.tcp, c.tcpAddrs = true, addrs }
}

// WithTick sets the periodic propagation interval of the quorum access
// functions (default 2ms).
func WithTick(d time.Duration) Option {
	return func(c *config) { c.tick = d }
}

// WithViewC sets the consensus view-duration constant (default 25ms).
func WithViewC(d time.Duration) Option {
	return func(c *config) { c.viewC = d }
}

// WithSlots sets the slot window of replicated logs (and the KV stores
// above them) provisioned by this cluster: the slots live at once, not a
// lifetime budget — the window slides as checkpoints retire the decided
// prefix (WithCompaction). Every process runs every live slot (see the smr
// package comment), but an unused slot holds no state and shares one
// default 1B per process per view, so the window costs neither memory nor
// steady-state traffic.
func WithSlots(n int) Option {
	return func(c *config) { c.slots = n }
}

// WithBatch tunes group commit, the only append path of the replicated
// logs (and KV stores) provisioned by this cluster: commands arriving
// within window coalesce into one slot's value carrying up to maxOps
// commands, amortizing the round trip over the batch. Zero takes the smr
// default for either (no window, 64 commands); maxOps 1 gives every
// command its own slot. See smr.BatchOptions and WithPipeline.
func WithBatch(window time.Duration, maxOps int) Option {
	return func(c *config) {
		c.batch.Window = window
		c.batch.MaxOps = maxOps
	}
}

// WithCompaction tunes checkpointed log compaction, which every replicated
// log (and KV store) provisioned by this cluster runs: every o.Interval
// decided slots each process folds its applied state into a checkpoint,
// the decided prefix below the cluster-wide acknowledged frontier is
// truncated (freed slots are recycled, so sustained workloads outlive the
// slot window), and replicas that fall below the live window are healed by
// a snapshot-install in O(state) instead of an O(history) replay.
// Non-announcing peers stop blocking truncation after o.AckTimeout. Without
// it the smr defaults apply; see smr.CompactionOptions.
func WithCompaction(o smr.CompactionOptions) Option {
	return func(c *config) { c.compaction = o }
}

// WithPipeline sets how many append batches a provisioned log keeps in
// flight concurrently (consecutive slots pipelining their consensus
// rounds). Zero takes the smr default (4).
func WithPipeline(n int) Option {
	return func(c *config) { c.batch.Pipeline = n }
}

// WithLease enables leased local reads on the KV stores provisioned by
// this cluster: one process (WithLeaseHolder, default process 0) maintains
// a time-bounded read lease through committed log entries and serves
// KVClient.SyncGet reads from its applied state with no consensus round
// while the lease is valid; on lease loss (partition, missed renewal)
// reads transparently fall back to the shared-barrier path. While a lease
// is in force, write completions gate on the holder having applied them —
// the read/write trade the lease buys. d is the lease duration; zero
// accepts lease.DefaultDuration. See the lease package for the protocol
// and its linearizability argument.
func WithLease(d time.Duration) Option {
	return func(c *config) {
		c.lease = d
		if d <= 0 {
			c.lease = lease.DefaultDuration
		}
	}
}

// WithLeaseHolder picks the process that holds read leases (default
// process 0). Implies WithLease's default duration when WithLease was not
// otherwise given.
func WithLeaseHolder(p failure.Proc) Option {
	return func(c *config) {
		c.leaseHolder = p
		if c.lease <= 0 {
			c.lease = lease.DefaultDuration
		}
	}
}

// WithRetry makes failover-safe client operations retry after exhausting
// one pass over the policy's candidates: up to rounds extra passes, each
// preceded by a jittered exponential backoff starting from base (default
// 5ms, capped at a second) and each re-consulting the routing policy — a
// replica that healed or a pattern re-injection between passes changes the
// candidate set. Operations that must not be re-submitted (Set, SetMany,
// SetAsync, Append) are never retried, exactly as they never fail over; a
// context deadline still bounds everything. Off by default: steady-state
// tests rely on a single pass failing fast.
func WithRetry(rounds int, base time.Duration) Option {
	return func(c *config) {
		c.retryRounds = rounds
		c.retryBackoff = base
		if c.retryBackoff <= 0 {
			c.retryBackoff = 5 * time.Millisecond
		}
	}
}

// WithLeaseClocks supplies the per-process clock the KV lease managers run
// on (default clock.Real everywhere). The nemesis engine injects
// clock.Skewed instances here to step one process's wall clock mid-run and
// probe the lease's Skew budget; tests inject clock.Fake. A nil function
// or a nil returned clock falls back to clock.Real.
func WithLeaseClocks(f func(failure.Proc) clock.Clock) Option {
	return func(c *config) { c.leaseClock = f }
}

// objKey identifies a provisioned object: two kinds may share a name.
type objKey struct {
	kind, name string
}

// Cluster is a provisioned deployment: a validated generalized quorum
// system, one process runtime per process, and a registry of named objects
// reached through typed clients. All methods are safe for concurrent use.
type Cluster struct {
	// QS is the generalized quorum system in force (validated).
	QS quorum.System

	nets    []transport.Network // one per process for TCP; single shared otherwise
	mem     *transport.MemNetwork
	ownsNet bool
	nodes   []*node.Node
	props   []*qaf.Propagator

	tick         time.Duration
	viewC        time.Duration
	slots        int
	batch        smr.BatchOptions
	compaction   smr.CompactionOptions
	lease        time.Duration
	leaseHolder  failure.Proc
	leaseClock   func(failure.Proc) clock.Clock
	retryRounds  int
	retryBackoff time.Duration

	mu      sync.Mutex
	objects map[objKey]Object
	pending map[objKey]*pendingObj
	order   []Object // creation order, closed in reverse
	pattern *failure.Pattern
	healthy graph.BitSet // U_f under pattern; nil when no pattern injected
	closed  bool
}

// pendingObj tracks an object whose endpoints are being constructed outside
// the registry lock; concurrent provisioners of the same key wait on done.
type pendingObj struct {
	done chan struct{}
	obj  Object // set before done closes
	err  error  // set before done closes
}

// Open validates the fail-prone system, derives a generalized quorum system
// for it (or validates the one pinned with WithQuorums), and starts one
// process runtime per process over the configured transport.
func Open(failProne failure.System, opts ...Option) (*Cluster, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if err := failProne.Validate(); err != nil {
		return nil, fmt.Errorf("fail-prone system: %w", err)
	}
	n := failProne.N
	qs := quorum.System{F: failProne, Reads: cfg.reads, Writes: cfg.writes}
	if len(cfg.reads) == 0 || len(cfg.writes) == 0 {
		derived, ok := quorum.Find(quorum.Network(n), failProne)
		if !ok {
			return nil, ErrNoGQS
		}
		qs = derived
	}
	if err := qs.Validate(); err != nil {
		return nil, fmt.Errorf("quorum system: %w", err)
	}

	if cfg.lease > 0 && (int(cfg.leaseHolder) < 0 || int(cfg.leaseHolder) >= n) {
		return nil, fmt.Errorf("WithLeaseHolder: process %d out of range [0,%d)", cfg.leaseHolder, n)
	}
	c := &Cluster{
		QS:           qs,
		tick:         cfg.tick,
		viewC:        cfg.viewC,
		slots:        cfg.slots,
		batch:        cfg.batch,
		compaction:   cfg.compaction,
		lease:        cfg.lease,
		leaseHolder:  cfg.leaseHolder,
		leaseClock:   cfg.leaseClock,
		retryRounds:  cfg.retryRounds,
		retryBackoff: cfg.retryBackoff,
		objects:      make(map[objKey]Object),
		pending:      make(map[objKey]*pendingObj),
	}
	if c.tick <= 0 {
		c.tick = 2 * time.Millisecond
	}
	if c.viewC <= 0 {
		c.viewC = 25 * time.Millisecond
	}
	if c.slots <= 0 {
		c.slots = smr.DefaultSlots
	}

	switch {
	case cfg.network != nil:
		c.nets = []transport.Network{cfg.network}
		if mem, ok := cfg.network.(*transport.MemNetwork); ok {
			c.mem = mem
		}
		for i := 0; i < n; i++ {
			c.nodes = append(c.nodes, node.New(failure.Proc(i), cfg.network))
		}
	case cfg.tcp:
		addrs := cfg.tcpAddrs
		if len(addrs) == 0 {
			addrs = make([]string, n)
			for i := range addrs {
				addrs[i] = "127.0.0.1:0"
			}
		}
		if len(addrs) != n {
			return nil, fmt.Errorf("WithTCP: got %d addresses for %d processes", len(addrs), n)
		}
		tcp := make([]*transport.TCPNetwork, n)
		for i := range tcp {
			tn, err := transport.NewTCP(failure.Proc(i), addrs)
			if err != nil {
				for _, prev := range tcp[:i] {
					prev.Close()
				}
				return nil, fmt.Errorf("tcp endpoint %d: %w", i, err)
			}
			tcp[i] = tn
		}
		for i := range tcp {
			for j := range tcp {
				tcp[j].SetPeerAddr(failure.Proc(i), tcp[i].Addr())
			}
		}
		c.ownsNet = true
		for i, tn := range tcp {
			c.nets = append(c.nets, tn)
			c.nodes = append(c.nodes, node.New(failure.Proc(i), tn))
		}
	default:
		mem := transport.NewMem(n, cfg.memOpts...)
		c.mem = mem
		c.ownsNet = true
		c.nets = []transport.Network{mem}
		for i := 0; i < n; i++ {
			c.nodes = append(c.nodes, node.New(failure.Proc(i), mem))
		}
	}
	for _, nd := range c.nodes {
		c.props = append(c.props, qaf.NewPropagator(nd, c.tick))
	}
	return c, nil
}

// N returns the number of processes.
func (c *Cluster) N() int { return len(c.nodes) }

// Node returns the runtime of process p (for advanced wiring).
func (c *Cluster) Node(p failure.Proc) (*node.Node, error) {
	if int(p) < 0 || int(p) >= len(c.nodes) {
		return nil, fmt.Errorf("process %d out of range [0,%d)", p, len(c.nodes))
	}
	return c.nodes[p], nil
}

// Uf returns the termination component for pattern f: the exact set of
// processes at which every object's operations are wait-free when f's
// failures happen (Theorems 1 and 5).
func (c *Cluster) Uf(f failure.Pattern) graph.BitSet {
	return c.QS.Uf(quorum.Network(c.N()), f)
}

// Injector returns the transport's fault-injection interface, or nil when
// the transport does not support it (TCP). Externally supplied networks
// (WithNetwork) qualify by implementing transport.FaultInjector.
func (c *Cluster) Injector() transport.FaultInjector {
	if c.mem != nil {
		return c.mem
	}
	if len(c.nets) == 1 {
		if inj, ok := c.nets[0].(transport.FaultInjector); ok {
			return inj
		}
	}
	return nil
}

// NetStats returns message-level counters when the transport maintains them
// (the in-memory simulator does).
func (c *Cluster) NetStats() (transport.Stats, bool) {
	if c.mem == nil {
		return transport.Stats{}, false
	}
	return c.mem.Stats(), true
}

// InjectPattern makes every failure allowed by f actually happen, when the
// transport supports fault injection, and records f as the pattern in force
// so HealthyUf-routed clients confine operations to U_f.
func (c *Cluster) InjectPattern(f failure.Pattern) error {
	inj := c.Injector()
	if inj == nil {
		return errors.New("transport does not support fault injection")
	}
	uf := c.Uf(f)
	c.mu.Lock()
	c.pattern = &f
	c.healthy = uf
	c.mu.Unlock()
	inj.ApplyPattern(f)
	return nil
}

// Pattern returns the currently injected failure pattern, or ok=false when
// none has been injected.
func (c *Cluster) Pattern() (failure.Pattern, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pattern == nil {
		return failure.Pattern{}, false
	}
	return *c.pattern, true
}

// Healthy returns the set of processes guaranteed wait-free right now: U_f
// of the injected pattern, or every process when none has been injected.
func (c *Cluster) Healthy() graph.BitSet {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.healthyLocked()
}

func (c *Cluster) healthyLocked() graph.BitSet {
	if c.pattern == nil {
		all := graph.NewBitSet(c.N())
		for i := 0; i < c.N(); i++ {
			all.Add(i)
		}
		return all
	}
	// Clone: BitSet shares its backing words, and a caller mutating the
	// returned set must not corrupt routing.
	return c.healthy.Clone()
}

// healthyProcs returns Healthy as a slice (the routing hot path).
func (c *Cluster) healthyProcs() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pattern == nil {
		out := make([]int, c.N())
		for i := range out {
			out[i] = i
		}
		return out
	}
	return c.healthy.Elems()
}

// provision returns the existing object under (kind, name) or creates one
// with mk. Concurrent provisioning of the same name yields the same client
// (no double-provision race), yet mk runs outside the registry lock so
// building an object (a log's or a shard group's endpoints at every
// process) does not stall routing, injection or other provisioning.
func (c *Cluster) provision(kind, name string, mk func() Object) (Object, error) {
	key := objKey{kind, name}
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClusterClosed
		}
		if obj, ok := c.objects[key]; ok {
			c.mu.Unlock()
			return obj, nil
		}
		p, ok := c.pending[key]
		if !ok {
			break
		}
		// Another goroutine is building this object; wait for it.
		c.mu.Unlock()
		<-p.done
		if p.err != nil {
			return nil, p.err
		}
		return p.obj, nil
	}
	p := &pendingObj{done: make(chan struct{})}
	c.pending[key] = p
	c.mu.Unlock()

	// A panicking constructor must not strand waiters on p.done (nor leave
	// the key pending forever); resolve the handoff before unwinding.
	settled := false
	defer func() {
		if settled {
			return
		}
		c.mu.Lock()
		delete(c.pending, key)
		c.mu.Unlock()
		p.err = fmt.Errorf("provisioning %s %q panicked", kind, name)
		close(p.done)
	}()

	obj := mk()

	c.mu.Lock()
	delete(c.pending, key)
	if c.closed {
		c.mu.Unlock()
		_ = obj.Close()
		settled = true
		p.err = ErrClusterClosed
		close(p.done)
		return nil, ErrClusterClosed
	}
	c.objects[key] = obj
	c.order = append(c.order, obj)
	c.mu.Unlock()
	settled = true
	p.obj = obj
	close(p.done)
	return obj, nil
}

// Register provisions (or returns) the named MWMR atomic register and its
// client.
func (c *Cluster) Register(name string) (*RegisterClient, error) {
	obj, err := c.provision(KindRegister, name, func() Object {
		eps := make([]*register.Register, 0, c.N())
		for i, nd := range c.nodes {
			eps = append(eps, register.New(nd, register.Options{
				Name:  "reg/" + name,
				Reads: c.QS.Reads, Writes: c.QS.Writes,
				Tick: c.tick, Propagator: c.props[i],
			}))
		}
		rc := &RegisterClient{eps: eps}
		rc.init(c, KindRegister, name, func() {
			for _, e := range eps {
				e.Stop()
			}
		})
		return rc
	})
	if err != nil {
		return nil, err
	}
	return obj.(*RegisterClient), nil
}

// Snapshot provisions (or returns) the named SWMR atomic snapshot object
// and its client.
func (c *Cluster) Snapshot(name string) (*SnapshotClient, error) {
	obj, err := c.provision(KindSnapshot, name, func() Object {
		eps := make([]*snapshot.Snapshot, 0, c.N())
		for i, nd := range c.nodes {
			eps = append(eps, snapshot.New(nd, snapshot.Options{
				Name:  "snap/" + name,
				Reads: c.QS.Reads, Writes: c.QS.Writes,
				Tick: c.tick, Propagator: c.props[i],
			}))
		}
		sc := &SnapshotClient{eps: eps}
		sc.init(c, KindSnapshot, name, func() {
			for _, e := range eps {
				e.Stop()
			}
		})
		return sc
	})
	if err != nil {
		return nil, err
	}
	return obj.(*SnapshotClient), nil
}

// LatticeAgreement provisions (or returns) the named single-shot lattice
// agreement object over l and its client. The lattice of an existing object
// is kept; provisioning the same name with a different lattice returns the
// original object.
func (c *Cluster) LatticeAgreement(name string, l lattice.Lattice) (*LatticeClient, error) {
	obj, err := c.provision(KindLattice, name, func() Object {
		eps := make([]*lattice.Agreement, 0, c.N())
		for i, nd := range c.nodes {
			eps = append(eps, lattice.NewAgreement(nd, lattice.AgreementOptions{
				Name: "la/" + name, Lattice: l,
				Reads: c.QS.Reads, Writes: c.QS.Writes,
				Tick: c.tick, Propagator: c.props[i],
			}))
		}
		lc := &LatticeClient{eps: eps}
		lc.init(c, KindLattice, name, func() {
			for _, e := range eps {
				e.Stop()
			}
		})
		return lc
	})
	if err != nil {
		return nil, err
	}
	return obj.(*LatticeClient), nil
}

// Consensus provisions (or returns) the named single-shot consensus object
// and its client.
func (c *Cluster) Consensus(name string) (*ConsensusClient, error) {
	obj, err := c.provision(KindConsensus, name, func() Object {
		eps := make([]*consensus.Consensus, 0, c.N())
		for _, nd := range c.nodes {
			eps = append(eps, consensus.New(nd, consensus.Options{
				Name:  "cons/" + name,
				Reads: c.QS.Reads, Writes: c.QS.Writes, C: c.viewC,
			}))
		}
		cc := &ConsensusClient{eps: eps}
		cc.init(c, KindConsensus, name, func() {
			for _, e := range eps {
				e.Stop()
			}
		})
		return cc
	})
	if err != nil {
		return nil, err
	}
	return obj.(*ConsensusClient), nil
}

// Log provisions (or returns) the named replicated command log and its
// client. The slot window comes from WithSlots.
func (c *Cluster) Log(name string) (*LogClient, error) {
	obj, err := c.provision(KindLog, name, func() Object {
		eps := make([]*smr.Log, 0, c.N())
		for _, nd := range c.nodes {
			eps = append(eps, smr.New(nd, smr.Options{
				Name: "log/" + name, Slots: c.slots,
				Reads: c.QS.Reads, Writes: c.QS.Writes, ViewC: c.viewC,
				Batch: c.batch, Compaction: c.compaction,
			}))
		}
		lc := &LogClient{eps: eps}
		lc.init(c, KindLog, name, func() {
			for _, e := range eps {
				e.Stop()
			}
		})
		return lc
	})
	if err != nil {
		return nil, err
	}
	return obj.(*LogClient), nil
}

// KV provisions (or returns) the named linearizable replicated key-value
// store and its client. Capacity of the backing log comes from WithSlots.
// Every KV client coalesces concurrent SyncGet barriers per process
// (shared read barriers); with WithLease the configured holder additionally
// serves leased local reads.
func (c *Cluster) KV(name string) (*KVClient, error) {
	obj, err := c.provision(KindKV, name, func() Object {
		eps := make([]*smr.KV, 0, c.N())
		for _, nd := range c.nodes {
			eps = append(eps, smr.NewKV(nd, smr.Options{
				Name: "kv/" + name, Slots: c.slots,
				Reads: c.QS.Reads, Writes: c.QS.Writes, ViewC: c.viewC,
				Batch: c.batch, Compaction: c.compaction,
			}))
		}
		kc := &KVClient{eps: eps, holder: int(c.leaseHolder)}
		if c.lease > 0 {
			// One manager per process, wired before the store takes
			// traffic: every process gates appends on the holder while a
			// lease is in force, the holder runs the renewal loop.
			kc.leases = make([]*lease.Manager, len(eps))
			for i, nd := range c.nodes {
				var clk clock.Clock
				if c.leaseClock != nil {
					clk = c.leaseClock(failure.Proc(i))
				}
				kc.leases[i] = lease.NewManager(nd, eps[i], lease.Options{
					Name:     "lease/kv/" + name,
					Holder:   c.leaseHolder,
					Duration: c.lease,
					Clock:    clk,
				})
			}
		}
		kc.barriers = make([]*lease.Barrier, len(eps))
		for i, ep := range eps {
			kc.barriers[i] = lease.NewBarrier(ep.Sync)
		}
		kc.init(c, KindKV, name, func() {
			for _, b := range kc.barriers {
				b.Close()
			}
			// Managers lapse leases and release gated appends before the
			// endpoints stop.
			for _, m := range kc.leases {
				m.Stop()
			}
			for _, e := range eps {
				e.Stop()
			}
		})
		return kc
	})
	if err != nil {
		return nil, err
	}
	return obj.(*KVClient), nil
}

// Objects returns the provisioned objects in creation order.
func (c *Cluster) Objects() []Object {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Object(nil), c.order...)
}

// Close shuts every object, node and (owned) network down. It is idempotent
// and safe to call concurrently with provisioning and operations: late calls
// fail with ErrClusterClosed / ErrClientClosed.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	objs := append([]Object(nil), c.order...)
	c.mu.Unlock()

	for i := len(objs) - 1; i >= 0; i-- {
		_ = objs[i].Close()
	}
	for _, p := range c.props {
		p.Stop()
	}
	for _, nd := range c.nodes {
		nd.Stop()
	}
	if c.ownsNet {
		for _, n := range c.nets {
			n.Close()
		}
	}
	return nil
}
