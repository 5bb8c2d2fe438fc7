package workload

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/lattice"
	"repro/internal/quorum"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/transport"
)

// Protocol names a protocol endpoint the engine can load.
type Protocol string

// Supported protocols.
const (
	ProtocolRegister Protocol = "register"
	ProtocolSnapshot Protocol = "snapshot"
	ProtocolLattice  Protocol = "lattice"
	ProtocolKV       Protocol = "kv"
)

// NetKind names a transport backend.
type NetKind string

// Supported transports.
const (
	NetMem NetKind = "mem"
	NetTCP NetKind = "tcp"
)

// target is a deployed cluster the driver issues operations against. Writes
// and reads map onto the protocol's natural operation pair (see newTarget).
// The driver pins each operation to an explicit node, so targets reach
// endpoints through the clients' At accessor rather than routed operations.
type target interface {
	// write performs one mutating operation at node p on key k.
	write(ctx context.Context, p, k int, val string) error
	// read performs one read-path operation at node p on key k.
	read(ctx context.Context, p, k int) error
	// injector returns the fault-injection interface, or nil when the
	// transport does not support it (TCP).
	injector() transport.FaultInjector
	// stats returns message-level counters when available (mem network).
	stats() (transport.Stats, bool)
	close()
}

// asyncTarget is implemented by targets whose writes can be issued without
// blocking on completion; the driver's pipelined mode (Config.Pipeline > 1)
// keeps several in flight per client so consecutive group commits overlap.
type asyncTarget interface {
	// writeAsync issues one mutating operation at node p on key k and
	// returns a channel receiving its completion (the endpoint's own
	// buffered channel — no per-op adapter goroutine on the hot path; the
	// driver's completion goroutine reads the error out of the result).
	writeAsync(ctx context.Context, p, k int, val string) <-chan smr.SetResult
}

// quorumSystemFor returns the GQS to deploy: the paper's Figure-1 system for
// 4 processes, and the derived canonical system of the crash-minority
// threshold model otherwise.
func quorumSystemFor(n int) (quorum.System, error) {
	if n == 4 {
		return quorum.Figure1(), nil
	}
	sys := failure.Minority(n)
	qs, ok := quorum.Find(quorum.Network(n), sys)
	if !ok {
		return quorum.System{}, fmt.Errorf("no GQS for %d-process minority system", n)
	}
	return qs, nil
}

// clusterOptions builds the core options for one shard group. Groups differ
// only by simulator seed, so concurrent shards do not replay identical delay
// sequences.
func clusterOptions(cfg Config, qs quorum.System, shard int) []core.Option {
	opts := []core.Option{
		core.WithQuorums(qs.Reads, qs.Writes),
		core.WithTick(cfg.Tick),
		core.WithViewC(cfg.ViewC),
		core.WithSlots(cfg.Slots),
		core.WithBatch(cfg.BatchWindow, cfg.Batch),
		core.WithPipeline(cfg.Pipeline),
	}
	if cfg.Lease > 0 {
		// Every shard group grants its own lease to its process 0 (the core
		// default holder): with clients spread round robin across nodes, 1/n
		// of reads land at a holder and go local.
		opts = append(opts, core.WithLease(cfg.Lease))
	}
	if cfg.Nemesis != "" && shard == 0 {
		// The chaos shard: probe clients route through this group while the
		// scenario engine crashes nodes and degrades links, so failover-safe
		// operations get extra jittered retry passes (each pass re-consults
		// the routing policy, picking up heals), and the group's lease
		// managers run on per-process skewable clocks so skew(P, D) events
		// have something to step.
		opts = append(opts, core.WithRetry(2, 5*time.Millisecond))
		if cfg.Lease > 0 && cfg.nemesisClocks != nil {
			opts = append(opts, core.WithLeaseClocks(cfg.nemesisClocks))
		}
	}
	if cfg.Net == NetTCP {
		return append(opts, core.WithTCP())
	}
	delay := transport.DelayModel(transport.UniformDelay{Min: cfg.MinDelay, Max: cfg.MaxDelay})
	if cfg.Delay != nil {
		delay = cfg.Delay
	}
	return append(opts, core.WithMem(
		transport.WithDelay(delay),
		transport.WithSeed(cfg.Seed+int64(shard)*104729),
		transport.WithMode(transport.ModeRoute),
	))
}

// openCluster provisions the shared substrate through the core adoption
// surface — the same path downstream deployments take.
func openCluster(cfg Config) (*core.Cluster, error) {
	qs, err := quorumSystemFor(cfg.Nodes)
	if err != nil {
		return nil, err
	}
	return core.Open(qs.F, clusterOptions(cfg, qs, 0)...)
}

// clusterTarget adapts a core.Cluster to the target interface.
type clusterTarget struct {
	cl *core.Cluster
}

func (t *clusterTarget) injector() transport.FaultInjector { return t.cl.Injector() }
func (t *clusterTarget) stats() (transport.Stats, bool)    { return t.cl.NetStats() }
func (t *clusterTarget) close()                            { t.cl.Close() }

// newTarget deploys the protocol endpoints for cfg through the Cluster API.
// Operation mapping:
//
//	register: write = Write, read = Read; key selects one of Keys registers
//	snapshot: write = Update, read = Scan; key selects one of Keys objects
//	lattice:  every op = Propose on the next object of a pre-created pool
//	kv:       write = Set, read = Get (Sync+Get when SyncReads; leased
//	          local read or shared barrier when Lease > 0); deploys
//	          cfg.Shards independent groups behind a consistent-hash ring
func newTarget(cfg Config) (target, error) {
	if cfg.Protocol == ProtocolKV {
		return newKVTarget(cfg)
	}
	cl, err := openCluster(cfg)
	if err != nil {
		return nil, err
	}
	switch cfg.Protocol {
	case ProtocolRegister:
		t := &registerTarget{clusterTarget: clusterTarget{cl: cl}}
		for k := 0; k < cfg.Keys; k++ {
			rc, err := cl.Register(fmt.Sprintf("wl%d", k))
			if err != nil {
				cl.Close()
				return nil, err
			}
			t.regs = append(t.regs, rc)
		}
		return t, nil
	case ProtocolSnapshot:
		t := &snapshotTarget{clusterTarget: clusterTarget{cl: cl}}
		for k := 0; k < cfg.Keys; k++ {
			sc, err := cl.Snapshot(fmt.Sprintf("wl%d", k))
			if err != nil {
				cl.Close()
				return nil, err
			}
			t.snaps = append(t.snaps, sc)
		}
		return t, nil
	case ProtocolLattice:
		t := &latticeTarget{clusterTarget: clusterTarget{cl: cl}, pool: cfg.LatticePool}
		t.seq = make([]atomic.Uint64, cfg.Nodes)
		for k := 0; k < cfg.LatticePool; k++ {
			// MaxIntLattice keeps object state O(1) under pool reuse;
			// SetLattice would grow every reused object's element set
			// (and so its propagated snapshot state) without bound.
			lc, err := cl.LatticeAgreement(fmt.Sprintf("wl%d", k), lattice.MaxIntLattice{})
			if err != nil {
				cl.Close()
				return nil, err
			}
			t.objs = append(t.objs, lc)
		}
		return t, nil
	default:
		cl.Close()
		return nil, fmt.Errorf("unknown protocol %q", cfg.Protocol)
	}
}

// newKVTarget deploys the (possibly sharded) KV target: cfg.Shards
// independent quorum-system groups behind a consistent-hash ring. One shard
// is the plain single-group deployment. Config.Slots is the deployment's
// total slot window, divided evenly across shards: comparing shard counts
// at a fixed -slots compares equal window budgets (the window bounds the
// slots in flight and between checkpoints at every node), so measured
// speedups are scaling, not extra provisioning.
func newKVTarget(cfg Config) (target, error) {
	qs, err := quorumSystemFor(cfg.Nodes)
	if err != nil {
		return nil, err
	}
	cfg.Slots = cfg.Slots / cfg.Shards
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	// Nemesis runs step process clocks: every node of the chaos shard gets
	// a skewable wrapper over the real clock, installed as that group's
	// lease clocks so skew events probe the lease Skew budget for real.
	var skews []*clock.Skewed
	if cfg.Nemesis != "" {
		skews = make([]*clock.Skewed, cfg.Nodes)
		for i := range skews {
			skews[i] = clock.NewSkewed(clock.Real)
		}
		cfg.nemesisClocks = func(p failure.Proc) clock.Clock {
			return skews[int(p)%len(skews)]
		}
	}
	st, err := shard.Open(qs.F, cfg.Shards,
		shard.WithRingSeed(uint64(cfg.Seed)),
		shard.WithGroupOptionsFunc(func(s int) []core.Option {
			return clusterOptions(cfg, qs, s)
		}),
	)
	if err != nil {
		return nil, err
	}
	kv, err := st.KV("wl")
	if err != nil {
		st.Close()
		return nil, err
	}
	t := &kvTarget{st: st, kv: kv, syncReads: cfg.SyncReads, lease: cfg.Lease > 0, skews: skews,
		// cfg.Slots is the per-shard window here: each group's log derives
		// its checkpoint cadence from it.
		compactInterval: smr.DefaultInterval(cfg.Slots),
		slotBudget:      cfg.Slots * cfg.Shards,
	}
	t.keys = make([]string, cfg.Keys)
	t.keyShard = make([]int, cfg.Keys)
	for k := range t.keys {
		t.keys[k] = fmt.Sprintf("key%d", k)
		t.keyShard[k] = kv.KeyShard(t.keys[k])
	}
	return t, nil
}

// --- register ---

type registerTarget struct {
	clusterTarget
	regs []*core.RegisterClient // [key]
}

func (t *registerTarget) write(ctx context.Context, p, k int, val string) error {
	_, err := t.regs[k].At(failure.Proc(p)).Write(ctx, val)
	return err
}

func (t *registerTarget) read(ctx context.Context, p, k int) error {
	_, _, err := t.regs[k].At(failure.Proc(p)).Read(ctx)
	return err
}

// --- snapshot ---

type snapshotTarget struct {
	clusterTarget
	snaps []*core.SnapshotClient // [key]
}

func (t *snapshotTarget) write(ctx context.Context, p, k int, val string) error {
	return t.snaps[k].At(failure.Proc(p)).Update(ctx, val)
}

func (t *snapshotTarget) read(ctx context.Context, p, k int) error {
	_, err := t.snaps[k].At(failure.Proc(p)).Scan(ctx)
	return err
}

// --- lattice ---

// latticeTarget drives lattice agreement, which is single-shot per process:
// each operation proposes on the next object of a pre-created pool (objects
// must exist at every node from startup so their wire topics are handled —
// see the smr package comment for why lazy creation cannot work under
// asymmetric patterns). Once a node has proposed on all pool objects the
// sequence wraps; wrapped proposals reuse objects beyond their single-shot
// contract, which is mechanically safe (the propose loop still terminates)
// and acceptable for load generation where agreement properties are not
// being checked. Size the pool above the expected op count per node to stay
// within the paper's semantics.
type latticeTarget struct {
	clusterTarget
	objs []*core.LatticeClient // [pool]
	seq  []atomic.Uint64       // per-node proposal counter
	pool int
}

func (t *latticeTarget) propose(ctx context.Context, p, k int) error {
	s := t.seq[p].Add(1) - 1
	// Stagger each node's walk through the pool so nodes proposing at
	// similar rates rarely share an object: the AHR loop converges in <= n
	// iterations only for a fixed proposal set, and cross-node reuse
	// contention makes proposers chase each other's rising joins.
	idx := (int(s) + p*t.pool/len(t.seq)) % t.pool
	// The proposal folds node, key and sequence into one monotone integer so
	// concurrent proposals still exercise the join/compare path.
	_, err := t.objs[idx].At(failure.Proc(p)).Propose(ctx, fmt.Sprintf("%d", s*uint64(len(t.seq))+uint64(p)+uint64(k)))
	return err
}

func (t *latticeTarget) write(ctx context.Context, p, k int, _ string) error {
	return t.propose(ctx, p, k)
}

func (t *latticeTarget) read(ctx context.Context, p, k int) error {
	return t.propose(ctx, p, k)
}

// --- kv (sharded) ---

// kvTarget drives the sharded KV store. The driver pins each operation to a
// node p within the key's shard group — every group has the same topology,
// so the pinning stays meaningful at any shard count.
type kvTarget struct {
	st        *shard.Store
	kv        *shard.KV
	keys      []string // precomputed so the timed path does not format
	keyShard  []int    // precomputed ring lookups
	syncReads bool
	lease     bool
	// skews are the chaos shard's per-process lease clocks (nemesis runs
	// only; nil otherwise). The scenario engine steps them on skew events.
	skews []*clock.Skewed
	// The per-shard checkpoint cadence and the deployment-wide slot budget,
	// reported next to the aggregated compaction counters so a run's
	// occupancy bound reads off one section.
	compactInterval int64
	slotBudget      int
}

// probeKeys returns up to max distinct keys that the ring places on shard 0
// (the chaos shard), disjoint from the workload's key%d namespace so probe
// histories never interleave with unrecorded load operations.
func (t *kvTarget) probeKeys(max int) []string {
	out := make([]string, 0, max)
	for i := 0; len(out) < max && i < max*8*t.st.Shards(); i++ {
		k := fmt.Sprintf("nem%d", i)
		if t.kv.KeyShard(k) == 0 {
			out = append(out, k)
		}
	}
	return out
}

// injector returns shard 0's fault injector: a mid-run pattern degrades one
// key range while the remaining shards serve as the isolation control.
func (t *kvTarget) injector() transport.FaultInjector { return t.st.Injector(0) }

func (t *kvTarget) stats() (transport.Stats, bool) { return t.st.Stats() }

func (t *kvTarget) close() { t.st.Close() }

// shardCount and shardOf let the driver keep exact per-shard metrics.
func (t *kvTarget) shardCount() int   { return t.st.Shards() }
func (t *kvTarget) shardOf(k int) int { return t.keyShard[k] }

func (t *kvTarget) write(ctx context.Context, p, k int, val string) error {
	_, err := t.kv.Shard(t.keyShard[k]).At(failure.Proc(p)).Set(ctx, t.keys[k], val)
	return err
}

func (t *kvTarget) writeAsync(ctx context.Context, p, k int, val string) <-chan smr.SetResult {
	return t.kv.Shard(t.keyShard[k]).At(failure.Proc(p)).SetAsync(ctx, t.keys[k], val)
}

func (t *kvTarget) read(ctx context.Context, p, k int) error {
	c := t.kv.Shard(t.keyShard[k])
	if t.lease {
		// Pinned linearizable read through the lease surface: a leased
		// local read when p holds the shard's valid lease, otherwise p's
		// shared read barrier (concurrent readers coalesce onto one Sync
		// commit) followed by a local Get. Kept distinct from the plain
		// sync-read path below, which pays one private barrier per read —
		// that path is the honest baseline leased reads are measured
		// against.
		if lm := c.LeaseManager(failure.Proc(p)); lm != nil {
			if _, _, served, err := lm.Read(ctx, t.keys[k]); served {
				return err
			}
		}
		if err := c.ReadBarrier(failure.Proc(p)).Sync(ctx); err != nil {
			return err
		}
		_, _, err := c.At(failure.Proc(p)).Get(ctx, t.keys[k])
		return err
	}
	ep := c.At(failure.Proc(p))
	if t.syncReads {
		if err := ep.Sync(ctx); err != nil {
			return err
		}
	}
	_, _, err := ep.Get(ctx, t.keys[k])
	return err
}
