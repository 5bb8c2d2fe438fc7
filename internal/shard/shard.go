package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/smr"
	"repro/internal/transport"
)

// ErrStoreClosed is returned by operations on a closed store.
var ErrStoreClosed = errors.New("sharded store closed")

// config collects the functional options of Open.
type config struct {
	ringSeed uint64
	group    func(shard int) []core.Option
}

// Option configures Open.
type Option func(*config)

// WithRingSeed sets the consistent-hash seed. Every client of one store must
// use the same seed (and shard count) to derive the same key mapping.
func WithRingSeed(seed uint64) Option {
	return func(c *config) { c.ringSeed = seed }
}

// WithGroupOptions appends cluster options applied to every shard's group
// (e.g. core.WithSlots, core.WithViewC). core.WithLease here gives each
// group its own independent lease, so a pattern injected into one shard
// lapses only that shard's fast read path. Do not pass core.WithNetwork
// here: shards must not share one transport, or injecting a pattern into
// one shard would fault them all.
func WithGroupOptions(opts ...core.Option) Option {
	return WithGroupOptionsFunc(func(int) []core.Option { return opts })
}

// WithGroupOptionsFunc appends per-shard cluster options (e.g. a distinct
// simulator seed per group).
func WithGroupOptionsFunc(f func(shard int) []core.Option) Option {
	return func(c *config) {
		prev := c.group
		c.group = func(shard int) []core.Option {
			return append(prev(shard), f(shard)...)
		}
	}
}

// Store is a consistent-hash sharded deployment: n independent clusters
// (each a full quorum-system group with its own transport, SMR substrate and
// failure pattern) behind one ring. All methods are safe for concurrent use.
type Store struct {
	ring   *Ring
	groups []*core.Cluster

	mu     sync.Mutex
	closed bool
}

// Open provisions shards independent quorum-system groups for the fail-prone
// system and strings them on a consistent-hash ring. Every group derives (or
// validates) the same generalized quorum system; opts configure the ring and
// the per-group clusters.
func Open(failProne failure.System, shards int, opts ...Option) (*Store, error) {
	if shards < 1 {
		return nil, fmt.Errorf("need at least 1 shard, got %d", shards)
	}
	cfg := config{group: func(int) []core.Option { return nil }}
	for _, o := range opts {
		o(&cfg)
	}
	groups := make([]*core.Cluster, 0, shards)
	for s := 0; s < shards; s++ {
		cl, err := core.Open(failProne, cfg.group(s)...)
		if err != nil {
			for _, prev := range groups {
				prev.Close()
			}
			return nil, fmt.Errorf("open shard %d: %w", s, err)
		}
		groups = append(groups, cl)
	}
	return &Store{ring: NewRing(shards, DefaultVirtualNodes, cfg.ringSeed), groups: groups}, nil
}

// Shards returns the number of shard groups.
func (st *Store) Shards() int { return len(st.groups) }

// Ring returns the store's consistent-hash ring.
func (st *Store) Ring() *Ring { return st.ring }

// KeyShard returns the shard owning key.
func (st *Store) KeyShard(key string) int { return st.ring.Shard(key) }

// Group returns the cluster backing shard i (for advanced wiring: injecting
// patterns, reading net stats, provisioning non-KV objects on one shard).
func (st *Store) Group(i int) (*core.Cluster, error) {
	if i < 0 || i >= len(st.groups) {
		return nil, fmt.Errorf("shard %d out of range [0,%d)", i, len(st.groups))
	}
	return st.groups[i], nil
}

// Injector returns shard i's fault-injection interface, or nil when its
// transport does not support injection. Shards fault independently — that is
// the point: injecting into one group leaves the other key ranges' quorum
// systems fully connected.
func (st *Store) Injector(i int) transport.FaultInjector {
	if i < 0 || i >= len(st.groups) {
		return nil
	}
	return st.groups[i].Injector()
}

// InjectPattern makes every failure allowed by f happen in shard i only, and
// records it there so HealthyUf-routed clients of that shard confine
// operations to its U_f. Other shards are untouched.
func (st *Store) InjectPattern(i int, f failure.Pattern) error {
	g, err := st.Group(i)
	if err != nil {
		return err
	}
	return g.InjectPattern(f)
}

// Stats sums message-level counters across shards whose transport maintains
// them; ok is false when none does.
func (st *Store) Stats() (transport.Stats, bool) {
	var (
		total transport.Stats
		any   bool
	)
	for _, g := range st.groups {
		if s, ok := g.NetStats(); ok {
			total.Sent += s.Sent
			total.Delivered += s.Delivered
			total.Dropped += s.Dropped
			any = true
		}
	}
	return total, any
}

// KV provisions (or returns) the named KV store on every shard group and
// wraps the per-shard clients behind the ring.
func (st *Store) KV(name string) (*KV, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, ErrStoreClosed
	}
	st.mu.Unlock()
	clients := make([]*core.KVClient, 0, len(st.groups))
	for i, g := range st.groups {
		kc, err := g.KV(name)
		if err != nil {
			return nil, fmt.Errorf("provision kv %q on shard %d: %w", name, i, err)
		}
		clients = append(clients, kc)
	}
	return &KV{store: st, name: name, shards: clients}, nil
}

// Close shuts every shard group down. Idempotent.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	st.mu.Unlock()
	var errs []error
	for _, g := range st.groups {
		if err := g.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// KV is the sharded key-value client: every operation routes to the shard
// owning its key through that shard's (failure-aware) routing policy; the
// per-key linearizability of the underlying stores composes because a key's
// operations all execute in one group.
type KV struct {
	store  *Store
	name   string
	shards []*core.KVClient
}

// Name returns the store name the client was provisioned under.
func (kv *KV) Name() string { return kv.name }

// Shards returns the shard count.
func (kv *KV) Shards() int { return len(kv.shards) }

// KeyShard returns the shard owning key.
func (kv *KV) KeyShard(key string) int { return kv.store.ring.Shard(key) }

// Shard returns the per-shard client of shard i (for pinned drivers and
// per-shard policies). Panics when i is out of range.
func (kv *KV) Shard(i int) *core.KVClient { return kv.shards[i] }

// forKey returns the client of the shard owning key.
func (kv *KV) forKey(key string) *core.KVClient {
	return kv.shards[kv.store.ring.Shard(key)]
}

// SetPolicy installs the routing policy on every shard's client. Policies
// are safe to share: each shard's client consults its own cluster, so
// HealthyUf confines operations to that shard's termination component.
func (kv *KV) SetPolicy(p core.Policy) {
	for _, c := range kv.shards {
		c.SetPolicy(p)
	}
}

// Set commits key=val in the key's shard and returns the slot it occupies in
// that shard's log. Slots are per shard: (KeyShard(key), slot) identifies
// the committed position globally.
func (kv *KV) Set(ctx context.Context, key, val string) (int64, error) {
	return kv.forKey(key).Set(ctx, key, val)
}

// SetAsync submits key=val in the key's shard and returns a channel
// receiving its completion (see core.KVClient.SetAsync): pipelined writes
// to one shard share group commits (tuned by core.WithBatch via
// WithGroupOptions).
func (kv *KV) SetAsync(ctx context.Context, key, val string) <-chan smr.SetResult {
	return kv.forKey(key).SetAsync(ctx, key, val)
}

// SetMany commits every pair, grouped by owning shard: each shard's pairs
// go through that shard's SetMany (coalescing into its group commits), all
// shards concurrently. The returned slots align with the input order and
// are per-shard positions — (KeyShard(pair.Key), slot) identifies a commit
// globally. The pairs are concurrent writes (see smr.KV.SetMany for the
// ordering contract). Committed pairs keep their slots on partial failure,
// failed pairs report slot -1; the joined shard errors are returned.
func (kv *KV) SetMany(ctx context.Context, pairs []smr.KVPair) ([]int64, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	type idxPair struct {
		idx  int
		pair smr.KVPair
	}
	byShard := make(map[int][]idxPair)
	for i, p := range pairs {
		s := kv.store.ring.Shard(p.Key)
		byShard[s] = append(byShard[s], idxPair{idx: i, pair: p})
	}
	slots := make([]int64, len(pairs))
	for i := range slots {
		slots[i] = -1 // failed or unreached pairs stay unambiguous
	}
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	for s, group := range byShard {
		wg.Add(1)
		go func(s int, group []idxPair) {
			defer wg.Done()
			sub := make([]smr.KVPair, len(group))
			for i, g := range group {
				sub[i] = g.pair
			}
			got, err := kv.shards[s].SetMany(ctx, sub)
			mu.Lock()
			defer mu.Unlock()
			for i, g := range group {
				if i < len(got) {
					slots[g.idx] = got[i]
				}
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("shard %d: %w", s, err))
			}
		}(s, group)
	}
	wg.Wait()
	if len(errs) > 0 {
		return slots, errors.Join(errs...)
	}
	return slots, nil
}

// Get returns key's value from the decided prefix of a routed process in the
// key's shard (see core.KVClient.Get for the freshness contract).
func (kv *KV) Get(ctx context.Context, key string) (string, bool, error) {
	return kv.forKey(key).Get(ctx, key)
}

// SyncGet performs a linearizable read of key in its shard: a leased local
// read at the shard's holder when core.WithLease is on and its lease is valid,
// else a shared read barrier plus read at one routed process (see
// core.KVClient.SyncGet).
func (kv *KV) SyncGet(ctx context.Context, key string) (string, bool, error) {
	return kv.forKey(key).SyncGet(ctx, key)
}

// Sync commits a barrier no-op in every shard, concurrently. After it
// returns, a pinned read at any barrier process observes every Set that
// completed before Sync was invoked.
func (kv *KV) Sync(ctx context.Context) error {
	errs := make([]error, len(kv.shards))
	var wg sync.WaitGroup
	for i, c := range kv.shards {
		wg.Add(1)
		go func(i int, c *core.KVClient) {
			defer wg.Done()
			errs[i] = c.Sync(ctx)
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// MultiGet performs one linearizable multi-key read across shards: keys are
// grouped by owning shard and each group is read with a single barrier at
// one routed process of its shard, all groups concurrently. Missing keys are
// absent from the result. Reads of different shards are independent barriers
// (the snapshot is per key, not across keys — exactly the guarantee the
// underlying per-key stores provide).
func (kv *KV) MultiGet(ctx context.Context, keys ...string) (map[string]string, error) {
	if len(keys) == 0 {
		return map[string]string{}, nil
	}
	byShard := make(map[int][]string)
	for _, k := range keys {
		s := kv.store.ring.Shard(k)
		byShard[s] = append(byShard[s], k)
	}
	var (
		mu   sync.Mutex
		out  = make(map[string]string, len(keys))
		errs []error
		wg   sync.WaitGroup
	)
	for s, group := range byShard {
		wg.Add(1)
		go func(s int, group []string) {
			defer wg.Done()
			m, err := kv.shards[s].SyncGetMany(ctx, group)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("shard %d: %w", s, err))
				return
			}
			for k, v := range m {
				out[k] = v
			}
		}(s, group)
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return out, nil
}

// ShardMetrics returns each shard client's operation counters, indexed by
// shard.
func (kv *KV) ShardMetrics() []core.ClientMetrics {
	out := make([]core.ClientMetrics, len(kv.shards))
	for i, c := range kv.shards {
		out[i] = c.Metrics()
	}
	return out
}

// Metrics aggregates the per-shard operation counters: counts sum, the mean
// latency is weighted by per-shard successes.
func (kv *KV) Metrics() core.ClientMetrics {
	var (
		total   core.ClientMetrics
		latNano int64
	)
	for _, c := range kv.shards {
		m := c.Metrics()
		total.Ops += m.Ops
		total.Successes += m.Successes
		total.Failures += m.Failures
		total.Failovers += m.Failovers
		latNano += int64(m.MeanLatency) * int64(m.Successes)
	}
	if total.Successes > 0 {
		total.MeanLatency = time.Duration(latNano / int64(total.Successes))
	}
	return total
}

// CompactionMetrics aggregates the compaction counters across shards the
// same way core.KVClient.CompactionMetrics does across processes: event
// counters sum, peak slot occupancy takes the maximum over every shard's
// processes (the per-window bound each shard must hold independently).
func (kv *KV) CompactionMetrics() smr.CompactionMetrics {
	var total smr.CompactionMetrics
	for _, c := range kv.shards {
		m := c.CompactionMetrics()
		total.Checkpoints += m.Checkpoints
		total.Truncations += m.Truncations
		total.SlotsFreed += m.SlotsFreed
		total.InstallsSent += m.InstallsSent
		total.InstallsReceived += m.InstallsReceived
		if m.PeakOccupancy > total.PeakOccupancy {
			total.PeakOccupancy = m.PeakOccupancy
		}
	}
	return total
}

// Close closes every shard's client (the store and its groups stay up; use
// Store.Close to tear the deployment down).
func (kv *KV) Close() error {
	var errs []error
	for _, c := range kv.shards {
		if err := c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
