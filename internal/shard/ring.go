// Package shard partitions the replicated KV keyspace across independent
// quorum-system groups. Each shard is a full deployment of the paper's
// construction — its own generalized quorum system instance, process
// runtimes, propagators, SMR log and (injectable) failure pattern — so the
// store scales horizontally: aggregate throughput grows with the number of
// shards because each shard commits through its own consensus pipeline, and
// faults are isolated: a pattern injected into one shard degrades only that
// shard's key range while the others keep their latency profile.
//
// Keys map to shards through a consistent-hash ring with virtual nodes and a
// deterministic seed: every client of a store derives the identical mapping
// with no coordination, and growing the ring by one shard remaps only ~1/n
// of the keyspace (exclusively onto the new shard).
//
// The paper's per-object quorum construction is what makes this sound: each
// group is an independently valid GQS deployment, and linearizability is
// per key, so composing disjoint key ranges across groups preserves it
// (every operation on a key executes entirely within that key's group).
package shard

import (
	"fmt"
	"sort"
)

// DefaultVirtualNodes is the number of ring points per shard of every
// store Open builds, and of a NewRing given vnodes <= 0. 64 points per
// shard keep the keyspace split within a few percent of even for small
// shard counts.
const DefaultVirtualNodes = 64

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash  uint64
	shard int32
}

// Ring is a consistent-hash ring mapping keys to shards. It is immutable
// after construction and safe for concurrent use.
type Ring struct {
	shards int
	seed   uint64
	points []ringPoint // sorted by hash
}

// NewRing builds the ring for the given shard count, virtual-node count per
// shard (<= 0 means DefaultVirtualNodes) and seed. The mapping is fully
// determined by (shards, vnodes, seed): every process that builds the same
// ring routes every key identically. NewRing panics when shards < 1 — a
// ring over no shards is a programming error; Open validates the count and
// returns an error for configuration-driven paths.
func NewRing(shards, vnodes int, seed uint64) *Ring {
	if shards < 1 {
		panic(fmt.Sprintf("shard ring needs at least 1 shard, got %d", shards))
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	points := make([]ringPoint, 0, shards*vnodes)
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			h := ringHash(seed, fmt.Sprintf("shard%d/vn%d", s, v))
			points = append(points, ringPoint{hash: h, shard: int32(s)})
		}
	}
	// Tie-break equal hashes by shard id so the ring order is deterministic
	// even in the (astronomically unlikely) event of a collision.
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].shard < points[j].shard
	})
	return &Ring{shards: shards, seed: seed, points: points}
}

// Shards returns the number of shards on the ring.
func (r *Ring) Shards() int { return r.shards }

// Shard returns the shard owning key: the first ring point at or after the
// key's hash, wrapping around the ring.
func (r *Ring) Shard(key string) int {
	h := ringHash(r.seed, key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return int(r.points[i].shard)
}

// ringHash is seeded FNV-1a with a splitmix-style finalizer. FNV alone
// clusters nearby inputs ("key1", "key2", ...) on the ring; the avalanche
// spreads them uniformly so vnode ownership arcs stay balanced.
func ringHash(seed uint64, s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= (seed >> (8 * i)) & 0xff
		h *= prime64
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
