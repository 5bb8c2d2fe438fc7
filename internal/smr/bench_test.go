package smr

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/node"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/wire"
)

// BenchmarkLogAppendBatched measures batched appends on the Figure-1
// cluster over a zero-delay network: 16 concurrent clients append
// round-robin over the four processes through group commit (1 ms window,
// the library's default pipeline) on a compacting log. It is a
// fixed-iteration rung: one op is a fixed run of 4096 committed appends,
// whatever b.N, and the per-append latency percentiles over every run are
// reported as p50-us and p99-us, which do not move with the op count.
func BenchmarkLogAppendBatched(b *testing.B) {
	const clients, appends = 16, 4096
	qs := quorum.Figure1()
	c := &smrCluster{net: transport.NewMem(4, transport.WithDelay(transport.UniformDelay{}))}
	defer c.stop()
	for i := 0; i < 4; i++ {
		nd := node.New(failure.Proc(i), c.net)
		c.nodes = append(c.nodes, nd)
		c.logs = append(c.logs, New(nd, Options{
			Slots: 256, Reads: qs.Reads, Writes: qs.Writes,
			Batch:      BatchOptions{Window: time.Millisecond},
			Compaction: CompactionOptions{Interval: 64},
		}))
	}
	ctx := context.Background()
	lat := make([]time.Duration, 0, b.N*appends)
	var mu sync.Mutex
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var (
			next atomic.Int64
			wg   sync.WaitGroup
		)
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mine := make([]time.Duration, 0, appends/clients+1)
				for i := next.Add(1); i <= appends; i = next.Add(1) {
					start := time.Now()
					if _, err := c.logs[i%4].Append(ctx, "cmd-"+strconv.FormatInt(i, 10)); err != nil {
						b.Error(err)
						break
					}
					mine = append(mine, time.Since(start))
				}
				mu.Lock()
				lat = append(lat, mine...)
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	if len(lat) == 0 {
		return
	}
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)/2].Microseconds()), "p50-us")
	b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds()), "p99-us")
}

// BenchmarkKVApply measures the KV apply rung: KV.applySlot folding one
// decided group-commit value — 64 Set commands packed by the leader from
// four origins' sub-batches of 16 — into the applied map. One op is one
// slot.
func BenchmarkKVApply(b *testing.B) {
	const origins, perOrigin = 4, DefaultBatchMaxOps / 4
	subs := make([]wire.SubBatch, origins)
	for o := range subs {
		subs[o] = wire.SubBatch{Origin: uint64(o), Seq: 1}
		for i := 0; i < perOrigin; i++ {
			n := o*perOrigin + i
			cmd := kvCommand{Key: fmt.Sprintf("key-%04d", n), Val: fmt.Sprintf("value-%d", n)}
			subs[o].Cmds = append(subs[o].Cmds, cmd.encode())
		}
	}
	v := wire.EncodeBatch(subs...)
	kv := &KV{applied: make(map[string]string)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.applySlot(int64(i), v)
	}
	b.StopTimer()
	if kv.corrupt != nil || len(kv.applied) != origins*perOrigin {
		b.Fatalf("applied %d keys, corrupt %v", len(kv.applied), kv.corrupt)
	}
}
