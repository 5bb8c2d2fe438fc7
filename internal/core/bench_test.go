package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/quorum"
)

// BenchmarkRegisterTCP measures the register rung on real sockets, the path
// perfbench's reg-tcp runs: a Figure-1 cluster over loopback TCP with the
// default tick, 64 registers, and 16 goroutines (8 per CPU on 2 CPUs)
// issuing a 50/50 mix of Read and Write over them, each register taking
// both. One op is one register
// operation; the per-op p50-us and p99-us cover every op of the run, and
// sets/op counts the quorum_set rounds they took (one per write, one per
// read that could not skip its write-back), a figure that box load does not
// move.
func BenchmarkRegisterTCP(b *testing.B) {
	const registers = 64
	qs := quorum.Figure1()
	c, err := Open(failure.Figure1(), WithTCP(), WithQuorums(qs.Reads, qs.Writes))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	regs := make([]*RegisterClient, registers)
	for i := range regs {
		if regs[i], err = c.Register(fmt.Sprintf("r%02d", i)); err != nil {
			b.Fatal(err)
		}
		if _, err := regs[i].Write(ctx, "init"); err != nil {
			b.Fatal(err)
		}
	}
	sets := func() (n int64) {
		for _, rc := range regs {
			for p := 0; p < c.N(); p++ {
				m, _ := rc.At(failure.Proc(p)).Metrics()
				n += m.Sets
			}
		}
		return n
	}
	sets0 := sets()
	var (
		next atomic.Int64
		mu   sync.Mutex
		lat  = make([]time.Duration, 0, b.N)
	)
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var mine []time.Duration
		for pb.Next() {
			i := next.Add(1)
			rc := regs[i%registers]
			start := time.Now()
			var err error
			if (i/registers)%2 == 0 {
				_, err = rc.Write(ctx, "v")
			} else {
				_, _, err = rc.Read(ctx)
			}
			if err != nil {
				b.Error(err)
				return
			}
			mine = append(mine, time.Since(start))
		}
		mu.Lock()
		lat = append(lat, mine...)
		mu.Unlock()
	})
	b.StopTimer()
	b.ReportMetric(float64(sets()-sets0)/float64(b.N), "sets/op")
	if len(lat) == 0 {
		return
	}
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)/2].Microseconds()), "p50-us")
	b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds()), "p99-us")
}
