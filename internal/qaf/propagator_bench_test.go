package qaf

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/node"
	"repro/internal/quorum"
	"repro/internal/transport"
)

// benchCluster is a propagator cluster without testing.T plumbing.
type benchCluster struct {
	net   *transport.MemNetwork
	nodes []*node.Node
	props []*Propagator
	accs  [][]*Generalized // [proc][instance]
}

func (c *benchCluster) stop() {
	for _, row := range c.accs {
		for _, a := range row {
			a.Stop()
		}
	}
	for _, p := range c.props {
		p.Stop()
	}
	for _, n := range c.nodes {
		n.Stop()
	}
	c.net.Close()
}

func newBenchCluster(n, k int, tick time.Duration) *benchCluster {
	qs := quorum.Figure1()
	c := &benchCluster{net: transport.NewMem(n, fastDelay(), transport.WithSeed(11))}
	for i := 0; i < n; i++ {
		nd := node.New(failure.Proc(i), c.net)
		c.nodes = append(c.nodes, nd)
		prop := NewPropagator(nd, tick)
		c.props = append(c.props, prop)
		var row []*Generalized
		for j := 0; j < k; j++ {
			row = append(row, NewGeneralized(nd, GeneralizedConfig{
				Name:       fmt.Sprintf("obj%d", j),
				SM:         &maxSM{},
				Reads:      qs.Reads,
				Writes:     qs.Writes,
				Propagator: prop,
			}))
		}
		c.accs = append(c.accs, row)
	}
	return c
}

// BenchmarkPropagatorFanout measures aggregate Set throughput while each of
// the 4 nodes hosts k instances — the fan-out cliff of per-tick full-state
// propagation. 8 concurrent clients issue quorum_sets spread over distinct
// instances and caller nodes (the workload engine's access shape); every
// operation is a full write-quorum SET round plus the phase-2 wait for
// read-quorum clocks, so the cost of propagating the other instances' state
// lands directly in the measured path. sends/op is the network's Send and
// SendAll calls per Set (a broadcast counts once): unlike ns/op, box load
// does not move it much.
func BenchmarkPropagatorFanout(b *testing.B) {
	const clients = 8
	for _, k := range []int{8, 32, 128, 256} {
		b.Run(fmt.Sprintf("instances=%d", k), func(b *testing.B) {
			c := newBenchCluster(4, k, 2*time.Millisecond)
			defer c.stop()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
			defer cancel()

			// One settled Set so the benchmark loop starts from a live object.
			if err := c.accs[0][0].Set(ctx, enc(1)); err != nil {
				b.Fatalf("warmup Set: %v", err)
			}
			sent0 := c.net.Stats().Sent
			b.ResetTimer()
			var wg sync.WaitGroup
			var next atomic.Int64
			errc := make(chan error, clients)
			for cl := 0; cl < clients; cl++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						acc := c.accs[i%4][int(i)%k]
						if err := acc.Set(ctx, enc(i+2)); err != nil {
							errc <- fmt.Errorf("Set %d: %w", i, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-errc:
				b.Fatal(err)
			default:
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
			b.ReportMetric(float64(c.net.Stats().Sent-sent0)/float64(b.N), "sends/op")
		})
	}
}

// BenchmarkPropagatorUnderF1 measures one sequential Set+Get pair at a with
// pattern f1 applied: d crashed and only c→a, a→b, b→a up, so every live
// process runs the propagator's spontaneous per-tick fallback for 16
// instances while the pair's read quorum {a, c} waits on c's clock. It
// reports the pair's p50 latency next to ns/op and allocs/op (the latter
// include the background fallback traffic of the whole cluster).
func BenchmarkPropagatorUnderF1(b *testing.B) {
	const k = 16
	c := newBenchCluster(4, k, 2*time.Millisecond)
	defer c.stop()
	c.net.ApplyPattern(quorum.Figure1().F.Patterns[0])
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	acc := c.accs[0][0]
	pair := func(v int64) {
		if err := acc.Set(ctx, enc(v)); err != nil {
			b.Fatalf("Set: %v", err)
		}
		if _, _, err := acc.Get(ctx); err != nil {
			b.Fatalf("Get: %v", err)
		}
	}
	// Let every live process notice its silent peers (downTicks) before
	// measuring, so the loop runs in the steady fallback regime.
	time.Sleep(2 * downTicks * 2 * time.Millisecond)
	pair(1)
	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		pair(int64(i + 2))
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)/2].Microseconds())/1000, "p50-ms")
}
