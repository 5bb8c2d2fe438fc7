// Benchmarks of the reproduction: BenchmarkExperiments smokes every
// experiment table (see README.md for the commands that render them), the
// workload and ms-delay KV targets follow, then micro-benchmarks for the
// substrates.
//
// Run with: go test -bench=. -benchmem
package gqs

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/lattice"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/workload"
)

// benchConfig is tuned for fast iterations: small delays and ticks.
func benchConfig() harness.Config {
	return harness.Config{
		Seed:     1,
		MinDelay: 5 * time.Microsecond,
		MaxDelay: 50 * time.Microsecond,
		Tick:     500 * time.Microsecond,
		ViewC:    5 * time.Millisecond,
	}
}

// BenchmarkExperiments runs every entry of harness.Experiments, one
// sub-benchmark per ID (BenchmarkExperiments/E17). It is a smoke run that
// keeps the experiments from rotting, not a measurement: the tables carry
// the results. -short skips the Heavy entries.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range harness.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			if e.Heavy {
				skipHeavyBenchShort(b)
			}
			for i := 0; i < b.N; i++ {
				t, err := e.Run(context.Background(), benchConfig())
				if err != nil {
					b.Fatal(err)
				}
				if len(t.Rows) == 0 {
					b.Fatal("experiment produced no rows")
				}
			}
		})
	}
}

// skipHeavyBenchShort keeps the CI bench-smoke step (-benchtime 1x -short)
// from starving on multi-second workload benchmarks; the bench-trend job
// runs them without -short and pins -benchtime instead.
func skipHeavyBenchShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("multi-second workload benchmark skipped in -short mode")
	}
}

// --- Workload engine benchmarks (go test -bench BenchmarkWorkload) ---
//
// Each drives the load-generation engine for a short fixed window, so one
// iteration is one complete workload run; ops/sec and tail latency land in
// the emitted report rather than the ns/op column.

func benchWorkload(b *testing.B, cfg workload.Config) {
	b.Helper()
	cfg.Seed = 1
	cfg.MinDelay = 5 * time.Microsecond
	cfg.MaxDelay = 50 * time.Microsecond
	cfg.Tick = 500 * time.Microsecond
	if cfg.Duration == 0 {
		cfg.Duration = 300 * time.Millisecond
	}
	for i := 0; i < b.N; i++ {
		r, err := workload.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.TotalOps == 0 {
			b.Fatal("workload completed no operations")
		}
		b.ReportMetric(r.OpsPerSec, "ops/sec")
		b.ReportMetric(r.Latency.P99Ms, "p99-ms")
	}
}

// BenchmarkWorkloadRegisterClosed — closed-loop register traffic on the
// Figure-1 MemNetwork cluster.
func BenchmarkWorkloadRegisterClosed(b *testing.B) {
	benchWorkload(b, workload.Config{Protocol: workload.ProtocolRegister, Clients: 8, Keys: 8})
}

// BenchmarkWorkloadRegisterOpen — open-loop (paced) register traffic.
func BenchmarkWorkloadRegisterOpen(b *testing.B) {
	benchWorkload(b, workload.Config{Protocol: workload.ProtocolRegister, Clients: 8, Keys: 8, Rate: 400})
}

// BenchmarkWorkloadRegisterZipf — closed-loop register traffic with a
// Zipfian hot-key distribution.
func BenchmarkWorkloadRegisterZipf(b *testing.B) {
	benchWorkload(b, workload.Config{Protocol: workload.ProtocolRegister, Clients: 8, Keys: 8, Dist: workload.DistZipf})
}

// BenchmarkWorkloadSnapshot — closed-loop snapshot update/scan traffic.
func BenchmarkWorkloadSnapshot(b *testing.B) {
	benchWorkload(b, workload.Config{Protocol: workload.ProtocolSnapshot, Clients: 4, Keys: 4})
}

// BenchmarkWorkloadKV — the SMR KV layer under concurrent clients (each
// write is a consensus slot decision).
func BenchmarkWorkloadKV(b *testing.B) {
	benchWorkload(b, workload.Config{
		Protocol: workload.ProtocolKV, Clients: 4, Slots: 64,
		ViewC: 3 * time.Millisecond, Duration: 400 * time.Millisecond,
	})
}

// BenchmarkWorkloadRegisterUnderF1 — register traffic with Figure 1's f1
// injected mid-run, callers restricted to U_f1 (stays wait-free).
func BenchmarkWorkloadRegisterUnderF1(b *testing.B) {
	benchWorkload(b, workload.Config{
		Protocol: workload.ProtocolRegister, Clients: 8, Keys: 8,
		Pattern: 1, RestrictToUf: true,
	})
}

// --- ms-delay KV trend benchmarks (CI bench-trend job) ---
//
// These two targets are the committed throughput trajectory of the
// replicated-log hot path: single-group KV writes at a pinned 1ms one-way
// delay, one command per slot vs group-committed at equal client
// concurrency. The CI bench-trend job runs them with a pinned -benchtime,
// extracts the ops/sec metric and fails the build if either regresses >30%
// against the ci_baselines section of BENCH_batching.json (cmd/benchtrend).
// Keep the configs in lockstep with those baselines: changing a knob here
// without re-measuring the baseline makes the trend check meaningless.

func benchKVWrite1ms(b *testing.B, batch int, smallWindow bool) {
	skipHeavyBenchShort(b)
	cfg := workload.Config{
		Protocol:     workload.ProtocolKV,
		Clients:      64,
		Keys:         1024,
		ReadFraction: -1, // write-only: the consensus pipeline is the subject
		Seed:         7,
		Slots:        4096,
		MinDelay:     time.Millisecond,
		MaxDelay:     time.Millisecond, // pinned: exactly 1ms per hop
		Duration:     1500 * time.Millisecond,
		Warmup:       300 * time.Millisecond,
		OpTimeout:    20 * time.Second,
		Batch:        batch,
	}
	if batch > 1 {
		cfg.BatchWindow = time.Millisecond
		cfg.Pipeline = 4
	}
	if smallWindow {
		// A smaller window (checkpoint every 128 slots) so the measured run
		// actually checkpoints and truncates throughout — the cost under
		// measurement — instead of idling inside a 4096-slot window.
		cfg.Slots = 512
	}
	for i := 0; i < b.N; i++ {
		r, err := workload.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.TotalOps == 0 {
			b.Fatal("workload completed no operations")
		}
		if errs := r.Errors["read"] + r.Errors["write"]; errs > 0 {
			b.Fatalf("%d operation errors", errs)
		}
		if smallWindow && (r.Compaction == nil || r.Compaction.Truncations == 0) {
			b.Fatal("compaction idle: the measured run never truncated, so the trend point is meaningless")
		}
		b.ReportMetric(r.OpsPerSec, "ops/sec")
		b.ReportMetric(r.Writes.P99Ms, "p99-ms")
	}
}

// BenchmarkKVWrite1msOnePerSlot — the RTT-bound baseline: group commit
// capped at one command per slot, one consensus round per Set.
func BenchmarkKVWrite1msOnePerSlot(b *testing.B) { benchKVWrite1ms(b, 1, false) }

// BenchmarkKVWrite1msBatched64 — group commit at batch 64, window 1ms,
// pipeline 4: one round carries up to 64 Sets.
func BenchmarkKVWrite1msBatched64(b *testing.B) { benchKVWrite1ms(b, 64, false) }

// BenchmarkKVWrite1msCompact — the batched hot path in a 512-slot window,
// so checkpointed compaction runs underneath (checkpoint every 128 slots,
// truncation live throughout): its ops/sec against the Batched64 floor is
// the steady-state cost of compaction. Baseline in BENCH_compaction.json.
func BenchmarkKVWrite1msCompact(b *testing.B) { benchKVWrite1ms(b, 64, true) }

// --- ms-delay KV read-path trend benchmarks (CI bench-trend job) ---
//
// The committed trajectory of the linearizable read path: a read-heavy
// (0.95) Zipf mix at a pinned 1ms one-way delay, barrier-per-read vs leased
// local reads (internal/lease). Baselines live in the ci_baselines section
// of BENCH_reads.json; the same lockstep rule as the write targets applies.

func benchKVRead1ms(b *testing.B, lease time.Duration) {
	skipHeavyBenchShort(b)
	cfg := workload.Config{
		Protocol:     workload.ProtocolKV,
		Clients:      64,
		Keys:         1024,
		ReadFraction: 0.95,
		Dist:         workload.DistZipf,
		SyncReads:    true, // every read is linearizable in both variants
		Lease:        lease,
		Seed:         7,
		Slots:        4096,
		MinDelay:     time.Millisecond,
		MaxDelay:     time.Millisecond, // pinned: exactly 1ms per hop
		Duration:     1500 * time.Millisecond,
		Warmup:       300 * time.Millisecond,
		OpTimeout:    20 * time.Second,
	}
	for i := 0; i < b.N; i++ {
		r, err := workload.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.TotalOps == 0 {
			b.Fatal("workload completed no operations")
		}
		if errs := r.Errors["read"] + r.Errors["write"]; errs > 0 {
			b.Fatalf("%d operation errors", errs)
		}
		b.ReportMetric(r.OpsPerSec, "ops/sec")
		b.ReportMetric(r.Reads.P99Ms, "p99-ms")
	}
}

// BenchmarkKVRead1msBarrier — the barrier-per-read baseline: every read
// commits its own private Sync no-op before the local Get.
func BenchmarkKVRead1msBarrier(b *testing.B) { benchKVRead1ms(b, 0) }

// BenchmarkKVRead1msLeased — reads at each group's holder are leased local
// reads (no consensus round); reads elsewhere share coalesced barriers.
func BenchmarkKVRead1msLeased(b *testing.B) { benchKVRead1ms(b, time.Second) }

// --- Micro-benchmarks for the substrates ---

// BenchmarkRegisterOpsFailureFree measures steady-state register throughput
// (write+read pairs) on the Figure-1 GQS without failures.
func BenchmarkRegisterOpsFailureFree(b *testing.B) {
	benchmarkRegisterOps(b, false)
}

// BenchmarkRegisterOpsUnderF1 measures the same workload while pattern f1
// holds (ops driven from U_f1).
func BenchmarkRegisterOpsUnderF1(b *testing.B) {
	benchmarkRegisterOps(b, true)
}

func benchmarkRegisterOps(b *testing.B, applyF1 bool) {
	qs := quorum.Figure1()
	c := harness.NewRegisterCluster(4, qs.Reads, qs.Writes, false, benchConfig())
	defer c.Stop()
	if applyF1 {
		c.Net.ApplyPattern(qs.F.Patterns[0])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Registers[i%2].Write(ctx, fmt.Sprintf("v%d", i)); err != nil {
			b.Fatal(err)
		}
		if _, _, err := c.Registers[(i+1)%2].Read(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConsensusDecision measures a full single-shot consensus round on
// the Figure-1 GQS.
func BenchmarkConsensusDecision(b *testing.B) {
	qs := quorum.Figure1()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := harness.NewConsensusCluster(4, qs.Reads, qs.Writes, benchConfig())
		if _, err := c.Consensus[0].Propose(ctx, "bench"); err != nil {
			b.Fatal(err)
		}
		c.Stop()
	}
}

// BenchmarkFindGQSFigure1 measures the decision procedure on the 4-process
// running example.
func BenchmarkFindGQSFigure1(b *testing.B) {
	sys := failure.Figure1()
	g := quorum.Network(sys.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := quorum.Find(g, sys); !ok {
			b.Fatal("GQS must exist")
		}
	}
}

// BenchmarkFindGQSThreshold9 measures the decision procedure on the 256-
// pattern threshold system Threshold(9, 4).
func BenchmarkFindGQSThreshold9(b *testing.B) {
	sys := failure.Threshold(9, 4)
	g := quorum.Network(sys.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := quorum.Find(g, sys); !ok {
			b.Fatal("GQS must exist")
		}
	}
}

// BenchmarkSCC measures Tarjan on dense random-ish graphs of 64 vertices.
func BenchmarkSCC(b *testing.B) {
	g := graph.New(64)
	for u := 0; u < 64; u++ {
		for v := 0; v < 64; v++ {
			if u != v && (u*31+v*17)%3 == 0 {
				g.AddEdge(u, v)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if comps := g.SCCs(); len(comps) == 0 {
			b.Fatal("no components")
		}
	}
}

// BenchmarkUfComputation measures the Proposition-1 U_f computation.
func BenchmarkUfComputation(b *testing.B) {
	qs := quorum.Figure1()
	g := quorum.Network(4)
	f := qs.F.Patterns[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if u := qs.Uf(g, f); u.Empty() {
			b.Fatal("empty U_f")
		}
	}
}

// BenchmarkMemNetworkThroughput measures raw simulated-network delivery.
func BenchmarkMemNetworkThroughput(b *testing.B) {
	net := transport.NewMem(4,
		transport.WithDelay(transport.UniformDelay{Min: 1 * time.Microsecond, Max: 5 * time.Microsecond}),
		transport.WithSeed(1))
	defer net.Close()
	done := make(chan struct{}, 1024)
	net.Register(1, func(failure.Proc, []byte) {
		select {
		case done <- struct{}{}:
		default:
		}
	})
	payload := []byte("benchmark-payload")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(0, 1, payload)
		<-done
	}
}

// BenchmarkLatticeJoin measures SetLattice joins on medium sets.
func BenchmarkLatticeJoin(b *testing.B) {
	l := lattice.SetLattice{}
	a := lattice.EncodeSet("a", "b", "c", "d", "e", "f")
	c := lattice.EncodeSet("d", "e", "f", "g", "h", "i")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Join(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableRender keeps the harness's render path honest.
func BenchmarkTableRender(b *testing.B) {
	t := harness.NewTable("X", "bench", "a", "b", "c")
	for i := 0; i < 32; i++ {
		t.AddRow("r", "s", "t")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Render(io.Discard)
	}
}
